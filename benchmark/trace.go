package main

import (
	"encoding/json"
	"os"
	"sort"
	"strings"
	"sync"
	"time"
)

// span is one timed interval of the traced run. Start and End are seconds
// since the tracer was made; Parent indexes the span that caused this one
// (-1 for a pass); spans of one pass share Pass.
type span struct {
	Name   string  `json:"name"`
	Start  float64 `json:"start"`
	End    float64 `json:"end"`
	Parent int     `json:"parent"`
	Pass   int     `json:"pass"`
}

// tracer keeps spans in memory until the run ends. begin/end may be called
// from the engine's worker goroutines (file scans inside a suite run).
type tracer struct {
	mu    sync.Mutex
	t0    time.Time
	pass  int
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

func (t *tracer) begin(name string, parent int) int {
	now := time.Since(t.t0).Seconds()
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{Name: name, Start: now, Parent: parent, Pass: t.pass})
	return len(t.spans) - 1
}

func (t *tracer) end(id int) {
	now := time.Since(t.t0).Seconds()
	t.mu.Lock()
	t.spans[id].End = now
	t.mu.Unlock()
}

// add records a span whose interval was measured elsewhere.
func (t *tracer) add(name string, parent int, start, end time.Time) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{Name: name, Parent: parent, Pass: t.pass,
		Start: start.Sub(t.t0).Seconds(), End: end.Sub(t.t0).Seconds()})
}

func (t *tracer) write(path string) error {
	raw, err := json.Marshal(t.spans)
	if err != nil {
		return err
	}
	return os.WriteFile(path, raw, 0o644)
}

// passLayers names the five times a traced pass is partitioned into.
var passLayers = [5]string{"parse", "optimize", "scan", "execute", "load"}

// breakdown partitions one traced pass into the passLayers times, in that
// order: the parse and search spans as measured, the time file scans and
// loads cover, and what is left of the execute spans once those are taken
// out (their self time). Scans can overlap inside a suite run, so covered
// time is the union of the intervals, not their sum.
func (t *tracer) breakdown(pass int) [5]float64 {
	var parse, optimize, execute float64
	var scans, io [][2]float64
	for _, s := range t.spans {
		if s.Pass != pass {
			continue
		}
		d := s.End - s.Start
		switch {
		case s.Name == "dsl.parse":
			parse += d
		case s.Name == "core.search":
			optimize += d
		case s.Name == "engine.run" || s.Name == "share.runsuite":
			execute += d
		case strings.HasPrefix(s.Name, "data.scan"):
			scans = append(scans, [2]float64{s.Start, s.End})
			io = append(io, [2]float64{s.Start, s.End})
		case strings.HasPrefix(s.Name, "data.load"):
			io = append(io, [2]float64{s.Start, s.End})
		}
	}
	scan := covered(scans)
	load := covered(io) - scan
	return [5]float64{parse, optimize, scan, execute - scan - load, load}
}

// covered returns the length of the union of the intervals.
func covered(iv [][2]float64) float64 {
	sort.Slice(iv, func(i, j int) bool { return iv[i][0] < iv[j][0] })
	total, end := 0.0, 0.0
	for i, x := range iv {
		if i == 0 || x[0] > end {
			total += x[1] - x[0]
			end = x[1]
		} else if x[1] > end {
			total += x[1] - end
			end = x[1]
		}
	}
	return total
}
