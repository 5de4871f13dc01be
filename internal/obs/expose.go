package obs

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"sort"
	"strconv"
	"strings"
)

// Snapshot is a point-in-time, serialization-friendly copy of a registry:
// every series with its current value. All times are durations — a
// snapshot carries no absolute wall-clock values, so it is safe to diff
// across runs.
type Snapshot struct {
	UptimeSeconds float64          `json:"uptime_seconds"`
	Counters      []CounterPoint   `json:"counters"`
	Gauges        []GaugePoint     `json:"gauges"`
	Histograms    []HistogramPoint `json:"histograms"`
}

// CounterPoint is one counter series in a snapshot.
type CounterPoint struct {
	Series string `json:"series"`
	Family string `json:"family"`
	Value  int64  `json:"value"`
}

// GaugePoint is one gauge series in a snapshot.
type GaugePoint struct {
	Series string  `json:"series"`
	Family string  `json:"family"`
	Value  float64 `json:"value"`
}

// HistogramPoint is one histogram series in a snapshot. Bounds are the
// finite upper bucket bounds; BucketCounts has len(Bounds)+1 entries —
// per-bucket (non-cumulative) counts with the final entry counting
// observations above the last finite bound — so the entries sum to Count.
type HistogramPoint struct {
	Series       string    `json:"series"`
	Family       string    `json:"family"`
	Count        int64     `json:"count"`
	Sum          float64   `json:"sum"`
	Bounds       []float64 `json:"bounds"`
	BucketCounts []int64   `json:"bucket_counts"`
}

// Snapshot copies the registry's current state. Nil registry → empty
// snapshot (never nil slices for the three series kinds, so JSON output
// is stable).
func (r *Registry) Snapshot() Snapshot {
	snap := Snapshot{
		Counters:   []CounterPoint{},
		Gauges:     []GaugePoint{},
		Histograms: []HistogramPoint{},
	}
	if r == nil {
		return snap
	}
	snap.UptimeSeconds = r.Uptime().Seconds()
	r.mu.Lock()
	for _, c := range r.counters {
		snap.Counters = append(snap.Counters, CounterPoint{
			Series: c.series, Family: c.family, Value: c.Value(),
		})
	}
	for _, g := range r.gauges {
		snap.Gauges = append(snap.Gauges, GaugePoint{
			Series: g.series, Family: g.family, Value: g.Value(),
		})
	}
	for _, h := range r.histograms {
		counts := make([]int64, len(h.counts))
		for i := range h.counts {
			counts[i] = h.counts[i].Load()
		}
		snap.Histograms = append(snap.Histograms, HistogramPoint{
			Series: h.series, Family: h.family,
			Count: h.Count(), Sum: h.Sum(),
			Bounds:       append([]float64(nil), h.bounds...),
			BucketCounts: counts,
		})
	}
	r.mu.Unlock()
	sort.Slice(snap.Counters, func(i, j int) bool { return snap.Counters[i].Series < snap.Counters[j].Series })
	sort.Slice(snap.Gauges, func(i, j int) bool { return snap.Gauges[i].Series < snap.Gauges[j].Series })
	sort.Slice(snap.Histograms, func(i, j int) bool { return snap.Histograms[i].Series < snap.Histograms[j].Series })
	return snap
}

// Has reports whether the snapshot contains the exact series name (as a
// counter, gauge or histogram).
func (s Snapshot) Has(series string) bool {
	for _, c := range s.Counters {
		if c.Series == series {
			return true
		}
	}
	for _, g := range s.Gauges {
		if g.Series == series {
			return true
		}
	}
	for _, h := range s.Histograms {
		if h.Series == series {
			return true
		}
	}
	return false
}

// CounterValue returns the value of the named counter series and whether
// it exists.
func (s Snapshot) CounterValue(series string) (int64, bool) {
	for _, c := range s.Counters {
		if c.Series == series {
			return c.Value, true
		}
	}
	return 0, false
}

// GaugeValue returns the value of the named gauge series and whether it
// exists.
func (s Snapshot) GaugeValue(series string) (float64, bool) {
	for _, g := range s.Gauges {
		if g.Series == series {
			return g.Value, true
		}
	}
	return 0, false
}

// WriteJSON writes the snapshot as indented JSON.
func (s Snapshot) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(s)
}

// WriteJSONFile writes the snapshot to path (0644).
func (s Snapshot) WriteJSONFile(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := s.WriteJSON(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// ReadSnapshot parses a snapshot previously written with WriteJSON.
func ReadSnapshot(rd io.Reader) (Snapshot, error) {
	var s Snapshot
	dec := json.NewDecoder(rd)
	if err := dec.Decode(&s); err != nil {
		return Snapshot{}, err
	}
	return s, nil
}

// ReadSnapshotFile parses a snapshot from a JSON file.
func ReadSnapshotFile(path string) (Snapshot, error) {
	f, err := os.Open(path)
	if err != nil {
		return Snapshot{}, err
	}
	defer f.Close()
	return ReadSnapshot(f)
}

// formatValue renders a float the way the Prometheus text format expects.
func formatValue(v float64) string {
	return strconv.FormatFloat(v, 'g', -1, 64)
}

// withLabel splices an extra label into a series name: "fam{a=\"b\"}" →
// "fam{a=\"b\",k=\"v\"}", "fam" → "fam{k=\"v\"}". newFamily, when
// non-empty, also replaces the family prefix (for _bucket suffixes).
func withLabel(series, family, newFamily, k, v string) string {
	rest := series[len(family):]
	if newFamily == "" {
		newFamily = family
	}
	label := k + `="` + escapeLabel(v) + `"`
	if strings.HasPrefix(rest, "{") {
		return newFamily + "{" + label + "," + rest[1:]
	}
	return newFamily + "{" + label + "}" + rest
}

// WritePrometheus writes the snapshot in the Prometheus text exposition
// format: families grouped under # TYPE lines, histograms expanded into
// cumulative _bucket{le=...} series plus _sum and _count.
func (s Snapshot) WritePrometheus(w io.Writer) error {
	type family struct {
		name, kind string
		lines      []string
	}
	byName := map[string]*family{}
	add := func(name, kind, line string) {
		f, ok := byName[name]
		if !ok {
			f = &family{name: name, kind: kind}
			byName[name] = f
		}
		f.lines = append(f.lines, line)
	}
	for _, c := range s.Counters {
		add(c.Family, "counter", c.Series+" "+strconv.FormatInt(c.Value, 10))
	}
	for _, g := range s.Gauges {
		add(g.Family, "gauge", g.Series+" "+formatValue(g.Value))
	}
	for _, h := range s.Histograms {
		cum := int64(0)
		for i, b := range h.Bounds {
			cum += h.BucketCounts[i]
			add(h.Family, "histogram",
				withLabel(h.Series, h.Family, h.Family+"_bucket", "le", formatValue(b))+" "+strconv.FormatInt(cum, 10))
		}
		add(h.Family, "histogram",
			withLabel(h.Series, h.Family, h.Family+"_bucket", "le", "+Inf")+" "+strconv.FormatInt(h.Count, 10))
		sumSeries := h.Family + "_sum" + h.Series[len(h.Family):]
		countSeries := h.Family + "_count" + h.Series[len(h.Family):]
		add(h.Family, "histogram", sumSeries+" "+formatValue(h.Sum))
		add(h.Family, "histogram", countSeries+" "+strconv.FormatInt(h.Count, 10))
	}
	names := make([]string, 0, len(byName))
	for name := range byName {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		f := byName[name]
		if _, err := fmt.Fprintf(w, "# TYPE %s %s\n", f.name, f.kind); err != nil {
			return err
		}
		for _, line := range f.lines {
			if _, err := io.WriteString(w, line+"\n"); err != nil {
				return err
			}
		}
	}
	return nil
}
