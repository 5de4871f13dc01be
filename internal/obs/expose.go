package obs

import (
	"encoding/json"
	"io"
	"sort"
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
