package obs

import (
	"bytes"
	"math"
	"reflect"
	"sync"
	"testing"
)

func TestNilHandlesNoOp(t *testing.T) {
	var r *Registry
	c := r.Counter("c_total")
	g := r.Gauge("g")
	h := r.Histogram("h", nil)
	if c != nil || g != nil || h != nil {
		t.Fatalf("nil registry must hand out nil instruments")
	}
	c.Inc()
	c.Add(5)
	g.Set(1)
	g.Add(2)
	h.Observe(3)
	if c.Value() != 0 || g.Value() != 0 || h.Count() != 0 || h.Sum() != 0 {
		t.Fatalf("nil instruments must read as zero")
	}
	rec := NewRecorder(r, nil)
	if rec != nil {
		t.Fatalf("a recorder over neither a registry nor a journal must be nil")
	}
	rec.Emit(RunEvent("start", "root"))
	rec.Declare(NodeEvent("leaf", 1, 0))
	rec.Phase("p")()
	snap := r.Snapshot()
	if len(snap.Counters) != 0 || len(snap.Gauges) != 0 || len(snap.Histograms) != 0 {
		t.Fatalf("nil registry snapshot must be empty")
	}
}

func TestSeriesNaming(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("x_total", "b", "2", "a", "1")
	if got, want := c.Name(), `x_total{a="1",b="2"}`; got != want {
		t.Fatalf("series = %q, want %q (labels must sort by key)", got, want)
	}
	if r.Counter("x_total", "a", "1", "b", "2") != c {
		t.Fatalf("same (family, labels) must return the same counter")
	}
	e := r.Counter("esc_total", "v", "a\\b\"c\nd")
	if got, want := e.Name(), `esc_total{v="a\\b\"c\nd"}`; got != want {
		t.Fatalf("escaped series = %q, want %q", got, want)
	}
	if r.Counter("plain_total").Name() != "plain_total" {
		t.Fatalf("label-free series must be the bare family name")
	}
}

// TestConcurrentInstruments hammers every instrument kind from many
// goroutines; run under -race this pins the registry's thread safety, and
// the exact final values pin that no update is lost.
func TestConcurrentInstruments(t *testing.T) {
	r := NewRegistry()
	const workers = 16
	const perWorker = 2000
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			// Constructors race on the same series names on purpose.
			c := r.Counter("hammer_total")
			g := r.Gauge("hammer_gauge")
			h := r.Histogram("hammer_seconds", []float64{0.25, 0.5, 0.75})
			for i := 0; i < perWorker; i++ {
				c.Inc()
				g.Add(1)
				h.Observe(float64(i%4) * 0.25)
			}
		}(w)
	}
	wg.Wait()
	const total = workers * perWorker
	if got := r.Counter("hammer_total").Value(); got != total {
		t.Fatalf("counter = %d, want %d", got, total)
	}
	if got := r.Gauge("hammer_gauge").Value(); got != total {
		t.Fatalf("gauge = %v, want %d", got, total)
	}
	h := r.Histogram("hammer_seconds", nil)
	if got := h.Count(); got != total {
		t.Fatalf("histogram count = %d, want %d", got, total)
	}
	wantSum := float64(total) / 4 * (0 + 0.25 + 0.5 + 0.75)
	if got := h.Sum(); math.Abs(got-wantSum) > 1e-6 {
		t.Fatalf("histogram sum = %v, want %v", got, wantSum)
	}
	snap := r.Snapshot()
	for _, hp := range snap.Histograms {
		var bucketSum int64
		for _, c := range hp.BucketCounts {
			bucketSum += c
		}
		if bucketSum != hp.Count {
			t.Fatalf("%s: bucket counts sum to %d, count is %d", hp.Series, bucketSum, hp.Count)
		}
	}
}

// TestSnapshotRoundTrip: a registry's snapshot survives the journal's
// trailer, series and values intact.
func TestSnapshotRoundTrip(t *testing.T) {
	r := NewRegistry()
	r.Counter("states_total", "algo", "HS").Add(42)
	r.Gauge("best_cost").Set(123.5)
	r.Histogram("lat_seconds", []float64{0.1, 1}).Observe(0.05)

	var b bytes.Buffer
	if err := NewJournal(&b, r).Close(); err != nil {
		t.Fatal(err)
	}
	evs, err := ReadJournal(&b)
	if err != nil {
		t.Fatal(err)
	}
	back := evs[len(evs)-1].Snapshot
	if back == nil {
		t.Fatal("the trailer carries no snapshot")
	}
	if !back.Has(`states_total{algo="HS"}`) || !back.Has("best_cost") || !back.Has("lat_seconds") {
		t.Fatalf("round-tripped snapshot missing series: %+v", back)
	}
	if v, ok := back.CounterValue(`states_total{algo="HS"}`); !ok || v != 42 {
		t.Fatalf("counter value = %d, %v; want 42, true", v, ok)
	}
	if v, ok := back.GaugeValue("best_cost"); !ok || v != 123.5 {
		t.Fatalf("gauge value = %v, %v; want 123.5, true", v, ok)
	}
	if h := back.Histograms[0]; h.Count != 1 || !reflect.DeepEqual(h.BucketCounts, []int64{1, 0, 0}) {
		t.Fatalf("histogram = %+v; want one observation in the first bucket", h)
	}
	if back.Has("missing") {
		t.Fatalf("Has must not invent series")
	}
}
