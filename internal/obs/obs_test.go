package obs

import (
	"math"
	"sort"
	"strings"
	"sync"
	"testing"

	"etlopt/internal/stats"
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
	if !math.IsNaN(h.Quantile(0.5)) {
		t.Fatalf("nil histogram quantile must be NaN")
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

// TestQuantileAgainstSummarize checks the histogram's interpolated
// quantiles against exact order statistics from stats.Summarize on the
// same sample: the estimate must land within the width of the bucket
// containing the true value.
func TestQuantileAgainstSummarize(t *testing.T) {
	// Deterministic pseudo-random sample in [0, 1): a small LCG, so the
	// test needs no randomness source.
	seed := uint64(20050405)
	next := func() float64 {
		seed = seed*6364136223846793005 + 1442695040888963407
		return float64(seed>>11) / float64(1<<53)
	}
	bounds := make([]float64, 20)
	for i := range bounds {
		bounds[i] = float64(i+1) / 20
	}
	r := NewRegistry()
	h := r.Histogram("sample", bounds)
	sample := make([]float64, 5000)
	for i := range sample {
		sample[i] = next()
		h.Observe(sample[i])
	}
	sum := stats.Summarize(sample)
	const bucketWidth = 1.0 / 20
	if got := h.Quantile(0.5); math.Abs(got-sum.Median) > bucketWidth {
		t.Fatalf("median estimate %v vs exact %v: off by more than a bucket", got, sum.Median)
	}
	sorted := append([]float64(nil), sample...)
	sort.Float64s(sorted)
	for _, q := range []float64{0.1, 0.25, 0.75, 0.9, 0.99} {
		exact := sorted[int(q*float64(len(sorted)-1))]
		if got := h.Quantile(q); math.Abs(got-exact) > bucketWidth {
			t.Fatalf("q=%v estimate %v vs exact %v: off by more than a bucket", q, got, exact)
		}
	}
	if got := h.Quantile(0); got < 0 || got > bucketWidth {
		t.Fatalf("q=0 estimate %v outside first bucket", got)
	}
	if got := h.Quantile(1); got < 1-bucketWidth || got > 1 {
		t.Fatalf("q=1 estimate %v outside last bucket", got)
	}
}

func TestSnapshotRoundTrip(t *testing.T) {
	r := NewRegistry()
	r.Counter("states_total", "algo", "HS").Add(42)
	r.Gauge("best_cost").Set(123.5)
	r.Histogram("lat_seconds", []float64{0.1, 1}).Observe(0.05)

	snap := r.Snapshot()
	var b strings.Builder
	if err := snap.WriteJSON(&b); err != nil {
		t.Fatal(err)
	}
	back, err := ReadSnapshot(strings.NewReader(b.String()))
	if err != nil {
		t.Fatal(err)
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
	if snap.Has("missing") {
		t.Fatalf("Has must not invent series")
	}
}

func TestWritePrometheus(t *testing.T) {
	r := NewRegistry()
	r.Counter("c_total", "op", "SWA").Add(7)
	r.Gauge("g").Set(2.5)
	h := r.Histogram("h_seconds", []float64{0.1, 1}, "stage", "load")
	h.Observe(0.05)
	h.Observe(0.5)
	h.Observe(5)

	var b strings.Builder
	if err := r.Snapshot().WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	for _, want := range []string{
		"# TYPE c_total counter",
		`c_total{op="SWA"} 7`,
		"# TYPE g gauge",
		"g 2.5",
		"# TYPE h_seconds histogram",
		`h_seconds_bucket{le="0.1",stage="load"} 1`,
		`h_seconds_bucket{le="1",stage="load"} 2`,
		`h_seconds_bucket{le="+Inf",stage="load"} 3`,
		`h_seconds_sum{stage="load"} 5.55`,
		`h_seconds_count{stage="load"} 3`,
	} {
		if !strings.Contains(out, want+"\n") {
			t.Fatalf("prometheus output missing %q:\n%s", want, out)
		}
	}
	// No family repeats its TYPE line.
	if strings.Count(out, "# TYPE h_seconds histogram") != 1 {
		t.Fatalf("TYPE line must appear once per family:\n%s", out)
	}
}
