package obs

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// TestSpanTraceTree derives a run's trace tree from its events: the run's
// start/end pair is the root, a phase's pair and a node event are spans
// under it, and another recorder's run is a trace of its own.
func TestSpanTraceTree(t *testing.T) {
	r := NewRegistry()
	rec := NewRecorder(r, nil)
	rec.Emit(RunEvent("start", "run"))
	end := rec.Phase("phase")
	rec.Emit(NodeEvent("step", 3, 0.25))
	end()
	rec.Emit(RunEvent("end", "run"))
	runSpan(r, "other")

	recs := r.RecentSpans(0)
	if len(recs) != 4 {
		t.Fatalf("got %d records, want 4", len(recs))
	}
	byName := map[string]SpanRecord{}
	for _, rec := range recs {
		byName[rec.Name] = rec
	}
	run, phase, step, oth := byName["run"], byName["phase"], byName["node/step"], byName["other"]
	if run.ID == 0 || run.TraceID != run.ID || run.ParentID != 0 {
		t.Errorf("root record ids: %+v", run)
	}
	if phase.TraceID != run.ID || phase.ParentID != run.ID {
		t.Errorf("child must inherit trace and point at parent: %+v (root %d)", phase, run.ID)
	}
	if step.TraceID != run.ID || step.ParentID != run.ID || step.Depth != 1 || step.DurationSeconds != 0.25 {
		t.Errorf("a node span lies under its run and lasts the event's Sec: %+v", step)
	}
	if oth.TraceID == run.ID || oth.TraceID != oth.ID {
		t.Errorf("separate root must start its own trace: %+v", oth)
	}
	ids := map[int64]bool{run.ID: true, phase.ID: true, step.ID: true, oth.ID: true}
	if len(ids) != 4 {
		t.Error("span IDs must be unique")
	}
}

func TestSetSpanCapAndDropAccounting(t *testing.T) {
	r := NewRegistry()
	if got := r.SpansDropped(); got != 0 {
		t.Fatalf("fresh registry SpansDropped = %d", got)
	}
	snap := r.Snapshot()
	if v, ok := snap.CounterValue("obs_spans_dropped_total"); !ok || v != 0 {
		t.Fatalf("obs_spans_dropped_total must exist from creation (got %d, ok=%v)", v, ok)
	}

	// Overflow the default window: overwrites are counted.
	for i := 0; i < spanLogCap+10; i++ {
		runSpan(r, "s")
	}
	if got := r.SpansDropped(); got != 10 {
		t.Errorf("SpansDropped after %d spans = %d, want 10", spanLogCap+10, got)
	}

	// Growing keeps what is retained and stops the loss.
	r.SetSpanCap(spanLogCap + 100)
	if got := len(r.RecentSpans(0)); got != spanLogCap {
		t.Errorf("after grow, retained %d spans, want %d", got, spanLogCap)
	}
	for i := 0; i < 100; i++ {
		runSpan(r, "t")
	}
	if got := r.SpansDropped(); got != 10 {
		t.Errorf("grown window must not drop: SpansDropped = %d, want 10", got)
	}
	if got := len(r.RecentSpans(0)); got != spanLogCap+100 {
		t.Errorf("grown window retains %d, want %d", got, spanLogCap+100)
	}

	// Shrinking sheds oldest records and counts them.
	r.SetSpanCap(50)
	if got := len(r.RecentSpans(0)); got != 50 {
		t.Errorf("after shrink, retained %d, want 50", got)
	}
	recs := r.RecentSpans(0)
	for _, rec := range recs {
		if rec.Name != "t" {
			t.Fatalf("shrink must keep the most recent records, found %q", rec.Name)
		}
	}
	wantDropped := int64(10 + (spanLogCap + 100 - 50))
	if got := r.SpansDropped(); got != wantDropped {
		t.Errorf("SpansDropped after shrink = %d, want %d", got, wantDropped)
	}

	// c <= 0 restores the default bound.
	r.SetSpanCap(0)
	for i := 0; i < spanLogCap+5; i++ {
		runSpan(r, "u")
	}
	if got := len(r.RecentSpans(0)); got != spanLogCap {
		t.Errorf("default-restored window retains %d, want %d", got, spanLogCap)
	}

	// Nil registry: all no-ops.
	var nilReg *Registry
	nilReg.SetSpanCap(5)
	if nilReg.SpansDropped() != 0 {
		t.Error("nil registry SpansDropped != 0")
	}
}

func TestWriteTraceEvents(t *testing.T) {
	r := NewRegistry()
	rec := NewRecorder(r, nil)
	rec.Emit(RunEvent("start", "run"))
	rec.Phase("p1")()
	rec.Emit(RunEvent("end", "run"))
	runSpan(r, "exec")

	var buf bytes.Buffer
	if err := r.Snapshot().WriteTraceEvents(&buf); err != nil {
		t.Fatal(err)
	}
	var tf struct {
		TraceEvents []struct {
			Name string            `json:"name"`
			Cat  string            `json:"cat"`
			Ph   string            `json:"ph"`
			Ts   float64           `json:"ts"`
			Dur  float64           `json:"dur"`
			Pid  int               `json:"pid"`
			Tid  int64             `json:"tid"`
			Args map[string]string `json:"args"`
		} `json:"traceEvents"`
		DisplayTimeUnit string `json:"displayTimeUnit"`
	}
	if err := json.Unmarshal(buf.Bytes(), &tf); err != nil {
		t.Fatalf("trace JSON does not parse: %v\n%s", err, buf.String())
	}
	if tf.DisplayTimeUnit != "ms" {
		t.Errorf("displayTimeUnit = %q", tf.DisplayTimeUnit)
	}
	var metas, complete []int
	for i, e := range tf.TraceEvents {
		switch e.Ph {
		case "M":
			metas = append(metas, i)
		case "X":
			complete = append(complete, i)
		default:
			t.Errorf("unexpected phase %q in event %d", e.Ph, i)
		}
	}
	// process_name + two thread_name (one per trace) metadata records.
	if len(metas) != 3 {
		t.Errorf("got %d metadata events, want 3", len(metas))
	}
	if tf.TraceEvents[metas[0]].Name != "process_name" {
		t.Errorf("first metadata = %+v", tf.TraceEvents[metas[0]])
	}
	if len(complete) != 3 {
		t.Fatalf("got %d complete events, want 3", len(complete))
	}
	byName := map[string]int{}
	for _, i := range complete {
		byName[tf.TraceEvents[i].Name] = i
	}
	run := tf.TraceEvents[byName["run"]]
	p1 := tf.TraceEvents[byName["p1"]]
	exec := tf.TraceEvents[byName["exec"]]
	if run.Tid != p1.Tid {
		t.Errorf("run and its child must share a track: %d vs %d", run.Tid, p1.Tid)
	}
	if exec.Tid == run.Tid {
		t.Error("separate traces must get separate tracks")
	}
	if run.Args["span_id"] == "" {
		t.Errorf("args must carry the span's ID: %v", run.Args)
	}
	if p1.Args["parent"] != "run" {
		t.Errorf("child args must carry parent: %v", p1.Args)
	}
	// Events sort by timestamp.
	last := -1.0
	for _, i := range complete {
		if ts := tf.TraceEvents[i].Ts; ts < last {
			t.Errorf("complete events out of ts order at %d", i)
		} else {
			last = ts
		}
	}
}

func TestWriteTraceEventsFile(t *testing.T) {
	r := NewRegistry()
	runSpan(r, "x")
	path := filepath.Join(t.TempDir(), "trace.json")
	if err := r.Snapshot().WriteTraceEventsFile(path); err != nil {
		t.Fatal(err)
	}
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var anything map[string]any
	if err := json.Unmarshal(b, &anything); err != nil {
		t.Fatalf("trace file is not valid JSON: %v", err)
	}
	if _, ok := anything["traceEvents"]; !ok {
		t.Error("trace file missing traceEvents key")
	}
}

func TestWritePrometheusLabelEscaping(t *testing.T) {
	r := NewRegistry()
	r.Counter("esc_total", "node", "3:σ(A=\"x\\y\")\nz").Inc()
	h := r.Histogram("esc_seconds", []float64{1}, "node", "a\"b")
	h.Observe(0.5)

	var b strings.Builder
	if err := r.Snapshot().WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	if !strings.Contains(out, `esc_total{node="3:σ(A=\"x\\y\")\nz"} 1`) {
		t.Errorf("counter label not escaped:\n%s", out)
	}
	// The le label splices in *before* existing labels keep their escaping.
	if !strings.Contains(out, `esc_seconds_bucket{le="1",node="a\"b"} 1`) {
		t.Errorf("histogram bucket label not escaped/spliced:\n%s", out)
	}
	if !strings.Contains(out, `esc_seconds_bucket{le="+Inf",node="a\"b"} 1`) {
		t.Errorf("+Inf bucket missing:\n%s", out)
	}
	if !strings.Contains(out, `esc_seconds_sum{node="a\"b"} 0.5`) {
		t.Errorf("sum series missing:\n%s", out)
	}
}

func TestStatusPageHandler(t *testing.T) {
	r := NewRegistry()
	r.Counter("page_total", "op", "<SWA>").Add(5)
	r.Gauge("page_gauge").Set(1.25)
	r.Histogram("page_seconds", nil).Observe(0.001)
	o := NewRecorder(r, nil)
	o.Emit(RunEvent("start", "run<script>"))
	o.Phase("phase")()
	o.Emit(RunEvent("end", "run<script>"))

	h := Handler(r)
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/", nil))
	if rec.Code != http.StatusOK {
		t.Fatalf("GET / = %d", rec.Code)
	}
	if ct := rec.Header().Get("Content-Type"); !strings.Contains(ct, "text/html") {
		t.Errorf("content type = %q", ct)
	}
	body := rec.Body.String()
	for _, want := range []string{
		"etlopt status",
		"page_total{op=&#34;&lt;SWA&gt;&#34;}", // HTML-escaped series name
		"<td>5</td>",
		"page_gauge",
		"1.25",
		"page_seconds",
		"run&lt;script&gt;", // span names are HTML-escaped too
		"phase",
		"obs_spans_dropped_total", // satellite: loss accounting on the page
	} {
		if !strings.Contains(body, want) {
			t.Errorf("status page missing %q:\n%s", want, body)
		}
	}
	if strings.Contains(body, "<script>") {
		t.Error("status page contains unescaped user-controlled markup")
	}

	// Non-root paths 404.
	rec = httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/nope", nil))
	if rec.Code != http.StatusNotFound {
		t.Errorf("GET /nope = %d, want 404", rec.Code)
	}

	// The other endpoints serve what they claim.
	rec = httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/metrics", nil))
	if rec.Code != http.StatusOK || !strings.Contains(rec.Body.String(), "# TYPE page_total counter") {
		t.Errorf("GET /metrics = %d:\n%s", rec.Code, rec.Body.String())
	}
	rec = httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/metrics.json", nil))
	var snap Snapshot
	if err := json.Unmarshal(rec.Body.Bytes(), &snap); err != nil {
		t.Fatalf("GET /metrics.json does not parse: %v", err)
	}
	if v, ok := snap.CounterValue(`page_total{op="<SWA>"}`); !ok || v != 5 {
		t.Errorf("metrics.json counter = %d, ok=%v", v, ok)
	}
}
