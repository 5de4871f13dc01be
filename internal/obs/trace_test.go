package obs

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"
)

func TestWriteTraceEvents(t *testing.T) {
	evs := journalOf(t, func(j *Journal) {
		rec := NewRecorder(nil, j)
		rec.Emit(RunEvent("start", "run"))
		rec.Phase("p1")()
		rec.Emit(RunEvent("end", "run"))
		runSpan(j, "exec")
	})

	var buf bytes.Buffer
	if err := WriteTraceEvents(&buf, Spans(evs)); err != nil {
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
