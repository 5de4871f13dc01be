package obs

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"path/filepath"
	"reflect"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"testing"
)

func TestJournalRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	j := NewJournal(&buf, nil)
	j.Emit(RunEvent("start", "etlrun mode=parallel"))
	j.Emit(PhaseEvent("p1", "start"))
	j.Emit(TransitionEvent("SWA", "attempt", 0))
	j.Emit(TransitionEvent("SWA", "accept", 0))
	j.Emit(TransitionEvent("FAC", "best", 123.5))
	j.Emit(NodeEvent("3:σ(COST>=100)", 42, 0.001))
	j.Emit(BatchEvent("3:σ(COST>=100)", 2, 10))
	j.Emit(ExchangeEvent("5:γ(KEY)", 800))
	j.Emit(CheckpointEvent("7:∪", "staged", 99))
	j.Emit(DriftEvent("3:σ(COST>=100)", 0.42, 0.5))
	j.Emit(PhaseEvent("p1", "end"))
	j.Emit(RunEvent("end", "etlrun"))
	if err := j.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}

	evs, err := ReadJournal(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatalf("ReadJournal: %v", err)
	}
	const emitted = 12
	if len(evs) != emitted+1 { // +1 trailing summary
		t.Fatalf("got %d events, want %d", len(evs), emitted+1)
	}
	for i, e := range evs {
		if e.Seq != int64(i+1) {
			t.Errorf("event %d: Seq = %d, want %d", i, e.Seq, i+1)
		}
		if e.Off < 0 {
			t.Errorf("event %d: negative offset %v", i, e.Off)
		}
	}
	if evs[0].T != EventRun || evs[0].Action != "start" || evs[0].Detail != "etlrun mode=parallel" {
		t.Errorf("run start event mangled: %+v", evs[0])
	}
	if evs[4].T != EventTransition || evs[4].Op != "FAC" || evs[4].Action != "best" || evs[4].Cost != 123.5 {
		t.Errorf("best event mangled: %+v", evs[4])
	}
	if evs[6].T != EventBatch || evs[6].Part != 2 || evs[6].Rows != 10 {
		t.Errorf("batch event mangled: %+v", evs[6])
	}
	sum := evs[emitted]
	if sum.T != EventSummary || sum.Events != emitted || sum.Dropped != 0 || sum.Errors != 0 || sum.Snapshot != nil {
		t.Errorf("summary mangled: %+v", sum)
	}
	if j.Written() != emitted || j.Dropped() != 0 || j.Errors() != 0 {
		t.Errorf("accounting: written=%d dropped=%d errors=%d", j.Written(), j.Dropped(), j.Errors())
	}
}

func TestJournalFileAndEmitAfterClose(t *testing.T) {
	path := filepath.Join(t.TempDir(), "run.jsonl")
	j, err := NewJournalFile(path, nil)
	if err != nil {
		t.Fatalf("NewJournalFile: %v", err)
	}
	j.Emit(RunEvent("start", "t"))
	if err := j.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	// Emit after Close is a counted drop, never a panic; double Close is a no-op.
	j.Emit(RunEvent("end", "t"))
	if got := j.Dropped(); got != 1 {
		t.Errorf("Dropped after post-close Emit = %d, want 1", got)
	}
	if err := j.Close(); err != nil {
		t.Errorf("second Close: %v", err)
	}
	evs, err := ReadJournalFile(path)
	if err != nil {
		t.Fatalf("ReadJournalFile: %v", err)
	}
	if len(evs) != 2 || evs[1].T != EventSummary {
		t.Fatalf("file journal = %+v", evs)
	}
	// The summary was written before the post-close drop: it reports 0.
	if evs[1].Events != 1 {
		t.Errorf("summary events = %d, want 1", evs[1].Events)
	}
}

func TestJournalNilSafe(t *testing.T) {
	var j *Journal
	j.Emit(RunEvent("start", "nil"))
	if j.Dropped() != 0 || j.Errors() != 0 || j.Written() != 0 {
		t.Error("nil journal accounting not zero")
	}
	if err := j.Close(); err != nil {
		t.Errorf("nil Close: %v", err)
	}
}

// blockedWriter blocks every Write until released, letting a test fill the
// journal deterministically.
type blockedWriter struct {
	release chan struct{}
	once    sync.Once
}

func (w *blockedWriter) Write(p []byte) (int, error) {
	<-w.release
	return len(p), nil
}

func TestJournalDropAccounting(t *testing.T) {
	reg := NewRegistry()
	w := &blockedWriter{release: make(chan struct{})}
	j := NewJournal(w, reg)
	// Events big enough that the journal's 64 KiB bufio buffer fills and
	// forces a (blocked) flush within the first few dozen events; from
	// then on the writer goroutine is stuck and the queue backs up, so
	// emitting well past its capacity must drop.
	big := strings.Repeat("x", 4096)
	const emitted = journalCap + 400
	for i := 0; i < emitted; i++ {
		j.Emit(RunEvent("start", big))
	}
	if got := j.Dropped(); got == 0 {
		t.Error("Dropped = 0 after overfilling a blocked journal")
	}
	close(w.release)
	if err := j.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	if j.Written()+j.Dropped() != emitted {
		t.Errorf("written %d + dropped %d != emitted %d",
			j.Written(), j.Dropped(), emitted)
	}
	snap := reg.Snapshot()
	if got, ok := snap.CounterValue("journal_events_dropped_total"); !ok || got != j.Dropped() {
		t.Errorf("registry dropped counter = %v (ok=%v), want %v", got, ok, j.Dropped())
	}
	if got, ok := snap.CounterValue("journal_events_total"); !ok || got != j.Written() {
		t.Errorf("registry written counter = %v (ok=%v), want %v", got, ok, j.Written())
	}
}

// TestJournalAllocatesWhatItHolds pins that a journal's queue grows with
// the events in flight: opening, filling with an engine run's worth of
// events and closing one allocates its 64 KiB write buffer and about what
// those events take, not room for journalCap of them (1.6 MB).
func TestJournalAllocatesWhatItHolds(t *testing.T) {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	j := NewJournal(io.Discard, nil)
	for i := 0; i < 300; i++ {
		j.Emit(NodeEvent("a", i, 0.001))
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
	runtime.ReadMemStats(&after)
	if got := after.TotalAlloc - before.TotalAlloc; got > 512<<10 {
		t.Errorf("a journal of 300 events allocated %d bytes, want at most %d", got, 512<<10)
	}
	if j.Written() != 300 {
		t.Errorf("written %d events, want 300", j.Written())
	}
}

// failAfterWriter accepts n writes and then fails every subsequent one.
type failAfterWriter struct {
	mu sync.Mutex
	n  int
}

func (w *failAfterWriter) Write(p []byte) (int, error) {
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.n <= 0 {
		return 0, errors.New("disk full")
	}
	w.n--
	return len(p), nil
}

func TestJournalWriteErrorsNonFatal(t *testing.T) {
	reg := NewRegistry()
	w := &failAfterWriter{n: 2}
	j := NewJournal(w, reg)
	// Use a tiny flush threshold by writing enough bytes to force flushes:
	// bufio only surfaces write errors when it flushes, so emit enough
	// events to exceed the 64 KiB buffer.
	big := strings.Repeat("x", 1024)
	const emitted = 200
	for i := 0; i < emitted; i++ {
		j.Emit(RunEvent("start", big))
	}
	err := j.Close()
	if err == nil {
		t.Fatal("Close returned nil despite write failures")
	}
	if !strings.Contains(err.Error(), "disk full") {
		t.Errorf("Close error does not wrap the write failure: %v", err)
	}
	if j.Errors() == 0 {
		t.Error("Errors() = 0, want > 0")
	}
	snap := reg.Snapshot()
	if got, ok := snap.CounterValue("journal_errors_total"); !ok || got != j.Errors() {
		t.Errorf("registry journal_errors_total = %v (ok=%v), want %v", got, ok, j.Errors())
	}
}

func TestJournalConcurrentEmit(t *testing.T) {
	var buf bytes.Buffer
	j := NewJournal(&buf, nil)
	var wg sync.WaitGroup
	const goroutines, per = 8, 200
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < per; i++ {
				j.Emit(TransitionEvent("SWA", "attempt", float64(g)))
			}
		}(g)
	}
	wg.Wait()
	if err := j.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	evs, err := ReadJournal(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatalf("ReadJournal: %v", err)
	}
	if int64(len(evs)) != j.Written()+1 {
		t.Fatalf("file has %d events, accounting says %d written (+1 summary)", len(evs), j.Written())
	}
	if j.Written()+j.Dropped() != goroutines*per {
		t.Errorf("written %d + dropped %d != emitted %d", j.Written(), j.Dropped(), goroutines*per)
	}
	seen := make(map[int64]bool, len(evs))
	for _, e := range evs {
		if seen[e.Seq] {
			t.Fatalf("duplicate Seq %d", e.Seq)
		}
		seen[e.Seq] = true
	}
}

// TestJournalTrailerSnapshot: a journal opened without a registry writes
// the summary with no snapshot key at all; one opened with a registry
// writes the registry's final snapshot into it, on one line, and
// ReadJournal reads that line back whole however long it is — here 20 000
// series, well past a megabyte.
func TestJournalTrailerSnapshot(t *testing.T) {
	var buf bytes.Buffer
	j := NewJournal(&buf, nil)
	j.Emit(RunEvent("start", "t"))
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSuffix(buf.String(), "\n"), "\n")
	var keys map[string]json.RawMessage
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &keys); err != nil {
		t.Fatal(err)
	}
	if len(keys) != 4 || keys["t"] == nil || keys["seq"] == nil || keys["off"] == nil || keys["events"] == nil {
		t.Errorf("trailer without a registry = %s, want seq, t, off and events only", lines[len(lines)-1])
	}

	reg := NewRegistry()
	for i := range 20_000 {
		reg.Counter("big_total", "i", strconv.Itoa(i)).Add(int64(i))
	}
	reg.Gauge("g").Set(2.5)
	reg.Histogram("h_seconds", []float64{0.1, 1}).Observe(0.5)
	buf.Reset()
	j = NewJournal(&buf, reg)
	rec := NewRecorder(reg, j)
	rec.Emit(RunEvent("start", "t"))
	rec.Emit(NodeEvent("a", 3, 0.01))
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
	lines = strings.Split(strings.TrimSuffix(buf.String(), "\n"), "\n")
	if len(lines) != 3 || len(lines[2]) <= 1<<20 {
		t.Fatalf("%d lines, trailer of %d bytes; want 3 lines and a trailer past 1 MiB", len(lines), len(lines[len(lines)-1]))
	}
	evs, err := ReadJournal(&buf)
	if err != nil {
		t.Fatal(err)
	}
	got := evs[len(evs)-1].Snapshot
	if got == nil {
		t.Fatal("the trailer carries no snapshot")
	}
	want := reg.Snapshot()
	if !reflect.DeepEqual(got.Counters, want.Counters) || !reflect.DeepEqual(got.Gauges, want.Gauges) ||
		!reflect.DeepEqual(got.Histograms, want.Histograms) {
		t.Error("the trailer's snapshot differs from the registry's")
	}
	if v, _ := got.CounterValue("journal_events_total"); v != 2 {
		t.Errorf("trailer journal_events_total = %d, want the 2 events written before it", v)
	}
}

func TestReadJournalRejectsGarbage(t *testing.T) {
	_, err := ReadJournal(strings.NewReader("{\"t\":\"run\"}\nnot json\n"))
	if err == nil || !strings.Contains(err.Error(), "line 2") {
		t.Errorf("want line-2 parse error, got %v", err)
	}
}

func TestReadJournalSkipsBlankLines(t *testing.T) {
	evs, err := ReadJournal(strings.NewReader("\n{\"seq\":1,\"t\":\"run\",\"off\":0}\n\n"))
	if err != nil || len(evs) != 1 {
		t.Errorf("got %d events, err %v; want 1, nil", len(evs), err)
	}
}

func ExampleJournal() {
	var buf bytes.Buffer
	j := NewJournal(&buf, nil)
	j.Emit(TransitionEvent("SWA", "accept", 0))
	_ = j.Close()
	evs, _ := ReadJournal(&buf)
	fmt.Println(len(evs), evs[0].T, evs[0].Op, evs[1].T)
	// Output: 2 transition SWA summary
}

var _ io.Writer = (*blockedWriter)(nil)
