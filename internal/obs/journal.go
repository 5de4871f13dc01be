package obs

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"sync/atomic"
	"time"
)

// This file is the flight recorder: a bounded, lock-cheap structured run
// journal. Instrumented code records typed Events through a Recorder
// (recorder.go), which folds each into the registry and then emits it
// here; a single writer goroutine drains them to an io.Writer as JSONL
// (one JSON object per line), so the hot path pays one atomic sequence
// bump, one clock read and one non-blocking channel send per event — no
// marshalling, no I/O, no mutex.
//
// The journal is explicitly lossy under pressure: when the channel buffer
// is full the event is dropped and counted, never blocked on. Write
// failures (disk full, closed file) are likewise counted and never
// propagate into the instrumented computation — the run completes and the
// drop/error accounting lands both in the trailing summary event and, when
// a Registry is attached, in the journal_events_dropped_total and
// journal_errors_total counters.
//
// Like every other obs instrument, a nil *Journal no-ops on every method,
// so callers hold the handle unconditionally; and collection is
// write-only, so results are bit-identical with the journal on or off.

// Event type names, as serialized in the Event.T field.
const (
	// EventRun marks a run boundary: Action is "start" or "end", Detail
	// names the tool and algorithm or execution mode.
	EventRun = "run"
	// EventPhase marks a search or engine phase boundary: Op is the phase
	// name, Action is "start" or "end".
	EventPhase = "phase"
	// EventTransition is one optimizer transition: Op is the mnemonic
	// (SWA, FAC, DIS, MER, SPL), Action is "attempt", "accept", "prune"
	// (rejected as a duplicate by the visited set) or "best" (a new
	// minimum, Cost carries the new best cost). An "attempt" with Rows set
	// stands for that many attempts, recorded together.
	EventTransition = "transition"
	// EventCache is one lookup in a named cache: Op names the cache, Action
	// is "hit" or "miss" (the shared-work cache adds its own actions, see
	// SharedCacheEvent).
	EventCache = "cache"
	// EventNode is one executed workflow node: Node identifies it, Rows its
	// output cardinality, Sec its execution seconds (a fused stage's member:
	// its kernel time on the slowest partition).
	EventNode = "node"
	// EventBatch is one partition's share of a node in the parallel
	// engine: Node and Part identify the batch, Rows its output size.
	EventBatch = "batch"
	// EventExchange is one repartition exchange: Node is the key-sensitive
	// activity, Rows the number of rows routed between partitions.
	EventExchange = "exchange"
	// EventCheckpoint is one checkpoint step: Action is "staged" or
	// "restored", Node the checkpointed node, Rows its output size.
	EventCheckpoint = "checkpoint"
	// EventDrift is one observed-vs-modeled selectivity comparison:
	// Node identifies the activity, Observed and Modeled the two values.
	EventDrift = "drift"
	// EventFault is one injected fault firing: Node and Part locate it,
	// Action names the injection site, Detail the kind
	// (transient/permanent).
	EventFault = "fault"
	// EventRetry is one retry of a transiently failed node: Attempt is
	// the upcoming attempt number, Sec the backoff delay before it,
	// Detail the error that caused it.
	EventRetry = "retry"
	// EventResume is one checkpoint-resume hit: the runner skipped
	// recomputing Node because Rows staged rows survived a crash.
	EventResume = "resume"
	// EventSummary is the trailing accounting record Close writes: Events,
	// Dropped and Errors report the journal's own bookkeeping.
	EventSummary = "summary"
)

// Event is one journal record. Events are flat — every type uses the same
// struct with its irrelevant fields zero — so a journal is greppable and a
// consumer needs exactly one decode shape. Off is seconds since the
// journal was opened (journals carry no absolute wall-clock values, like
// snapshots); Seq is a process-wide emission sequence number, so a sort by
// Seq reconstructs emission order even though concurrent emitters may
// interleave arbitrarily in the file. Run is the id of the Recorder that
// emitted the event, unique within its journal (0 for an event emitted
// straight to the journal): the events of one run share it, so Spans can
// keep concurrent runs apart.
//
// Part is the engine partition index; encoding omits zero values, so a
// batch event without a "part" field is partition 0.
type Event struct {
	Seq      int64   `json:"seq"`
	T        string  `json:"t"`
	Off      float64 `json:"off"`
	Run      int64   `json:"run,omitempty"`
	Op       string  `json:"op,omitempty"`
	Action   string  `json:"action,omitempty"`
	Node     string  `json:"node,omitempty"`
	Part     int     `json:"part,omitempty"`
	Rows     int64   `json:"rows,omitempty"`
	Cost     float64 `json:"cost,omitempty"`
	Sec      float64 `json:"sec,omitempty"`
	Observed float64 `json:"observed,omitempty"`
	Modeled  float64 `json:"modeled,omitempty"`
	Detail   string  `json:"detail,omitempty"`
	Attempt  int     `json:"attempt,omitempty"`
	Events   int64   `json:"events,omitempty"`
	Dropped  int64   `json:"dropped,omitempty"`
	Errors   int64   `json:"errors,omitempty"`
}

// Typed event constructors. They only fill fields; Journal.Emit stamps Seq
// and Off, Recorder.Emit stamps Run.

// RunEvent marks a run boundary ("start"/"end") for the named tool/mode.
func RunEvent(action, detail string) Event {
	return Event{T: EventRun, Action: action, Detail: detail}
}

// PhaseEvent marks a phase boundary ("start"/"end").
func PhaseEvent(name, action string) Event {
	return Event{T: EventPhase, Op: name, Action: action}
}

// TransitionEvent records one optimizer transition of kind op.
func TransitionEvent(op, action string, cost float64) Event {
	return Event{T: EventTransition, Op: op, Action: action, Cost: cost}
}

// CacheEvent records one lookup in the named cache.
func CacheEvent(cache string, hit bool) Event {
	action := "miss"
	if hit {
		action = "hit"
	}
	return Event{T: EventCache, Op: cache, Action: action}
}

// SharedCacheName is the Op under which the shared-work suite scheduler's
// intermediate-result cache journals its activity. Consumers (etlvet obs)
// aggregate these events separately from plain hit/miss caches because
// they carry byte counts and extra actions.
const SharedCacheName = "shared"

// SharedCacheEvent records shared intermediate-result cache activity.
// Action is one of "lookup", "hit", "miss", "admit", "evict" or "spill";
// Rows carries the byte size of the entry involved (0 for lookup/miss,
// where no entry exists yet).
func SharedCacheEvent(action string, bytes int64) Event {
	return Event{T: EventCache, Op: SharedCacheName, Action: action, Rows: bytes}
}

// NodeEvent records one executed node with its output size and duration.
func NodeEvent(node string, rows int, sec float64) Event {
	return Event{T: EventNode, Node: node, Rows: int64(rows), Sec: sec}
}

// BatchEvent records one partition's share of a node's output.
func BatchEvent(node string, part, rows int) Event {
	return Event{T: EventBatch, Node: node, Part: part, Rows: int64(rows)}
}

// ExchangeEvent records rows routed through a repartition exchange.
func ExchangeEvent(node string, rows int) Event {
	return Event{T: EventExchange, Node: node, Rows: int64(rows)}
}

// CheckpointEvent records one checkpoint step ("staged"/"restored").
func CheckpointEvent(node, action string, rows int) Event {
	return Event{T: EventCheckpoint, Node: node, Action: action, Rows: int64(rows)}
}

// DriftEvent records one observed-vs-modeled selectivity pair.
func DriftEvent(node string, observed, modeled float64) Event {
	return Event{T: EventDrift, Node: node, Observed: observed, Modeled: modeled}
}

// FaultEvent records one injected fault: site is the injection point,
// kind "transient" or "permanent".
func FaultEvent(node string, part int, site, kind string) Event {
	return Event{T: EventFault, Node: node, Part: part, Action: site, Detail: kind}
}

// RetryEvent records one retry: attempt is the upcoming attempt number,
// delaySec the backoff before it, detail the error that caused it.
func RetryEvent(node string, attempt int, delaySec float64, detail string) Event {
	return Event{T: EventRetry, Node: node, Attempt: attempt, Sec: delaySec, Detail: detail}
}

// ResumeEvent records a checkpoint-resume hit for node with rows staged
// rows restored instead of recomputed.
func ResumeEvent(node string, rows int) Event {
	return Event{T: EventResume, Node: node, Rows: int64(rows)}
}

// journalChanCap bounds the in-flight event buffer: the journal never
// holds more than this many unwritten events; beyond it, events drop (and
// are counted) rather than block the instrumented code.
const journalChanCap = 8192

// Journal is the flight recorder handle. Emit is safe for concurrent use
// from any goroutine; Close must not race Emit (quiesce the run first —
// the CLIs close after their search/engine call returns). A nil *Journal
// ignores every call.
type Journal struct {
	ch            chan Event
	done          chan struct{}
	start         time.Time
	seq           atomic.Int64
	runs          atomic.Int64 // the last run id handed to a Recorder
	written       atomic.Int64
	dropped       atomic.Int64
	errs          atomic.Int64
	closed        atomic.Bool
	firstWriteErr error // owned by the writer goroutine until done closes

	w     *bufio.Writer
	owned io.Closer // non-nil when the journal opened the file itself

	// Registry mirrors, may be nil: the same accounting as the summary
	// event, for -metrics snapshots.
	cWritten *Counter
	cDropped *Counter
	cErrors  *Counter
}

// NewJournal starts a journal writing JSONL to w. reg, when non-nil,
// receives the journal's accounting as journal_events_total,
// journal_events_dropped_total and journal_errors_total counters; nil
// skips the mirroring. Close the journal to flush.
func NewJournal(w io.Writer, reg *Registry) *Journal {
	j := &Journal{
		ch:    make(chan Event, journalChanCap),
		done:  make(chan struct{}),
		start: now(),
		w:     bufio.NewWriterSize(w, 64<<10),
	}
	if reg != nil {
		j.cWritten = reg.Counter("journal_events_total")
		j.cDropped = reg.Counter("journal_events_dropped_total")
		j.cErrors = reg.Counter("journal_errors_total")
	}
	go j.writeLoop()
	return j
}

// NewJournalFile opens (creating or truncating) path and starts a journal
// on it; Close also closes the file.
func NewJournalFile(path string, reg *Registry) (*Journal, error) {
	f, err := os.Create(path)
	if err != nil {
		return nil, err
	}
	j := NewJournal(f, reg)
	j.owned = f
	return j, nil
}

// Emit records one event: Seq and Off are stamped here, at emission time,
// and the event is handed to the writer without blocking. A full buffer —
// or an Emit after Close — drops the event and counts the drop. Safe for
// concurrent use; a nil journal ignores the call.
func (j *Journal) Emit(e Event) {
	if j == nil {
		return
	}
	if j.closed.Load() {
		j.drop()
		return
	}
	e.Seq = j.seq.Add(1)
	e.Off = now().Sub(j.start).Seconds()
	select {
	case j.ch <- e:
	default:
		j.drop()
	}
}

func (j *Journal) drop() {
	j.dropped.Add(1)
	j.cDropped.Inc()
}

// writeLoop is the single writer goroutine: it marshals and writes events
// until it reads the close sentinel (T == ""). Failures are counted, the
// first one retained for Close to report — never propagated to emitters.
func (j *Journal) writeLoop() {
	defer close(j.done)
	for e := range j.ch {
		if e.T == "" {
			return
		}
		j.writeEvent(e, true)
	}
}

// writeEvent marshals and writes one record. count controls whether a
// success bumps the written-event accounting: true for emitted events,
// false for the summary trailer (which reports on the events, and would
// skew its own numbers if it counted itself).
func (j *Journal) writeEvent(e Event, count bool) {
	b, err := json.Marshal(e)
	if err == nil {
		b = append(b, '\n')
		_, err = j.w.Write(b)
	}
	if err != nil {
		j.errs.Add(1)
		j.cErrors.Inc()
		if j.firstWriteErr == nil {
			j.firstWriteErr = err
		}
		return
	}
	if count {
		j.written.Add(1)
		j.cWritten.Inc()
	}
}

// Dropped returns how many events were dropped (buffer full or emitted
// after Close).
func (j *Journal) Dropped() int64 {
	if j == nil {
		return 0
	}
	return j.dropped.Load()
}

// Errors returns how many events failed to write.
func (j *Journal) Errors() int64 {
	if j == nil {
		return 0
	}
	return j.errs.Load()
}

// Written returns how many events reached the underlying writer.
func (j *Journal) Written() int64 {
	if j == nil {
		return 0
	}
	return j.written.Load()
}

// Close stops the journal: it drains the buffered events, appends the
// summary event (total written, dropped, write errors), flushes, and —
// for NewJournalFile journals — closes the file. The caller quiesces every
// emitter first: an Emit racing Close may leave its event neither written
// nor counted. An Emit after Close is counted as a drop, never a panic.
// Close returns the first write failure, if any occurred, so callers can
// surface a warning;
// the failure is informational — every counted event before it was
// already accepted without blocking the run. Closing twice or closing a
// nil journal is a no-op.
func (j *Journal) Close() error {
	if j == nil || !j.closed.CompareAndSwap(false, true) {
		return nil
	}
	// The sentinel is a zero-T event; writeLoop exits when it sees it.
	// The send blocks until the writer has drained everything before it.
	j.ch <- Event{}
	<-j.done
	j.writeEvent(Event{
		Seq: j.seq.Add(1), T: EventSummary, Off: now().Sub(j.start).Seconds(),
		Events: j.written.Load(), Dropped: j.dropped.Load(), Errors: j.errs.Load(),
	}, false)
	if err := j.w.Flush(); err != nil {
		j.errs.Add(1)
		j.cErrors.Inc()
		if j.firstWriteErr == nil {
			j.firstWriteErr = err
		}
	}
	if j.owned != nil {
		if err := j.owned.Close(); err != nil && j.firstWriteErr == nil {
			j.firstWriteErr = err
		}
	}
	if j.firstWriteErr != nil {
		return fmt.Errorf("obs: journal: %d event(s) lost to write failures, first: %w",
			j.errs.Load(), j.firstWriteErr)
	}
	return nil
}

// ReadJournal parses a JSONL journal back into events, in file order.
// Unparseable lines abort with an error identifying the line number.
func ReadJournal(r io.Reader) ([]Event, error) {
	var out []Event
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64<<10), 1<<20)
	lineNo := 0
	for sc.Scan() {
		lineNo++
		line := sc.Bytes()
		if len(line) == 0 {
			continue
		}
		var e Event
		if err := json.Unmarshal(line, &e); err != nil {
			return nil, fmt.Errorf("obs: journal line %d: %w", lineNo, err)
		}
		out = append(out, e)
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("obs: reading journal: %w", err)
	}
	return out, nil
}

// ReadJournalFile parses a JSONL journal file.
func ReadJournalFile(path string) ([]Event, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return ReadJournal(f)
}
