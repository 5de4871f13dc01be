package share

import (
	"context"
	"fmt"
	"os"

	"etlopt/internal/data"
	"etlopt/internal/obs"
)

// CacheStats is the suite's accounting of its shared intermediates. Counts
// and bytes obey two integrity invariants that etlvet obs audits from the
// journal: hits never exceed lookups, and bytes freed by eviction never
// exceed bytes admitted.
type CacheStats struct {
	Lookups    int64 `json:"lookups"`
	Hits       int64 `json:"hits"`
	Misses     int64 `json:"misses"`
	Admissions int64 `json:"admissions"`
	Evictions  int64 `json:"evictions"`
	Spills     int64 `json:"spills"`
	SpillLoads int64 `json:"spill_loads"`
	// SpillFailures counts failed spill writes: stages resident over budget.
	SpillFailures int64 `json:"spill_failures"`
	// HitBytes is the recomputation saved: bytes served from the cache
	// (memory, disk, or a spill write in progress) instead of recomputed.
	HitBytes      int64 `json:"hit_bytes"`
	AdmittedBytes int64 `json:"admitted_bytes"`
	EvictedBytes  int64 `json:"evicted_bytes"`
	SpilledBytes  int64 `json:"spilled_bytes"`
}

// slot is a stage's intermediate during one suite run. The producer run
// fills it once and then closes done; the runner's mutex guards the rest.
// A filled slot is resident (rows), spilled (path) or failed (err, pinned
// for the suite's lifetime).
type slot struct {
	done  chan struct{}
	rows  data.Rows
	bytes int64
	path  string
	err   error
	// readers counts the reads left, one per run that restores the stage: a
	// member's run or a producer's. The last releases the rows and removes
	// the spill file.
	readers int
	// flight is the spill write or spill load in progress: readers that
	// arrive wait on a load instead of repeating it, and take the rows being
	// written from memory.
	flight *flight
}

type flight struct {
	done  chan struct{}
	rows  data.Rows
	bytes int64
	err   error
}

func (r *runner) emit(action string, bytes int64) {
	r.rec.Emit(obs.SharedCacheEvent(action, bytes))
}

// produce fills st's slot by its producer run, a lookup, a miss and an
// admission, and closes done; rows admit sends to disk are spilled after
// the close. A stage one of whose dependencies failed (err) does not run,
// and fails with that error.
func (r *runner) produce(ctx context.Context, st *stage, err error) {
	r.mu.Lock()
	r.stats.Lookups++
	r.emit("lookup", 0)
	r.stats.Misses++
	r.emit("miss", 0)
	r.mu.Unlock()
	f := &flight{done: st.done, err: err}
	if err == nil {
		_, f.rows, f.err = r.run(ctx, st.pw, st.need, st.id)
		f.bytes = rowsBytes(f.rows)
	}
	if r.admit(st, f) {
		r.spill(st, f)
	}
}

// admit books f's outcome for st and closes f.done. A failure is pinned.
// Rows stay resident if they fit beside the resident stages (any budget < 0
// fits); otherwise admit reports that they are to be spilled, and f stays
// st's flight until spill ends. A resident stage is never evicted for a
// newcomer. Under a finite budget it is copied into chunks of its own, so
// a record kept does not pin a chunk of its input the budget never charged.
func (r *runner) admit(st *stage, f *flight) bool {
	r.mu.Lock()
	defer r.mu.Unlock()
	defer close(f.done)
	if f.err != nil {
		st.err = fmt.Errorf("share: stage %d: %w", st.class, f.err)
		return false
	}
	r.stats.Admissions++
	r.stats.AdmittedBytes += f.bytes
	r.emit("admit", f.bytes)
	if budget := r.opts.CacheBytes; budget < 0 || r.used+f.bytes <= budget {
		if st.rows, st.bytes = f.rows, f.bytes; budget >= 0 {
			st.rows = f.rows.Clone()
		}
		r.used += f.bytes
		return false
	}
	st.flight = f
	return true
}

// spill writes f's rows to st's spill file and ends f: the stage is evicted
// once its file is written. A failed write is not fatal: the rows stay
// resident over the budget. A file whose reads were all taken during the
// write is removed at once.
func (r *runner) spill(st *stage, f *flight) {
	path, err := writeSpill(r.spillDir, st.class, st.schema, f.rows)
	r.mu.Lock()
	st.flight = nil
	if err == nil {
		st.path = path
		r.stats.Evictions++
		r.stats.EvictedBytes += f.bytes
		r.emit("evict", f.bytes)
		r.stats.Spills++
		r.stats.SpilledBytes += f.bytes
		r.emit("spill", f.bytes)
	} else {
		r.stats.SpillFailures++
		st.rows, st.bytes = f.rows, f.bytes
		r.used += f.bytes
	}
	release := r.releaseLocked(st)
	r.mu.Unlock()
	remove(release)
}

// read returns st's rows to a run that restores it, after done, and takes
// one of st's readers: a hit and no admission, whether the rows are
// resident, being spilled or loaded back. The first reader of a spilled
// stage loads it on a flight that the others wait on, and a failed load is
// pinned. A stage with neither flight nor file is resident, even if its
// rows are nil. Rows returned are shared and must be treated as immutable —
// the same discipline every Recordset.Scan already demands.
func (r *runner) read(st *stage) (data.Rows, error) {
	release := ""
	defer func() { remove(release) }()
	r.mu.Lock()
	defer r.mu.Unlock()
	if st.err != nil {
		return nil, st.err
	}
	r.stats.Lookups++
	r.emit("lookup", 0)
	f := st.flight
	switch {
	case f != nil:
		r.mu.Unlock()
		<-f.done
		r.mu.Lock()
	case st.path == "":
		f = &flight{rows: st.rows, bytes: st.bytes}
	default:
		f = &flight{done: make(chan struct{})}
		st.flight = f
		path := st.path
		r.mu.Unlock()
		f.rows, f.err = readSpill(path, st.schema)
		f.bytes = rowsBytes(f.rows)
		r.mu.Lock()
		st.flight = nil
		if f.err != nil {
			st.err = fmt.Errorf("share: stage %d: %w", st.class, f.err)
		} else {
			r.stats.SpillLoads++
		}
		close(f.done)
	}
	if f.err != nil {
		return nil, st.err
	}
	r.stats.Hits++
	r.stats.HitBytes += f.bytes
	r.emit("hit", f.bytes)
	st.readers--
	release = r.releaseLocked(st)
	return f.rows, nil
}

// releaseLocked releases st's rows and returns its spill file for remove,
// once no read is left and no flight needs them; else "".
func (r *runner) releaseLocked(st *stage) (path string) {
	if st.readers == 0 && st.flight == nil {
		r.used -= st.bytes
		path, st.rows, st.bytes, st.path = st.path, nil, 0, ""
	}
	return path
}

// remove removes a released spill file after the unlock: no file I/O
// under the lock. One left goes with RunSuite's directory.
func remove(path string) {
	if path != "" {
		_ = os.Remove(path)
	}
}

// rowsBytes estimates the in-memory footprint of rows: slice headers plus
// per-value storage, with string payloads counted by length. The estimate
// is deterministic, which keeps cache behavior reproducible for a given
// suite, budget and worker count.
func rowsBytes(rows data.Rows) int64 {
	b := int64(0)
	for _, rec := range rows {
		b += 24
		for _, v := range rec {
			b += 16
			if v.Kind() == data.KindString {
				b += int64(len(v.Str()))
			}
		}
	}
	return b
}
