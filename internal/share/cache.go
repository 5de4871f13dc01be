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
	// HitBytes is the recomputation saved: bytes served from the cache
	// (memory, disk, or an in-flight computation) instead of recomputed.
	HitBytes      int64 `json:"hit_bytes"`
	AdmittedBytes int64 `json:"admitted_bytes"`
	EvictedBytes  int64 `json:"evicted_bytes"`
	SpilledBytes  int64 `json:"spilled_bytes"`
}

// slot is a stage's intermediate during one suite run. The producer run
// fills it once and then closes done; the runner's mutex guards the rest.
// A filled slot is resident (rows), spilled (path), dropped (neither) or
// failed (err, pinned for the suite's lifetime: a deterministic fault plan
// is never re-fired by recomputation).
type slot struct {
	done  chan struct{}
	rows  data.Rows
	bytes int64
	path  string
	err   error
	// readers counts the planned reads left, one per run that restores the
	// stage: a member's run or a producer's first run. The last releases
	// the rows and removes the spill file.
	readers int
	// flight is the spill load, recomputation or spill write in progress:
	// readers that arrive wait on it instead of repeating it, and take the
	// rows being written from memory.
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

// hitLocked books one hit serving the given bytes.
func (r *runner) hitLocked(bytes int64) {
	r.stats.Hits++
	r.stats.HitBytes += bytes
	r.emit("hit", bytes)
}

// produce fills st's slot by its producer run, a lookup, a miss and an
// admission, and closes done. A stage one of whose dependencies failed
// (err) does not run, and fails with that error.
func (r *runner) produce(ctx context.Context, st *stage, err error) {
	r.mu.Lock()
	r.stats.Lookups++
	r.emit("lookup", 0)
	r.stats.Misses++
	r.emit("miss", 0)
	r.mu.Unlock()
	f := &flight{done: st.done, err: err}
	if err == nil {
		_, f.rows, f.err = r.run(ctx, st.pw, st.need, st.id, true)
	}
	r.land(st, f)
}

// land books f's outcome for st and closes f.done: a failure (of a run or
// of a spill load) is pinned, computed rows are admitted, and rows admit
// evicts to a spill file are written after the close, while f serves them
// to the readers that arrive.
func (r *runner) land(st *stage, f *flight) {
	if f.err != nil {
		r.mu.Lock()
		st.flight, st.err = nil, fmt.Errorf("share: stage %s: %w", st.key, f.err)
		close(f.done)
		r.mu.Unlock()
	} else if r.admit(st, f) {
		r.spill(st, f)
	}
}

// admit books f's rows as st's intermediate and closes f.done. They stay
// resident if they fit beside the resident stages (any budget < 0 fits);
// otherwise they are evicted at once, and admit reports whether they are
// to be spilled: with a spill directory, f stays st's flight until spill
// ends. A resident stage is never evicted for a newcomer.
func (r *runner) admit(st *stage, f *flight) bool {
	f.bytes = rowsBytes(f.rows)
	r.mu.Lock()
	defer r.mu.Unlock()
	defer close(f.done)
	r.stats.Admissions++
	r.stats.AdmittedBytes += f.bytes
	r.emit("admit", f.bytes)
	st.flight = nil
	if budget := r.opts.CacheBytes; budget < 0 || r.used+f.bytes <= budget {
		st.rows, st.bytes = f.rows, f.bytes
		r.used += f.bytes
		return false
	}
	r.stats.Evictions++
	r.stats.EvictedBytes += f.bytes
	r.emit("evict", f.bytes)
	if r.spillDir != "" {
		st.flight = f
	}
	return st.flight != nil
}

// spill writes f's rows to st's spill file and ends f. A failed write is
// not fatal: the rows are dropped and later readers recompute them, which
// is always correct. A file whose planned reads were all taken during the
// write is removed at once.
func (r *runner) spill(st *stage, f *flight) {
	path, err := writeSpill(r.spillDir, st.key, st.schema, f.rows)
	r.mu.Lock()
	st.flight = nil
	if err == nil {
		st.path = path
		r.stats.Spills++
		r.stats.SpilledBytes += f.bytes
		r.emit("spill", f.bytes)
	}
	release := r.releaseLocked(st)
	r.mu.Unlock()
	remove(release)
}

// read returns st's rows to a run that restores it, after done. Resident
// rows, and rows being spilled, are a hit; a spill load is a hit and no
// admission; anything else is recomputed by st's producer run, a miss and
// then an admission, whose own restores are unplanned reads. A planned
// read takes one of st's readers, an unplanned one none. Rows returned are
// shared and must be treated as immutable — the same discipline every
// Recordset.Scan already demands.
func (r *runner) read(ctx context.Context, st *stage, planned bool) (data.Rows, error) {
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
	case st.rows != nil:
		f = &flight{rows: st.rows}
		r.hitLocked(st.bytes)
	case f == nil:
		f = r.flyLocked(ctx, st)
	default:
		r.mu.Unlock()
		<-f.done
		r.mu.Lock()
		if f.err == nil {
			r.hitLocked(f.bytes)
		}
	}
	if f.err != nil {
		return nil, st.err
	}
	if planned {
		st.readers--
	}
	release = r.releaseLocked(st)
	return f.rows, nil
}

// releaseLocked releases st's rows and returns its spill file for remove,
// once no planned read is left and no flight needs them; else "".
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

// flyLocked loads st's spill file, or recomputes st, on a flight that
// concurrent readers wait on, and pins its failure. It is called, and
// returns, with the lock held.
func (r *runner) flyLocked(ctx context.Context, st *stage) *flight {
	f := &flight{done: make(chan struct{})}
	st.flight = f
	path := st.path
	if path == "" {
		r.stats.Misses++
		r.emit("miss", 0)
	}
	r.mu.Unlock()
	if path == "" {
		_, f.rows, f.err = r.run(ctx, st.pw, st.need, st.id, false)
	} else if f.rows, f.err = readSpill(path, st.schema); f.err == nil {
		f.bytes = rowsBytes(f.rows)
		r.mu.Lock()
		st.flight = nil
		r.stats.SpillLoads++
		r.hitLocked(f.bytes)
		close(f.done)
		return f
	}
	r.land(st, f) // a recomputation's rows, or a failure
	r.mu.Lock()
	return f
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
