package share

import (
	"container/list"
	"sync"

	"etlopt/internal/data"
	"etlopt/internal/obs"
)

// CacheStats is the cache's cumulative accounting. Counts and bytes obey
// two integrity invariants that etlvet obs audits from the journal: hits
// never exceed lookups, and bytes freed by eviction never exceed bytes
// admitted.
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

// entry is one cached intermediate. An entry is resident (rows != nil),
// spilled (rows == nil, path != ""), or both after a spill-load re-admits
// it without invalidating the disk copy.
type entry struct {
	key    string
	schema data.Schema
	rows   data.Rows
	bytes  int64
	path   string
	elem   *list.Element // nil when not resident
}

// flight is one in-progress population; concurrent consumers of the same
// key wait on done instead of recomputing.
type flight struct {
	done  chan struct{}
	rows  data.Rows
	bytes int64
	err   error
}

// cache is the content-addressed intermediate-result store. Budget is in
// estimated bytes: negative means unbounded, zero admits nothing (every
// admission is immediately evicted — and spilled, when a spill directory
// is configured — which keeps the recompute path honest under test).
type cache struct {
	budget   int64
	spillDir string
	rec      *obs.Recorder // shared_cache_* series are folded from its events

	mu      sync.Mutex
	used    int64
	lru     *list.List // of *entry; front = most recently used
	byKey   map[string]*entry
	flights map[string]*flight
	stats   CacheStats
}

// newCache returns a cache recording its activity through rec, which may
// be nil; every shared_cache_* series is registered from the start.
func newCache(budget int64, spillDir string, rec *obs.Recorder) *cache {
	for _, action := range []string{"lookup", "hit", "miss", "admit", "evict", "spill"} {
		rec.Declare(obs.SharedCacheEvent(action, 0))
	}
	return &cache{
		budget:   budget,
		spillDir: spillDir,
		rec:      rec,
		lru:      list.New(),
		byKey:    make(map[string]*entry),
		flights:  make(map[string]*flight),
	}
}

func (c *cache) emit(action string, bytes int64) {
	c.rec.Emit(obs.SharedCacheEvent(action, bytes))
}

// Stats returns a snapshot of the cache accounting.
func (c *cache) Stats() CacheStats {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.stats
}

// hitLocked books one hit serving the given bytes.
func (c *cache) hitLocked(bytes int64) {
	c.stats.Hits++
	c.stats.HitBytes += bytes
	c.emit("hit", bytes)
}

// GetOrCompute returns the rows cached under key, loading a spilled entry
// from disk or waiting on a concurrent population when possible, and
// invoking compute exactly once otherwise (single flight). The boolean
// reports whether recomputation was avoided. Rows returned to callers are
// shared and must be treated as immutable — the same discipline every
// Recordset.Scan already demands.
func (c *cache) GetOrCompute(key string, schema data.Schema, compute func() (data.Rows, error)) (data.Rows, bool, error) {
	c.mu.Lock()
	c.stats.Lookups++
	c.emit("lookup", 0)

	if e := c.byKey[key]; e != nil && e.rows != nil {
		c.lru.MoveToFront(e.elem)
		rows := e.rows
		c.hitLocked(e.bytes)
		c.mu.Unlock()
		return rows, true, nil
	}

	if f := c.flights[key]; f != nil {
		c.mu.Unlock()
		<-f.done
		if f.err != nil {
			return nil, false, f.err
		}
		c.mu.Lock()
		c.hitLocked(f.bytes)
		c.mu.Unlock()
		return f.rows, true, nil
	}

	f := &flight{done: make(chan struct{})}
	c.flights[key] = f
	spillPath := ""
	if e := c.byKey[key]; e != nil && e.path != "" {
		spillPath = e.path
	} else {
		c.stats.Misses++
		c.emit("miss", 0)
	}
	c.mu.Unlock()

	var rows data.Rows
	var err error
	fromDisk := spillPath != ""
	if fromDisk {
		rows, err = readSpill(spillPath, schema)
	} else {
		rows, err = compute()
	}

	c.mu.Lock()
	delete(c.flights, key)
	if err != nil {
		c.mu.Unlock()
		f.err = err
		close(f.done)
		return nil, false, err
	}
	bytes := rowsBytes(rows)
	if fromDisk {
		c.stats.SpillLoads++
		c.hitLocked(bytes)
	}
	c.admitLocked(key, schema, rows, bytes)
	c.mu.Unlock()
	f.rows, f.bytes = rows, bytes
	close(f.done)
	return rows, fromDisk, nil
}

// admitLocked inserts the entry and enforces the byte budget by evicting
// from the LRU tail; an entry larger than the whole budget is evicted
// immediately after admission, so the accounting still records the
// admission and the eviction (and the spill, when configured).
func (c *cache) admitLocked(key string, schema data.Schema, rows data.Rows, bytes int64) {
	e := &entry{key: key, schema: schema, rows: rows, bytes: bytes}
	if old := c.byKey[key]; old != nil {
		if old.elem != nil {
			c.lru.Remove(old.elem)
			c.used -= old.bytes
		}
		// Keep a previous spill file so a re-admitted entry can be
		// evicted again without rewriting it: the contents are immutable
		// by construction (content-addressed key).
		e.path = old.path
	}
	c.byKey[key] = e
	e.elem = c.lru.PushFront(e)
	c.used += bytes
	c.stats.Admissions++
	c.stats.AdmittedBytes += bytes
	c.emit("admit", bytes)

	if c.budget < 0 {
		return
	}
	for c.used > c.budget && c.lru.Len() > 0 {
		tail := c.lru.Back()
		c.evictLocked(tail.Value.(*entry))
	}
}

// evictLocked removes an entry from residency, spilling it to disk first
// when a spill directory is configured. Spilled entries stay addressable
// (rows nil, path set); without spill the entry is forgotten entirely.
func (c *cache) evictLocked(e *entry) {
	c.lru.Remove(e.elem)
	e.elem = nil
	c.used -= e.bytes
	c.stats.Evictions++
	c.stats.EvictedBytes += e.bytes
	c.emit("evict", e.bytes)

	if c.spillDir != "" && e.path == "" {
		path, err := writeSpill(c.spillDir, e.key, e.schema, e.rows)
		if err == nil {
			e.path = path
			c.stats.Spills++
			c.stats.SpilledBytes += e.bytes
			c.emit("spill", e.bytes)
		}
		// A failed spill is not fatal: the entry just falls out of the
		// cache and consumers recompute, which is always correct.
	}
	e.rows = nil
	if e.path == "" {
		delete(c.byKey, e.key)
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
