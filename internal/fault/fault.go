// Package fault is the deterministic fault-injection subsystem: a seeded
// Plan arms typed, reproducible failures at the engine's injection sites
// (node start, per-partition emit, repartition exchange, checkpoint stage
// and restore), and a Policy retries the transient ones with capped,
// deterministically jittered exponential backoff.
//
// Determinism is the point. Every injection decision is a pure function
// of (seed, site, node, partition, occurrence): the plan keeps one
// occurrence counter per (site, node, partition) key, and the k-th check
// of a key fires iff a seeded hash of the key and k falls below the
// plan's rate — no math/rand, no global state, no dependence on goroutine
// scheduling. Because the engine never short-circuits sibling partitions
// (every partition of a node runs its checks even when another partition
// has already failed), the sequence of occurrences each key sees is the
// same in every run, so the whole fault schedule replays exactly from the
// seed alone.
//
// Each key fires at most once (maxPerKey). Failed node
// attempts burn occurrences site level by site level — restore, node
// start, exchange, emit, stage — so with a retry budget larger than the
// number of site levels on a node's path, a transiently faulted run is
// *guaranteed* to converge: the fault cells of proptest.CheckRuns pin
// that any such run is engine.SameRun as the clean one.
package fault

import (
	"fmt"
	"hash/fnv"
	"strconv"
	"strings"
	"sync"
)

// Site names one injection point in the engine.
type Site string

// The engine's injection sites.
const (
	// SiteNodeStart fires before a node's body runs.
	SiteNodeStart Site = "node-start"
	// SiteEmit fires after a node's output is computed but before it is
	// committed — once per partition.
	SiteEmit Site = "emit"
	// SiteExchange fires inside a repartition exchange, per partition.
	SiteExchange Site = "exchange"
	// SiteStage fires before a checkpoint runner persists a node's output.
	SiteStage Site = "checkpoint-stage"
	// SiteRestore fires before a checkpoint runner loads a staged output.
	SiteRestore Site = "checkpoint-restore"
)

// Kind classifies an injected fault for the retry layer.
type Kind uint8

// Fault kinds.
const (
	// Transient faults model recoverable failures (lost connection, busy
	// resource): the retry layer re-runs the node.
	Transient Kind = iota
	// Permanent faults model unrecoverable failures (corrupt input,
	// schema drift): they surface immediately, never retried.
	Permanent
)

// String names the kind as it appears in errors and journal events.
func (k Kind) String() string {
	if k == Permanent {
		return "permanent"
	}
	return "transient"
}

// Injected is the typed error a fired injection point returns. It names
// the site, node and partition that failed, so tests and operators can
// attribute every failure exactly; errors.As through any wrapping
// recovers it.
type Injected struct {
	Site Site
	Node int
	Part int
	Kind Kind
	// Occurrence is the zero-based count of checks this (site, node,
	// partition) key had seen when the fault fired — the replay
	// coordinate of the injection.
	Occurrence int
}

// Error renders the full attribution.
func (e *Injected) Error() string {
	return fmt.Sprintf("fault: injected %s fault at %s (node %d, partition %d, occurrence %d)",
		e.Kind, e.Site, e.Node, e.Part, e.Occurrence)
}

// Transient reports whether the retry layer may re-run the failed node.
func (e *Injected) Transient() bool { return e.Kind == Transient }

// Plan is a seeded, reproducible fault schedule. A nil *Plan no-ops on
// every method, so callers hold the handle unconditionally — the same
// idiom as the obs instruments. Check is safe for concurrent use.
type Plan struct {
	seed  int64
	rate  float64
	kind  Kind
	sites map[Site]bool // nil: every site armed

	mu       sync.Mutex
	occ      map[string]int
	injected int
}

// maxPerKey caps how many faults one (site, node, partition) key may
// fire. The cap is what bounds the retry budget a faulted run needs to
// converge: once a key is exhausted it never fires again.
const maxPerKey = 1

// PlanOption configures a Plan.
type PlanOption func(*Plan)

// WithKind sets the kind of every injected fault (default Transient).
func WithKind(k Kind) PlanOption { return func(p *Plan) { p.kind = k } }

// WithSites arms only the listed sites (default: all).
func WithSites(sites ...Site) PlanOption {
	return func(p *Plan) {
		p.sites = make(map[Site]bool, len(sites))
		for _, s := range sites {
			p.sites[s] = true
		}
	}
}

// NewPlan builds a plan firing faults at the given rate (clamped to
// [0, 1]); the seed makes the schedule reproducible.
func NewPlan(seed int64, rate float64, opts ...PlanOption) *Plan {
	if rate < 0 {
		rate = 0
	}
	if rate > 1 {
		rate = 1
	}
	p := &Plan{seed: seed, rate: rate, occ: make(map[string]int)}
	for _, o := range opts {
		o(p)
	}
	return p
}

// Check consults the plan at one injection point and returns a typed
// *Injected error when the schedule says this occurrence fires, nil
// otherwise. A nil plan or a zero rate never fires.
func (p *Plan) Check(site Site, node, part int) error {
	if p == nil || p.rate <= 0 {
		return nil
	}
	if p.sites != nil && !p.sites[site] {
		return nil
	}
	key := string(site) + "/" + strconv.Itoa(node) + "/" + strconv.Itoa(part)
	p.mu.Lock()
	o := p.occ[key]
	p.occ[key] = o + 1
	fire := o < maxPerKey && p.roll(key, o) < p.rate
	if fire {
		p.injected++
	}
	p.mu.Unlock()
	if !fire {
		return nil
	}
	return &Injected{Site: site, Node: node, Part: part, Kind: p.kind, Occurrence: o}
}

// Injected reports how many faults the plan has fired so far.
func (p *Plan) Injected() int {
	if p == nil {
		return 0
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.injected
}

// roll maps (seed, key, occurrence) to a uniform value in [0, 1) with
// FNV-1a and a splitmix64 finalizer — fixed, platform-independent, and
// independent of every other key's history.
func (p *Plan) roll(key string, occ int) float64 {
	h := fnv.New64a()
	h.Write([]byte(key))
	x := h.Sum64() ^ uint64(p.seed)*0x9e3779b97f4a7c15 ^ (uint64(occ)+1)*0xbf58476d1ce4e5b9
	return unit(splitmix64(x))
}

// ParseSpec parses the CLI fault specification "seed:rate" (e.g.
// "42:0.05") of etlrun -faults.
func ParseSpec(spec string) (seed int64, rate float64, err error) {
	s, r, ok := strings.Cut(spec, ":")
	if !ok {
		return 0, 0, fmt.Errorf("fault: spec %q: want seed:rate (e.g. 42:0.05)", spec)
	}
	seed, err = strconv.ParseInt(strings.TrimSpace(s), 10, 64)
	if err != nil {
		return 0, 0, fmt.Errorf("fault: spec %q: bad seed: %w", spec, err)
	}
	rate, err = strconv.ParseFloat(strings.TrimSpace(r), 64)
	if err != nil {
		return 0, 0, fmt.Errorf("fault: spec %q: bad rate: %w", spec, err)
	}
	if rate < 0 || rate > 1 {
		return 0, 0, fmt.Errorf("fault: spec %q: rate %v outside [0, 1]", spec, rate)
	}
	return seed, rate, nil
}

// splitmix64 is the SplitMix64 finalizer: a fixed bijective mixer whose
// output passes statistical uniformity tests, used here instead of
// math/rand so injection decisions carry no hidden global state.
func splitmix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// unit maps 64 random bits to [0, 1) with 53-bit precision.
func unit(x uint64) float64 { return float64(x>>11) / (1 << 53) }
