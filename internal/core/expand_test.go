package core

import (
	"context"
	"crypto/sha256"
	"fmt"
	"math"
	"runtime"
	"strings"
	"testing"

	"etlopt/internal/cost"
	"etlopt/internal/generator"
	"etlopt/internal/transitions"
	"etlopt/internal/workflow"
)

// fullCloneReference holds the answers of the full-clone arm — the expander
// that paid a flat Graph.Clone per successor, re-rendered every signature,
// re-costed every activity and used no cache — recorded at commit cc8f498,
// the last one that carried it, identically at Workers 1 and 4. Small
// scenarios are seeds 4200–4204, medium 4205–4207 (HS variants only, to keep
// the exhaustive runs cheap); every search ran with IncrementalCost and
// MaxStates 2500.
var fullCloneReference = []struct {
	seed               int64
	algo               string
	visited, generated int
	bestCost           float64
	bestSigSHA256      string
}{
	{0, "ES", 2042, 2500, 266130.2104076702, "8299f4dd1a9fbccf35d2fef7cd1d6698c0feaa16f8572c6f9b71d161f79f1fe1"},
	{0, "HS", 2784, 2871, 257821.47162184032, "b9b90b5f45502998ae84e0950d57b95b2f9c1b16cfff7efcfb78dddd496e2ede"},
	{0, "HS-Greedy", 656, 656, 378583.17702485266, "57b6c540f0fe433941febe3c4ffa2f62153577e60dd6d82503bc49b2e7167ef7"},
	{1, "ES", 1958, 2500, 1.26539846158981e+06, "653736bb3a717fbf80850c60d5cb74840b435a13c1e3b3fb4506b603c336d6e3"},
	{1, "HS", 2451, 2552, 1.26539846158981e+06, "653736bb3a717fbf80850c60d5cb74840b435a13c1e3b3fb4506b603c336d6e3"},
	{1, "HS-Greedy", 293, 293, 1.2807042339192799e+06, "f7772941534d92a4d677042d5fb91dd5af80e3051d0c8af1f0e1cb8337f2ed15"},
	{2, "ES", 1963, 2500, 452354.27403131936, "113a4497d30d53df731a4d3f4238db15e8c9b5149b67035c8d97bcbfd73de59e"},
	{2, "HS", 2804, 2830, 428228.90005858353, "2016637e0efbf3e6af79866b57c08ca4d5262dac65dcd108ac091eea00466a8a"},
	{2, "HS-Greedy", 369, 369, 508247.53031841037, "1c59aaf0dd12175a3c0c4bc7531bcdcc7b4f661b59a312cdd45bd154181871aa"},
	{3, "ES", 1929, 2500, 767087.6207790542, "e64768b4d3e4da08b0310a34b2544cd19a4aa34392f49b961b57fca77069d97e"},
	{3, "HS", 2568, 2600, 746224.3392310875, "5f675e282c074d793bc8995dc15c995c4288a0aa744451d8ad2dc8404e7ee273"},
	{3, "HS-Greedy", 252, 252, 795687.2687744712, "d6a9b987d5c944eefb038c14cc7042ccc2032314f338281eb31dba51ff125b55"},
	{4, "ES", 1832, 2500, 196851.60875819743, "2560b64873d13aeaa00d0160d1cd8bca47fd2c8a392b5717aaf9767c33b2ea39"},
	{4, "HS", 2351, 2777, 196851.60875819752, "781a634c3a901a5c397fbaec5a96a2de206e967f742739bb63aad636cf93c430"},
	{4, "HS-Greedy", 179, 179, 340636.0365453236, "d87fd915b4a87e30589dda7aaf9b0860d0b799a960f7417eeed168840213c476"},
	{5, "HS", 2318, 2500, 1.6483272967030788e+06, "3a4c452e3daef4e8d154892cdfbf85a411c6a76a92b428febf06b1e04dc31375"},
	{5, "HS-Greedy", 1097, 1097, 3.60258734754659e+06, "09de6651780f0d2e0e9c044253fd702756afabbb03dd20eab5b6dbe50f0517d6"},
	{6, "HS", 2645, 2673, 3.8615425216280213e+06, "3c52fb746e8d39b4ebee540c967ffe0e89d5fc16dc1f8f08988f2104fc4dbdb2"},
	{6, "HS-Greedy", 454, 454, 4.961573821261208e+06, "9cc5d43dc7592c79a10180d1865a7785675e03ce02e7070db2508ab774b3f113"},
	{7, "HS", 2495, 2516, 5.604654185036489e+06, "dfa755141553ec188b6f7c1c20f3756bbbe8c7be71a727522e744990d1151915"},
	{7, "HS-Greedy", 331, 331, 7.227567902326668e+06, "cebe115ffc67695e7317128c51838bbceccb5b207a1912db8efe30fcc5b95849"},
}

// TestIncrementalExpandEquivalence is the correctness contract of the
// whole incremental-expansion machinery (COW successors, cost memo,
// signature splicing + interning, dedupe before derive): for every
// algorithm, a spread of scenarios and Workers ∈ {1, 4}, the search must
// reproduce the frozen full-clone arm's search statistics, best cost and
// best signature, and its best cost must equal a from-scratch re-costing
// of the best state under the un-memoised model.
func TestIncrementalExpandEquivalence(t *testing.T) {
	ctx := context.Background()
	algos := map[string]func(context.Context, *workflow.Graph, Options) (*Result, error){
		"ES":        Exhaustive,
		"HS":        Heuristic,
		"HS-Greedy": HSGreedy,
	}
	for _, ref := range fullCloneReference {
		cat := generator.Small
		if ref.seed >= 5 {
			cat = generator.Medium
		}
		sc, err := generator.Generate(generator.CategoryConfig(cat, 4200+ref.seed))
		if err != nil {
			t.Fatal(err)
		}
		for _, workers := range []int{1, 4} {
			res, err := algos[ref.algo](ctx, sc.Graph, Options{IncrementalCost: true, MaxStates: 2500, Workers: workers})
			if err != nil {
				t.Fatalf("seed %d %s workers=%d: %v", ref.seed, ref.algo, workers, err)
			}
			if res.Visited != ref.visited || res.Generated != ref.generated {
				t.Errorf("seed %d %s workers=%d: stats (%d,%d), full-clone arm had (%d,%d)",
					ref.seed, ref.algo, workers, res.Visited, res.Generated, ref.visited, ref.generated)
			}
			if math.Abs(res.BestCost-ref.bestCost) > 1e-9*ref.bestCost {
				t.Errorf("seed %d %s workers=%d: BestCost %v, full-clone arm had %v",
					ref.seed, ref.algo, workers, res.BestCost, ref.bestCost)
			}
			if got := fmt.Sprintf("%x", sha256.Sum256([]byte(res.Best.Signature()))); got != ref.bestSigSHA256 {
				t.Errorf("seed %d %s workers=%d: best signature %s hashes to %s, full-clone arm had %s",
					ref.seed, ref.algo, workers, res.Best.Signature(), got, ref.bestSigSHA256)
			}
			scratch, err := cost.Evaluate(res.Best, cost.RowModel{})
			if err != nil {
				t.Fatal(err)
			}
			if scratch.Total != res.BestCost {
				t.Errorf("seed %d %s workers=%d: BestCost %v, from-scratch re-costing gives %v",
					ref.seed, ref.algo, workers, res.BestCost, scratch.Total)
			}
		}
	}
}

// frozenSequence holds the search sequence of the benchmark's optimizer
// workloads, recorded at commit 383c14e — before the successor path was
// made to derive only what it keeps — identically at Workers 1 and 4:
// the four search-deep workflows (generator.Suite of 2 medium and 2 large
// at seed 20050405, HS) and the window-wide workflow (the large generator
// workflow at that seed, HS-Greedy), all with IncrementalCost and
// MaxStates 1000. bestCostBits is math.Float64bits(BestCost); admitSHA256
// hashes every signature passed to search.admit, newline-terminated, in
// admission order.
var frozenSequence = []struct {
	name               string
	generated, visited int
	bestCostBits       uint64
	bestSigSHA256      string
	admitSHA256        string
}{
	{"medium-1", 1294, 1280, 0x415a983bdb924fc6, "5fd6122c47f0e2643e328ce0043635131c53a81da114e532e93d9d858ac4a9ab", "b414dc79f91ea6bac329020cd236410d52b5e23b2d62064537e6ed8a28bbae11"},
	{"medium-2", 1214, 1203, 0x415640122cefaeee, "cec59d34b31f64d72f03e269c52f44830d4258b856ae6b89b084961a13787b7b", "fe33cf928275eb9a45bd552c2785f6e6a028b1d15a2bae5e27e81d33d57e3b61"},
	{"large-1", 1216, 1203, 0x416a5514fac079a9, "cd921983269c9354febf603eb7ed4ccaf005894d0fbc390aee0baab56b46df3f", "26b0dd3c205237fb1e3894835a1b13f24269745fb99d76b12de49f62e35d4bea"},
	{"large-2", 1217, 1202, 0x4164cd7726646e32, "2eab42a12684465bec5f11d54d63713c9214300ce3d08966a9db35c36b83c5ad", "6fa87af32f9b83bd09fcab55a6094096516d91f03ba7ddb67b861a3332dfe632"},
	{"wide", 1007, 1007, 0x4161c6d4a81c70cf, "a7ec42633cc68380cab282e29581c5542084b11c5658bfc19c5cc109a3c589b9", "4d52e06eb5670d0eebc142d1a8c25cc118f1cd74c7ebf6c9825713743810ddfc"},
	// ES on three of the same workflows, recorded at commit b0b57fb — while
	// ES still costed successors speculatively at Workers > 1 and lazily at
	// 1 — identically at Workers 1 and 4. None of the three spaces closes
	// within the budget.
	{"medium-1/ES", 1000, 925, 0x41585539c710518e, "d0b798306a67d7d8c64569769de7fd13a47869d30f3783e79cd03ed9ed6e4505", "8b4f7760d8d80b4b023f0e3010ca7259900e84dcd2a3a2118a95851115430f76"},
	{"medium-2/ES", 1000, 954, 0x41347de3dbdde20e, "dc1585a5f7dc26f42582cbf71121b7947906d7b1fdb8094a61c592736a0957f1", "517028e8cb2a15085e6ae462baeb06e718d9a99645e6f7f61e2c2f90b407890f"},
	{"large-1/ES", 1000, 979, 0x415bab675c8dfb29, "6fb548353350576dcd5c49f2f80be7f417eaee79c8e549ecfda0d9153455d19a", "79da13112d668a5f8d00bb8e3d3bdf24713371421798e525c7e2640049b0258b"},
}

// TestFrozenSearchSequence pins that the search still visits the same
// states in the same order as it did before its per-state cost was cut:
// counts, the best cost bit for bit, the best signature and the whole
// admission log, at Workers 1 and 4. A row named "<workflow>/ES" runs ES,
// which must stop on its budget.
func TestFrozenSearchSequence(t *testing.T) {
	medium, err := generator.Suite(generator.Medium, 2, 20050405)
	if err != nil {
		t.Fatal(err)
	}
	large, err := generator.Suite(generator.Large, 2, 20050405)
	if err != nil {
		t.Fatal(err)
	}
	wide, err := generator.Generate(generator.CategoryConfig(generator.Large, 20050405))
	if err != nil {
		t.Fatal(err)
	}
	graphs := map[string]*workflow.Graph{
		"medium-1": medium[0].Graph, "medium-2": medium[1].Graph,
		"large-1": large[0].Graph, "large-2": large[1].Graph,
		"wide": wide.Graph,
	}
	for _, ref := range frozenSequence {
		name, es := strings.CutSuffix(ref.name, "/ES")
		for _, workers := range []int{1, 4} {
			s := newSearch(context.Background(), Options{IncrementalCost: true, MaxStates: 1000, Workers: workers}.withDefaults())
			log := sha256.New()
			s.admitLog = log
			var res *Result
			var err error
			switch {
			case es:
				res, err = s.exhaustive(graphs[name])
			case name == "wide":
				res, err = s.heuristic("HS-Greedy", graphs[name], true)
			default:
				res, err = s.heuristic("HS", graphs[name], false)
			}
			if err != nil {
				t.Fatalf("%s workers=%d: %v", ref.name, workers, err)
			}
			if es && res.Terminated {
				t.Errorf("%s workers=%d: ES closed the space within the budget", ref.name, workers)
			}
			if res.Generated != ref.generated || res.Visited != ref.visited {
				t.Errorf("%s workers=%d: generated/visited (%d,%d), recorded (%d,%d)",
					ref.name, workers, res.Generated, res.Visited, ref.generated, ref.visited)
			}
			if got := math.Float64bits(res.BestCost); got != ref.bestCostBits {
				t.Errorf("%s workers=%d: BestCost %v (%#x), recorded %#x",
					ref.name, workers, res.BestCost, got, ref.bestCostBits)
			}
			if got := fmt.Sprintf("%x", sha256.Sum256([]byte(res.Best.Signature()))); got != ref.bestSigSHA256 {
				t.Errorf("%s workers=%d: best signature hashes to %s, recorded %s", ref.name, workers, got, ref.bestSigSHA256)
			}
			if got := fmt.Sprintf("%x", log.Sum(nil)); got != ref.admitSHA256 {
				t.Errorf("%s workers=%d: admission log hashes to %s, recorded %s", ref.name, workers, got, ref.admitSHA256)
			}
		}
	}
}

// TestSwapSignaturesSpliced pins that HS-Greedy on the window-wide
// workflow splices every swap's signature. After Phase III, DIS clones
// share their origin's tag across branches, so many swap segments occur
// more than once; the group's tags place them. Full renders are counted
// under `-tags etldebug`, where every splice is also audited against one.
func TestSwapSignaturesSpliced(t *testing.T) {
	if !workflow.DebugCOW {
		t.Skip("full renders are counted under -tags etldebug")
	}
	wide, err := generator.Generate(generator.CategoryConfig(generator.Large, 20050405))
	if err != nil {
		t.Fatal(err)
	}
	s := newSearch(context.Background(), Options{IncrementalCost: true, MaxStates: 1000, Workers: 2}.withDefaults())
	if _, err := s.heuristic("HS-Greedy", wide.Graph, true); err != nil {
		t.Fatal(err)
	}
	if n := s.rendered.Load(); n != 0 {
		t.Errorf("%d swap signatures rendered in full, want 0", n)
	}
}

// TestSearchAllocations pins the per-state constants of the successor path
// on the large generator workflow: a copy-on-write child, an uncached
// topological sort, a swap, the schema regeneration and the
// semi-incremental costing after it, and a swap attempt that leads to a
// signature its group has already seen.
func TestSearchAllocations(t *testing.T) {
	sc, err := generator.Generate(generator.CategoryConfig(generator.Large, 20050405))
	if err != nil {
		t.Fatal(err)
	}
	g := sc.Graph
	s := newSearch(context.Background(), Options{IncrementalCost: true}.withDefaults())
	s0, err := s.initialState(g)
	if err != nil {
		t.Fatal(err)
	}

	// The child copies one node table and takes two epoch tags in one
	// allocation; edge lists stay on the shared nodes. (The audit renders
	// the parent's signature on every Mutate.)
	const runs = 50
	if n := testing.AllocsPerRun(runs, func() { g.Mutate() }); n > 3 && !workflow.DebugCOW {
		t.Errorf("Mutate allocates %v times, want at most 3 (graph, node table, epoch tags)", n)
	}

	// Rewired children whose inherited order is gone, one per call
	// (AllocsPerRun makes one warm-up call).
	a := g.Activities()[0]
	p := g.Providers(a)[0]
	stale := make([]*workflow.Graph, runs+1)
	for i := range stale {
		stale[i] = g.Mutate()
		stale[i].MustReplaceProvider(a, p, p)
	}
	n := testing.AllocsPerRun(runs, func() {
		if _, err := stale[0].TopoSort(); err != nil {
			t.Fatal(err)
		}
		stale = stale[1:]
	})
	if n > 1 {
		t.Errorf("TopoSort allocates %v times, want at most 1 (the order)", n)
	}

	// The first legal swap of a local group, through the group search's own
	// successor function: the first attempt derives the child, the second
	// finds its signature in seen.
	var pair [2]workflow.NodeID
	var child *transitions.Result
	var job *groupJob
	seen := map[string]bool{s0.sig: true}
	for _, grp := range g.LocalGroups() {
		for i := 0; i+1 < len(grp) && child == nil; i++ {
			job = s.newGroupJob(s0, grp)
			pair = [2]workflow.NodeID{grp[i], grp[i+1]}
			child, _ = job.swapUnseen(s0, pair, seen)
		}
	}
	if child == nil {
		t.Fatal("no legal swap on the large workflow")
	}
	// The child keeps no order, so this sorts it too, into a stack buffer.
	// A swap keeps the nodes of its flat parent, so the costing is an
	// overlay holding what the swap changed.
	n = testing.AllocsPerRun(runs, func() {
		if _, err := cost.EvaluateIncremental(s0.costing, child.Graph, s.model, child.Dirty); err != nil {
			t.Fatal(err)
		}
	})
	if len(child.Dirty) != 2 || n > 2 {
		t.Errorf("EvaluateIncremental with %d dirty nodes allocates %v times, want at most 2 for 2 (the overlay and its figures)", len(child.Dirty), n)
	}
	// Regeneration walks the dirty nodes' cone with its marks on the stack:
	// it allocates the recomputed nodes' input lists and schemas and the
	// list of them, and no order and no set of the dirty nodes.
	n = testing.AllocsPerRun(runs, func() {
		if _, err := child.Graph.RegenerateSchemataIncremental(child.Dirty); err != nil {
			t.Fatal(err)
		}
	})
	if n > 8 {
		t.Errorf("RegenerateSchemataIncremental after a swap allocates %v times, want at most 8", n)
	}

	if workflow.DebugCOW {
		return // the audits render signatures and regenerate whole clones
	}
	// The successor state: the semi-incremental costing, the state and the
	// one cell its derivation path grows by; no step is rendered.
	sig := s.signatureOf(s0, child)
	n = testing.AllocsPerRun(runs, func() {
		if _, err := s.makeState(s0, child, sig); err != nil {
			t.Fatal(err)
		}
	})
	if n > 4 {
		t.Errorf("makeState allocates %v times, want at most 4", n)
	}
	// The swap itself: the child, four node copies, the rewired lists, the
	// regenerated schemas and the Result; no description is rendered.
	n = testing.AllocsPerRun(runs, func() {
		if _, err := transitions.Swap(s0.g, pair[0], pair[1]); err != nil {
			t.Fatal(err)
		}
	})
	if n > 22 {
		t.Errorf("Swap allocates %v times, want at most 22", n)
	}
	// The signature is spliced into the job's buffer and probed there;
	// deriving a Graph takes dozens.
	n = testing.AllocsPerRun(runs, func() {
		if res, _ := job.swapUnseen(s0, pair, seen); res != nil {
			t.Fatal("a seen signature was derived again")
		}
	})
	if n != 0 {
		t.Errorf("a duplicate swap attempt allocates %v times, want 0 (no Graph, no segment, no string)", n)
	}
}

// TestSearchBytesPerState pins what HS allocates per generated state on
// the search-deep workflows at 1 000 states and one worker: a duplicate
// swap allocates nothing, and a swap's costing holds only the nodes whose
// figures it changed. The searches must generate and visit as many states
// as before those cuts. The figure read 4 445 B before them.
func TestSearchBytesPerState(t *testing.T) {
	if workflow.DebugCOW {
		t.Skip("the audits render signatures and regenerate whole clones")
	}
	graphs := searchDeepGraphs(t)
	opts := Options{IncrementalCost: true, MaxStates: 1000, Workers: 1}
	search := func() (generated, visited int) {
		for _, g := range graphs {
			res, err := Heuristic(context.Background(), g, opts)
			if err != nil {
				t.Fatal(err)
			}
			generated += res.Generated
			visited += res.Visited
		}
		return generated, visited
	}
	search() // the first search regenerates each workflow's schemata
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	generated, visited := search()
	runtime.ReadMemStats(&after)
	if generated != 4941 || visited != 4888 {
		t.Errorf("generated/visited %d/%d, want 4941/4888", generated, visited)
	}
	perState := float64(after.TotalAlloc-before.TotalAlloc) / float64(generated)
	t.Logf("%.0f B per generated state", perState)
	if perState > 3600 {
		t.Errorf("HS allocates %.0f B per generated state, want at most 3600", perState)
	}
}
