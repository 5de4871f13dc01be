package core

import (
	"context"
	"crypto/sha256"
	"fmt"
	"math"
	"testing"

	"etlopt/internal/cost"
	"etlopt/internal/generator"
	"etlopt/internal/workflow"
)

func TestExpandCacheGetPut(t *testing.T) {
	c := newExpandCache(64)
	costing := &cost.Costing{Total: 42}
	if _, ok := c.get("sig", 1); ok {
		t.Fatal("empty cache reported a hit")
	}
	c.put("sig", 1, costing)
	got, ok := c.get("sig", 1)
	if !ok || got != costing {
		t.Fatalf("get after put = (%v, %v), want the stored costing", got, ok)
	}
	// Same signature, different structural fingerprint: must NOT hit —
	// this is the guard against NodeID-relabeled states sharing costings.
	if _, ok := c.get("sig", 2); ok {
		t.Fatal("fingerprint mismatch served a cached costing")
	}
	// Keep-first admission: a second put for the key is ignored.
	other := &cost.Costing{Total: 7}
	c.put("sig", 9, other)
	if got, ok := c.get("sig", 1); !ok || got != costing {
		t.Fatal("second put overwrote the canonical first entry")
	}
}

func TestExpandCacheEviction(t *testing.T) {
	// One entry per stripe: inserting two keys on one stripe evicts the
	// first (FIFO ring of size 1).
	c := newExpandCache(expandShards)
	var onStripe []string
	target := c.stripeFor("probe-0")
	for i := 0; len(onStripe) < 2; i++ {
		k := fmt.Sprintf("probe-%d", i)
		if c.stripeFor(k) == target {
			onStripe = append(onStripe, k)
		}
	}
	c.put(onStripe[0], 1, &cost.Costing{Total: 1})
	c.put(onStripe[1], 2, &cost.Costing{Total: 2})
	if _, ok := c.get(onStripe[0], 1); ok {
		t.Fatal("oldest key survived a full stripe")
	}
	if _, ok := c.get(onStripe[1], 2); !ok {
		t.Fatal("newest key missing after eviction")
	}
	if _, _, ev := c.stats(); ev != 1 {
		t.Fatalf("evictions = %d, want 1", ev)
	}
}

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
// signature splicing + interning, transposition cache): for every
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

// TestExpandCacheDisabled pins that a negative ExpandCacheSize turns the
// transposition cache off without changing results.
func TestExpandCacheDisabled(t *testing.T) {
	sc, err := generator.Generate(generator.CategoryConfig(generator.Small, 77))
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	with, err := Exhaustive(ctx, sc.Graph, Options{IncrementalCost: true, MaxStates: 2000})
	if err != nil {
		t.Fatal(err)
	}
	without, err := Exhaustive(ctx, sc.Graph, Options{IncrementalCost: true, MaxStates: 2000, ExpandCacheSize: -1})
	if err != nil {
		t.Fatal(err)
	}
	if with.BestCost != without.BestCost || with.Best.Signature() != without.Best.Signature() {
		t.Fatalf("transposition cache changed results: %v/%s vs %v/%s",
			with.BestCost, with.Best.Signature(), without.BestCost, without.Best.Signature())
	}
}
