package core

import (
	"context"
	"errors"
	"testing"
	"time"
	"unsafe"

	"etlopt/internal/generator"
	"etlopt/internal/workflow"
)

// TestParallelDeterminism is the contract of Options.Workers: for every
// algorithm, a run with 8 workers must produce byte-identical best
// signatures and costs — and identical search statistics — to the fully
// sequential run, across a spread of generated scenarios.
func TestParallelDeterminism(t *testing.T) {
	ctx := context.Background()
	algos := map[string]func(context.Context, *workflow.Graph, Options) (*Result, error){
		"ES":        Exhaustive,
		"HS":        Heuristic,
		"HS-Greedy": HSGreedy,
	}
	for seed := int64(0); seed < 10; seed++ {
		cat := generator.Small
		if seed >= 7 {
			cat = generator.Medium
		}
		sc, err := generator.Generate(generator.CategoryConfig(cat, 9000+seed))
		if err != nil {
			t.Fatal(err)
		}
		for name, algo := range algos {
			if name == "ES" && cat != generator.Small {
				continue // keep the exhaustive runs cheap
			}
			seq, err := algo(ctx, sc.Graph, Options{IncrementalCost: true, MaxStates: 3000, Workers: 1})
			if err != nil {
				t.Fatalf("seed %d %s workers=1: %v", seed, name, err)
			}
			par, err := algo(ctx, sc.Graph, Options{IncrementalCost: true, MaxStates: 3000, Workers: 8})
			if err != nil {
				t.Fatalf("seed %d %s workers=8: %v", seed, name, err)
			}
			if seq.BestCost != par.BestCost {
				t.Errorf("seed %d %s: BestCost %v (1 worker) != %v (8 workers)",
					seed, name, seq.BestCost, par.BestCost)
			}
			if got, want := par.Best.Signature(), seq.Best.Signature(); got != want {
				t.Errorf("seed %d %s: best signature diverged\n workers=1: %s\n workers=8: %s",
					seed, name, want, got)
			}
			if seq.Visited != par.Visited || seq.Generated != par.Generated {
				t.Errorf("seed %d %s: stats diverged: (%d,%d) vs (%d,%d)",
					seed, name, seq.Visited, seq.Generated, par.Visited, par.Generated)
			}
		}
	}
}

// TestSearchCancellation verifies that a cancelled context aborts every
// algorithm with ctx.Err() rather than a partial result.
func TestSearchCancellation(t *testing.T) {
	sc, err := generator.Generate(generator.CategoryConfig(generator.Large, 5))
	if err != nil {
		t.Fatal(err)
	}
	algos := map[string]func(context.Context, *workflow.Graph, Options) (*Result, error){
		"ES":        Exhaustive,
		"HS":        Heuristic,
		"HS-Greedy": HSGreedy,
	}
	for name, algo := range algos {
		t.Run(name+"/pre-cancelled", func(t *testing.T) {
			ctx, cancel := context.WithCancel(context.Background())
			cancel()
			res, err := algo(ctx, sc.Graph, Options{IncrementalCost: true})
			if !errors.Is(err, context.Canceled) {
				t.Fatalf("err = %v, want context.Canceled", err)
			}
			if res != nil {
				t.Error("cancelled run should not return a result")
			}
		})
		t.Run(name+"/deadline", func(t *testing.T) {
			ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
			defer cancel()
			start := time.Now()
			_, err := algo(ctx, sc.Graph, Options{IncrementalCost: true})
			if !errors.Is(err, context.DeadlineExceeded) {
				t.Fatalf("err = %v, want context.DeadlineExceeded", err)
			}
			// The search must notice the expiry at the next expansion
			// boundary, not finish its full run.
			if elapsed := time.Since(start); elapsed > 10*time.Second {
				t.Errorf("cancellation ignored for %v", elapsed)
			}
		})
	}
}

// TestVisitedSet covers the striped set directly.
func TestVisitedSet(t *testing.T) {
	v := newVisitedSet()
	if !v.Add("a") {
		t.Error("first Add(a) should report new")
	}
	if v.Add("a") {
		t.Error("second Add(a) should report duplicate")
	}
	// Interning does not admit, and admitting keeps the interned instance.
	held := string([]byte("1.2.3"))
	if got := v.Intern(held); unsafe.StringData(got) != unsafe.StringData(held) {
		t.Errorf("Intern of a new signature returned another instance")
	}
	if !v.Add("1.2.3") || v.Add("1.2.3") {
		t.Error("Add(1.2.3) after Intern should report new, then duplicate")
	}
	if got := v.Intern("1.2.3"); unsafe.StringData(got) != unsafe.StringData(held) {
		t.Error("Intern after Add returned another instance than the first one interned")
	}
	// A buffer finds the instance in the stripe its string would, without
	// making a string; a new one is interned as a copy.
	buf := []byte("1.2.3")
	if n := testing.AllocsPerRun(10, func() {
		if got := v.InternBytes(buf); unsafe.StringData(got) != unsafe.StringData(held) {
			t.Error("InternBytes of a known signature returned another instance")
		}
	}); n != 0 {
		t.Errorf("InternBytes of a known signature allocates %v times, want 0", n)
	}
	fresh := v.InternBytes([]byte("1.3.2"))
	if got := v.Intern("1.3.2"); fresh != "1.3.2" || unsafe.StringData(got) != unsafe.StringData(fresh) {
		t.Error("InternBytes of a new signature did not intern it")
	}
}

// TestPoolCoversAllItems checks the pool's claiming loop visits every
// index exactly once at several worker counts.
func TestPoolCoversAllItems(t *testing.T) {
	for _, workers := range []int{0, 1, 2, 4, 8} {
		p := newPool(workers)
		const n = 100
		hits := make([]int, n)
		p.run(n, func(i int) { hits[i]++ })
		for i, h := range hits {
			if h != 1 {
				t.Fatalf("workers=%d: item %d executed %d times", workers, i, h)
			}
		}
	}
}
