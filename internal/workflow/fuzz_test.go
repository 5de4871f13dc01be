package workflow_test

import (
	"os"
	"path/filepath"
	"testing"

	"etlopt/internal/dsl"
	"etlopt/internal/transitions"
	"etlopt/internal/workflow"
)

// FuzzSignatureRoundTrip fuzzes the state-identity layer against arbitrary
// parsed workflows: Signature must be a pure, deterministic rendering;
// Clone, Mutate and DeepClone must preserve both the signature and the
// structural fingerprint; and expanding every applicable transition — each
// a copy-on-write child rewritten in place — must leave the parent's
// identity untouched. This is the fuzz companion of the proptest suite:
// the generator there covers realistic workflows, the fuzzer hunts for
// degenerate shapes (empty graphs, single nodes, odd tag collisions) the
// generator never emits.
func FuzzSignatureRoundTrip(f *testing.F) {
	dir := filepath.Join("..", "..", "examples", "workflows")
	entries, err := os.ReadDir(dir)
	if err != nil {
		f.Fatalf("reading example workflows: %v", err)
	}
	for _, e := range entries {
		if e.IsDir() || filepath.Ext(e.Name()) != ".etl" {
			continue
		}
		src, err := os.ReadFile(filepath.Join(dir, e.Name()))
		if err != nil {
			f.Fatalf("reading %s: %v", e.Name(), err)
		}
		f.Add(string(src))
	}
	f.Add("recordset A source rows=5 schema=X\nrecordset B target schema=X\n\nflow A -> B\n")
	f.Fuzz(func(t *testing.T, src string) {
		g, err := dsl.Parse(src)
		if err != nil {
			return
		}
		sig := g.Signature()
		if again := g.Signature(); again != sig {
			t.Fatalf("Signature is not deterministic: %q then %q", sig, again)
		}
		fp := g.Fingerprint()
		if err := g.CheckIntegrity(); err != nil {
			t.Fatalf("parsed graph fails integrity: %v", err)
		}

		for name, d := range map[string]*workflow.Graph{
			"Clone":     g.Clone(),
			"Mutate":    g.Mutate(),
			"DeepClone": g.DeepClone(),
		} {
			if got := d.Signature(); got != sig {
				t.Fatalf("%s changed the signature: %q -> %q", name, sig, got)
			}
			if got := d.Fingerprint(); got != fp {
				t.Fatalf("%s changed the fingerprint: %x -> %x", name, fp, got)
			}
			if err := d.CheckIntegrity(); err != nil {
				t.Fatalf("%s fails integrity: %v", name, err)
			}
		}

		// Expand every applicable transition: each successor is a Mutate
		// child rewritten in place, so the parent must come through with
		// its identity — signature and fingerprint — bit-identical.
		succs := transitions.Enumerate(g)
		for _, res := range succs {
			if err := res.Graph.CheckIntegrity(); err != nil {
				t.Fatalf("%s produced a corrupt graph: %v", res.Description, err)
			}
		}
		if got := g.Signature(); got != sig {
			t.Fatalf("expanding %d successors changed the parent signature: %q -> %q", len(succs), sig, got)
		}
		if got := g.Fingerprint(); got != fp {
			t.Fatalf("expanding %d successors changed the parent fingerprint: %x -> %x", len(succs), fp, got)
		}
	})
}

// The seeds of FuzzSpliceSite that the located splice must refuse, each
// with the successor indices (into transitions.Enumerate) that lead there.
// Node IDs, and so tags, follow declaration order.
const (
	// Both branches render from the shared source, "1.3.6" below "1.5.4":
	// swapping 3 and 6 moves the first branch behind the second.
	flipSrc = `recordset S source rows=100 schema=A,B
recordset T target schema=A,B
activity f3 filter pred="(A>=1)" sel=0.5
activity f4 filter pred="(B>=4)" sel=0.4
activity f5 filter pred="(A>=5)" sel=0.3
activity f6 filter pred="(B>=6)" sel=0.2
activity u7 union sel=1

flow S -> f3
flow f3 -> f6
flow f6 -> u7
flow S -> f5
flow f5 -> f4
flow f4 -> u7
flow u7 -> T
`
	// Distributing 5 and then 6 over the union leaves "5.6" in both branches.
	clonesSrc = `recordset S1 source rows=100 schema=A,B
recordset S2 source rows=200 schema=A,B
recordset T target schema=A,B
activity u4 union sel=1
activity f5 filter pred="(A>=1)" sel=0.5
activity f6 filter pred="(B>=2)" sel=0.4

flow S1 -> u4
flow S2 -> u4
flow u4 -> f5
flow f5 -> f6
flow f6 -> T
`
	// Factorizing the homologous 5 and 6 puts the tag "5&6" beside 7.
	facSrc = `recordset S1 source rows=100 schema=A,B
recordset S2 source rows=200 schema=A,B
recordset T target schema=A,B
activity u4 union sel=1
activity f5 filter pred="(A>=1)" sel=0.5
activity f6 filter pred="(A>=1)" sel=0.5
activity f7 filter pred="(B>=2)" sel=0.4

flow S1 -> f5
flow S2 -> f6
flow f5 -> u4
flow f6 -> u4
flow u4 -> f7
flow f7 -> T
`
	// Two target chains, joined by a depth-0 "&".
	multiSrc = `recordset S1 source rows=100 schema=A,B
recordset S2 source rows=200 schema=A,B
recordset T1 target schema=A,B
recordset T2 target schema=A,B
activity f5 filter pred="(A>=1)" sel=0.5
activity f6 filter pred="(B>=2)" sel=0.4
activity f7 filter pred="(A>=3)" sel=0.5
activity f8 filter pred="(B>=4)" sel=0.4

flow S1 -> f5
flow f5 -> f6
flow f6 -> T1
flow S2 -> f7
flow f7 -> f8
flow f8 -> T2
`
)

// spliceWalk follows steps through the successors of the workflow src —
// step b takes successor b modulo their number — the way a local group's
// job does: the first swap after a restructuring (FAC, DIS) locates its
// site, and every swap from there on is spliced at that site, by the
// one-shot SpliceSignature, and rendered in full. A
// splice that answers must equal the full rendering, and the located one
// may answer only where the one-shot does. It returns the last signature
// and how many swaps the site answered, how many it left to the one-shot,
// and how many of those the one-shot refused too.
func spliceWalk(t *testing.T, src string, steps []byte) (sig string, located, relocated, rendered int) {
	g, err := dsl.Parse(src)
	if err != nil {
		return
	}
	single := len(g.Targets()) == 1
	sig = g.Signature()
	var site *workflow.SpliceSite
	for _, b := range steps[:min(len(steps), 12)] {
		succs := transitions.Enumerate(g)
		if len(succs) == 0 {
			break
		}
		res := succs[int(b)%len(succs)]
		full := res.Graph.Signature()
		switch {
		case res.SigOld == "":
			site = nil
		default:
			if site == nil {
				at, _ := workflow.LocateSplice(sig, res.SigOld, single)
				site = &at
			}
			one, okOne := workflow.SpliceSignature(sig, res.SigOld, res.SigNew, single)
			at, okAt := site.Splice(sig, res.SigOld, res.SigNew)
			if okOne && one != full {
				t.Fatalf("%s on %q: one-shot splice %q, full rendering %q", res.Description, sig, one, full)
			}
			if okAt && (at != full || !okOne) {
				t.Fatalf("%s on %q: located splice %q (one-shot ok=%v), full rendering %q", res.Description, sig, at, okOne, full)
			}
			switch {
			case okAt:
				located++
			case okOne:
				relocated++
			default:
				rendered++
			}
		}
		g, sig = res.Graph, full
	}
	return
}

// FuzzSpliceSite is the differential fuzz of signature splicing: along
// any path of transitions over any parsed workflow, located splice ≡
// one-shot SpliceSignature ≡ Graph.Signature() of the derived graph
// wherever a splice answers at all.
func FuzzSpliceSite(f *testing.F) {
	for _, seed := range spliceSeeds {
		f.Add(seed.src, seed.steps)
	}
	src, err := os.ReadFile(filepath.Join("..", "..", "examples", "workflows", "medium-01.etl"))
	if err != nil {
		f.Fatal(err)
	}
	f.Add(string(src), []byte{0, 3, 1, 4, 1, 5, 9, 2, 6})
	f.Fuzz(func(t *testing.T, src string, steps []byte) { spliceWalk(t, src, steps) })
}

var spliceSeeds = []struct {
	name                         string
	src                          string
	steps                        []byte
	sig                          string
	located, relocated, rendered int
}{
	// SWA(5,4) keeps the order; SWA(3,6) is another chain and flips it.
	{"outside the run, then order flip", flipSrc, []byte{1, 0}, "((1.4.5)//(1.6.3)).7.2", 1, 0, 1},
	// SWA(3,6) flips the order; SWA(5,4) from the flipped state keeps it.
	{"order flip, then left frame", flipSrc, []byte{0, 0}, "((1.4.5)//(1.6.3)).7.2", 0, 1, 1},
	// DIS(4,5), DIS(4,6), then SWA(5,6) in the first branch.
	{"ambiguous segment", clonesSrc, []byte{1, 1, 0}, "((1.6.5)//(2.5.6)).4.3", 0, 0, 1},
	// FAC(4,5,6), then SWA(5&6,7).
	{"factorized tag", facSrc, []byte{0, 0}, "((1)//(2)).4.7.5&6.3", 1, 0, 0},
	// SWA(5,6), SWA(7,8).
	{"multi-target", multiSrc, []byte{0, 1}, "1.6.5.3&2.8.7.4", 0, 0, 2},
}

// TestSpliceSiteSeeds pins which path each seed of FuzzSpliceSite takes:
// the located splice, the one-shot after the site refused, or the full
// rendering after both refused. spliceWalk has checked that whatever
// answered agrees with the full rendering.
func TestSpliceSiteSeeds(t *testing.T) {
	for _, seed := range spliceSeeds {
		sig, located, relocated, rendered := spliceWalk(t, seed.src, seed.steps)
		if sig != seed.sig {
			t.Errorf("%s: the steps lead to %q, want %q", seed.name, sig, seed.sig)
		}
		if located != seed.located || relocated != seed.relocated || rendered != seed.rendered {
			t.Errorf("%s: located/relocated/rendered %d/%d/%d, want %d/%d/%d", seed.name,
				located, relocated, rendered, seed.located, seed.relocated, seed.rendered)
		}
	}
}
