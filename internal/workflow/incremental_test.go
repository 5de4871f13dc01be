package workflow

import (
	"testing"

	"etlopt/internal/data"
)

func TestSpliceSignature(t *testing.T) {
	cases := []struct {
		name          string
		sig, old, new string
		singleChain   bool
		want          string
		ok            bool
	}{
		{"swap mid-chain", "1.2.3.4", "2.3", "3.2", true, "1.3.2.4", true},
		{"swap at head", "1.2.3", "1.2", "2.1", true, "2.1.3", true},
		{"swap at tail", "1.2.3", "2.3", "3.2", true, "1.3.2", true},
		{"merge to package", "1.2.3", "2.3", "2+3", true, "1.2+3", true},
		{"identity", "1.2.3", "2.3", "2.3", true, "1.2.3", true},
		{"no occurrence", "1.2.3", "5.6", "6.5", true, "", false},
		{"two occurrences", "1.2.1.2", "1.2", "2.1", true, "", false},
		{"substring of longer tag is not a site", "12.2.5", "2", "9", true, "12.9.5", true},
		{"only substring sites", "12.32", "2", "9", true, "", false},
		{"multi-chain refuses", "1.2.3", "2.3", "3.2", false, "", false},
		{"empty segment refuses", "1.2.3", "", "x", true, "", false},
		{"branch keeps sorted order", "(1.2//3.4).5", "3.4", "3.9", true, "(1.2//3.9).5", true},
		{"branch would sort before left sibling", "(1.2//3.4).5", "3.4", "0.9", true, "", false},
		{"branch would sort after right sibling", "(1.2//3.4).5", "1.2", "9.9", true, "", false},
		{"nested group keeps order", "((1.2//3.4)//5.6).7", "3.4", "3.5", true, "((1.2//3.5)//5.6).7", true},
		{"nested group breaks outer order", "((1.2//3.4)//2.6).7", "1.2", "9.9", true, "", false},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			got, ok := SpliceSignature(c.sig, c.old, c.new, c.singleChain)
			if ok != c.ok {
				t.Fatalf("SpliceSignature(%q, %q, %q, %v) ok=%v, want %v", c.sig, c.old, c.new, c.singleChain, ok, c.ok)
			}
			if ok && got != c.want {
				t.Fatalf("SpliceSignature(%q, %q, %q) = %q, want %q", c.sig, c.old, c.new, got, c.want)
			}
		})
	}
}

// TestSpliceSite follows one located site through the states of a group
// job: splices chain off each other's results, and the site refuses what
// lies outside its run, what would move a sibling, and a signature that a
// full render has taken out of the frame.
func TestSpliceSite(t *testing.T) {
	const base = "((((1.2)//(3.4)).5.6.7)//(8.9)).10"
	site, ok := LocateSplice(base, "5.6.7", true)
	if !ok {
		t.Fatal("no site for 5.6.7")
	}
	// "(((1." sorts before "(8." whatever the run holds: no bound is kept.
	if got := base[site.lo:site.hi]; got != ".5.6.7" || len(site.bounds) != 0 {
		t.Fatalf("run %q with %d bounds, want .5.6.7 with none", got, len(site.bounds))
	}
	sig := base
	for _, c := range []struct{ old, new, want string }{
		{"5.6", "6.5", "((((1.2)//(3.4)).6.5.7)//(8.9)).10"},
		{"5.7", "7.5", "((((1.2)//(3.4)).6.7.5)//(8.9)).10"},
		{"6.7", "6+7", "((((1.2)//(3.4)).6+7.5)//(8.9)).10"},
		{"6+7.5", "5", "((((1.2)//(3.4)).5)//(8.9)).10"},
	} {
		got, ok := site.Splice(sig, c.old, c.new)
		if !ok || got != c.want {
			t.Fatalf("Splice(%q, %q, %q) = %q, %v; want %q", sig, c.old, c.new, got, ok, c.want)
		}
		sig = got
	}
	for _, c := range []struct{ name, sig, old, new string }{
		{"another run", base, "1.2", "2.1"},
		{"not in the signature", base, "6.5", "5.6"},
		{"left the frame", "((((1.2)//(3.4)).5.6.7)//(0.9)).10", "5.6", "6.5"},
		{"frame around more than a run", "((((1.2)//(3.4)).5)//(6.7)//(8.9)).10", "6.7", "7.6"},
	} {
		if got, ok := site.Splice(c.sig, c.old, c.new); ok {
			t.Errorf("%s: Splice(%q, %q, %q) = %q, want a refusal", c.name, c.sig, c.old, c.new, got)
		}
	}

	// A first tag that ties with the neighbor's leaves the order to the run.
	tied, ok := LocateSplice("((1.3.6)//(1.5.4)).7", "3.6", true)
	if !ok || len(tied.bounds) != 1 {
		t.Fatalf("site for 3.6: ok=%v, bounds %v; want one bound", ok, tied.bounds)
	}
	if got, ok := tied.Splice("((1.3.6)//(1.5.4)).7", "3.6", "4.6"); !ok || got != "((1.4.6)//(1.5.4)).7" {
		t.Errorf("1.4.6 stays below 1.5.4: got %q, %v", got, ok)
	}
	if got, ok := tied.Splice("((1.3.6)//(1.5.4)).7", "3.6", "6.3"); ok {
		t.Errorf("1.6.3 sorts above 1.5.4: got %q, want a refusal", got)
	}
	var none SpliceSite
	if got, ok := none.Splice("1.2.3", "2.3", "3.2"); ok {
		t.Errorf("a site that was never located spliced %q", got)
	}
}

func TestFingerprintStableAcrossCopies(t *testing.T) {
	g, _ := linearGraph(t, data.Schema{"A"}, filterOn("A"), filterOn("A"))
	fp := g.Fingerprint()
	if fp != g.Fingerprint() {
		t.Fatal("Fingerprint is not deterministic")
	}
	if got := g.Clone().Fingerprint(); got != fp {
		t.Errorf("Clone changed fingerprint: %x -> %x", fp, got)
	}
	if got := g.Mutate().Fingerprint(); got != fp {
		t.Errorf("Mutate changed fingerprint: %x -> %x", fp, got)
	}
	if got := g.DeepClone().Fingerprint(); got != fp {
		t.Errorf("DeepClone changed fingerprint: %x -> %x", fp, got)
	}
}

// TestFingerprintSeparatesEqualSignatures pins what the fingerprint adds
// to the signature: two graphs can render the same signature while
// carrying different node-ID labelings, and the fingerprint must tell
// them apart because costings are NodeID-keyed.
func TestFingerprintSeparatesEqualSignatures(t *testing.T) {
	build := func(burn int) *Graph {
		g := NewGraph()
		// Recordsets render their node IDs into the signature, so they are
		// added first (stable IDs); only the activity's ID is burned — its
		// signature tag is pinned explicitly.
		src := g.AddRecordset(&RecordsetRef{Name: "SRC", Schema: data.Schema{"A"}, Rows: 100, IsSource: true})
		tgt := g.AddRecordset(&RecordsetRef{Name: "TGT", Schema: data.Schema{"A"}, IsTarget: true})
		for i := 0; i < burn; i++ {
			id := g.AddRecordset(&RecordsetRef{Name: "TMP", Schema: data.Schema{"A"}})
			g.RemoveNode(id)
		}
		a := filterOn("A")
		a.Tag = "f1"
		act := g.AddActivity(a)
		g.MustAddEdge(src, act)
		g.MustAddEdge(act, tgt)
		if err := g.RegenerateSchemata(); err != nil {
			t.Fatal(err)
		}
		return g
	}
	g1, g2 := build(0), build(3)
	if s1, s2 := g1.Signature(), g2.Signature(); s1 != s2 {
		t.Fatalf("setup: signatures differ: %q vs %q", s1, s2)
	}
	if g1.Fingerprint() == g2.Fingerprint() {
		t.Fatal("fingerprints collide across different node-ID labelings")
	}
}

// TestMutateCopyOnWrite exercises the COW contract in both directions:
// rewriting the child leaves the parent untouched, and rewriting the
// parent after a Mutate leaves the child untouched — node writes included,
// because Mutate disowns the parent's nodes too.
func TestMutateCopyOnWrite(t *testing.T) {
	parent, ids := linearGraph(t, data.Schema{"A", "B"}, filterOn("A"), filterOn("B"))
	parentSig := parent.Signature()
	parentStr := parent.String()

	child := parent.Mutate()
	// Rewrite the child: drop the second filter out of the chain.
	child.RemoveNode(ids[2])
	child.MustAddEdge(ids[1], ids[3])
	if err := child.RegenerateSchemata(); err != nil {
		t.Fatal(err)
	}
	if err := child.CheckIntegrity(); err != nil {
		t.Fatalf("child integrity: %v", err)
	}
	if got := parent.Signature(); got != parentSig {
		t.Fatalf("rewriting the child changed the parent signature: %q -> %q", parentSig, got)
	}
	if got := parent.String(); got != parentStr {
		t.Fatalf("rewriting the child changed the parent:\nbefore:\n%s\nafter:\n%s", parentStr, got)
	}
	if err := parent.CheckIntegrity(); err != nil {
		t.Fatalf("parent integrity after child rewrite: %v", err)
	}

	// Opposite direction: a second child, then rewrite the parent.
	sibling := parent.Mutate()
	sibSig := sibling.Signature()
	parent.RemoveNode(ids[1])
	parent.MustAddEdge(ids[0], ids[2])
	if err := parent.RegenerateSchemata(); err != nil {
		t.Fatal(err)
	}
	if got := sibling.Signature(); got != sibSig {
		t.Fatalf("rewriting the parent changed a Mutate child: %q -> %q", sibSig, got)
	}
	if err := sibling.CheckIntegrity(); err != nil {
		t.Fatalf("sibling integrity after parent rewrite: %v", err)
	}
}

// TestMutateSharesUntouchedNodes pins the structural-sharing property that
// makes Mutate cheap: an untouched node is the same *Node instance in
// parent and child, while a node the child writes (via schema
// regeneration) is copied first.
func TestMutateSharesUntouchedNodes(t *testing.T) {
	parent, ids := linearGraph(t, data.Schema{"A", "B"}, filterOn("A"), filterOn("B"))
	child := parent.Mutate()
	for _, id := range ids {
		if parent.Node(id) != child.Node(id) {
			t.Fatalf("node %d not shared immediately after Mutate", id)
		}
	}
	// Regenerating all schemata rewrites every node through mutableNode:
	// each written node must be a fresh copy, the parent keeps its own.
	before := map[NodeID]*Node{}
	for _, id := range ids {
		before[id] = parent.Node(id)
	}
	if err := child.RegenerateSchemata(); err != nil {
		t.Fatal(err)
	}
	for _, id := range ids {
		if parent.Node(id) != before[id] {
			t.Fatalf("parent node %d replaced by a child write", id)
		}
		if child.Node(id) == parent.Node(id) {
			t.Fatalf("child write to node %d landed on the shared instance", id)
		}
	}
}

func TestCheckIntegrityCatchesCorruption(t *testing.T) {
	g, ids := linearGraph(t, data.Schema{"A"}, filterOn("A"))
	if err := g.CheckIntegrity(); err != nil {
		t.Fatalf("fresh graph fails integrity: %v", err)
	}
	// Dangling edge: clear a node slot behind the edge lists' back.
	bad := g.Clone()
	bad.nodes[ids[1]] = nil
	if err := bad.CheckIntegrity(); err == nil {
		t.Error("dangling edge not caught")
	}
	// Mismatched ID.
	bad2 := g.Clone()
	n := *bad2.nodes[ids[1]]
	n.ID = 99
	bad2.nodes[ids[1]] = &n
	if err := bad2.CheckIntegrity(); err == nil {
		t.Error("mismatched slot ID not caught")
	}
	// Asymmetric succ/pred.
	bad3 := g.Clone()
	bad3.pred[ids[1]] = nil
	if err := bad3.CheckIntegrity(); err == nil {
		t.Error("asymmetric succ/pred not caught")
	}
	// Wrong live count.
	bad4 := g.Clone()
	bad4.live++
	if err := bad4.CheckIntegrity(); err == nil {
		t.Error("wrong live count not caught")
	}
}
