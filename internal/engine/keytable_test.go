package engine

import (
	"context"
	"fmt"
	"math/rand"
	"runtime"
	"slices"
	"testing"

	"etlopt/internal/data"
	"etlopt/internal/templates"
	"etlopt/internal/workflow"
)

// TestKeyTableForcedCollisions builds tables whose 64-bit hashes are
// truncated to two bits and to nothing, so that most different keys
// collide on the full hash, and checks groups, member order and the last
// member against a grouping by Value.Compare.
func TestKeyTableForcedCollisions(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	pool := []data.Value{
		data.NewInt(1), data.NewFloat(1), data.NewBool(true), data.NewString("1"), data.Null,
		data.NewString(""), data.NewInt(2), data.NewFloat(2.5), data.NewString("abcdefgh"), data.NewString("abcdefghi"),
	}
	rows := make(data.Rows, 400)
	for i := range rows {
		rows[i] = data.Record{pool[rng.Intn(len(pool))], data.NewInt(int64(i)), pool[rng.Intn(len(pool))]}
	}
	pos := []int{2, 0}
	for _, mask := range []uint64{0, 3, ^uint64(0)} {
		in := hashKeys(rows, pos)
		for i := range in.hashes {
			in.hashes[i] &= mask
		}
		tab, err := newKeyTable(in)
		if err != nil {
			t.Fatal(err)
		}
		if mask != ^uint64(0) && !fullHashCollision(tab) {
			t.Fatalf("mask %x: no full-hash collision was forced", mask)
		}
		var order []data.Record // reference: keys in first-appearance order
		var members [][]int     // reference: a key's rows in input order
	grouping:
		for i, r := range rows {
			for g, k := range order {
				if r[2].Compare(k[0]) == 0 && r[0].Compare(k[1]) == 0 {
					members[g] = append(members[g], i)
					continue grouping
				}
			}
			order = append(order, data.Record{r[2], r[0]})
			members = append(members, []int{i})
		}
		if len(tab.groups) != len(order) {
			t.Fatalf("mask %x: %d groups, want %d", mask, len(tab.groups), len(order))
		}
		for g, k := range order {
			want := members[g]
			var got []int
			for m := tab.groups[g].first; ; m = tab.next[m] {
				got = append(got, int(m))
				if tab.group[m] != int32(g) {
					t.Fatalf("mask %x: row %d is chained into group %d but assigned to %d", mask, m, g, tab.group[m])
				}
				if tab.next[m] == 0 {
					break
				}
			}
			if !slices.Equal(got, want) {
				t.Fatalf("mask %x group %d (%v): members %v, want %v", mask, g, k, got, want)
			}
			if last := int(tab.groups[g].last); last != want[len(want)-1] {
				t.Fatalf("mask %x group %d: last = %d, want %d (last wins)", mask, g, last, want[len(want)-1])
			}
			// A probe from a row laid out differently finds the group.
			probe := data.Record{rows[want[0]][2], rows[want[0]][0]}
			if found := tab.find(data.HashKey(probe, nil)&mask, probe, nil); found != int32(g) {
				t.Fatalf("mask %x: find(%v) = %d, want group %d", mask, probe, found, g)
			}
		}
		absent := data.Record{data.NewString("absent"), data.NewInt(1)}
		if found := tab.find(data.HashKey(absent, nil)&mask, absent, nil); found != -1 {
			t.Fatalf("mask %x: find of an absent key = %d, want -1", mask, found)
		}
	}
}

// fullHashCollision reports whether two different keys of tab share all
// 64 bits of their hash, so that only KeyEqual tells their groups apart.
func fullHashCollision(tab *keyTable) bool {
	seen := map[uint64]bool{}
	for _, g := range tab.groups {
		h := tab.hashes[g.first]
		if seen[h] {
			return true
		}
		seen[h] = true
	}
	return false
}

// TestKeyTableProbeSpread builds tables over 2^16 distinct keys whose
// hashes are forced equal in their low 32 bits, then in their high 32
// bits. The seeded home slot must spread them either way: the grouping is
// still one group per key in input order, and no group sits more than 64
// slots past its home.
func TestKeyTableProbeSpread(t *testing.T) {
	const n = 1 << 16
	rows := make(data.Rows, n)
	for i := range rows {
		rows[i] = data.Record{data.NewString(fmt.Sprintf("KEY-%08d", i))}
	}
	for _, c := range []struct {
		name       string
		keep, fill uint64
	}{
		{"low 32 bits equal", 0xffffffff00000000, 0x5bd1e995},
		{"high 32 bits equal", 0x00000000ffffffff, 0x5bd1e995 << 32},
	} {
		in := hashKeys(rows, nil)
		for i := range in.hashes {
			in.hashes[i] = in.hashes[i]&c.keep | c.fill
		}
		tab, err := newKeyTable(in)
		if err != nil {
			t.Fatal(err)
		}
		if len(tab.groups) != n {
			t.Fatalf("%s: %d groups, want %d", c.name, len(tab.groups), n)
		}
		for i := range rows {
			if tab.group[i] != int32(i) || tab.groups[i] != (keyGroup{int32(i), int32(i)}) || tab.next[i] != 0 {
				t.Fatalf("%s: row %d is in group %d (%v), want a group of its own", c.name, i, tab.group[i], tab.groups[tab.group[i]])
			}
		}
		mask, worst := len(tab.slots)-1, 0
		for s, g := range tab.slots {
			if g > 0 {
				worst = max(worst, (s-tab.home(tab.hashes[tab.groups[g-1].first]))&mask)
			}
		}
		if worst > 64 {
			t.Errorf("%s: a group sits %d slots past its home, bound 64", c.name, worst)
		}
	}
}

// TestKeyTableSeedInvariance builds one table under seeds 0, 1 and a
// random one: the seed moves groups between slots, and nothing a caller
// reads — groups, group, next, find — may move with it.
func TestKeyTableSeedInvariance(t *testing.T) {
	orders, _ := orderFixture(2000)
	x := data.Record{data.NewString("a\x1fs:b"), data.NewString("c")}
	y := data.Record{data.NewString("a"), data.NewString("b\x1fs:c")}
	absent := data.Record{data.NewString("absent"), data.NewString("absent"), data.NewFloat(-1)}
	for _, c := range []struct {
		name string
		rows data.Rows
		pos  []int
	}{
		{"orders by ORDER_ID", orders, []int{0}},
		{"orders by CUST", orders, []int{1}},
		{"orders whole", orders, nil},
		{"separator keys", data.Rows{x, y, x, y, y}, nil},
	} {
		probes := append(data.Rows{absent, {x[1], x[0]}}, c.rows...)
		var ref *keyTable
		var refFound []int32
		for _, seed := range []uint64{0, 1, rand.Uint64()} {
			tab, err := newSeededKeyTable(hashKeys(c.rows, c.pos), seed)
			if err != nil {
				t.Fatal(err)
			}
			found := make([]int32, len(probes))
			for i, p := range probes {
				found[i] = tab.find(data.HashKey(p, c.pos), p, c.pos)
			}
			if ref == nil {
				ref, refFound = tab, found
				if found[0] != -1 {
					t.Fatalf("%s: find of an absent key = %d, want -1", c.name, found[0])
				}
				for i, g := range tab.group {
					if found[i+2] != g {
						t.Fatalf("%s: find of row %d's key = %d, want its group %d", c.name, i, found[i+2], g)
					}
				}
				continue
			}
			if !slices.Equal(tab.groups, ref.groups) || !slices.Equal(tab.group, ref.group) ||
				!slices.Equal(tab.next, ref.next) || !slices.Equal(found, refFound) {
				t.Fatalf("%s: seed %#x changes the table's answers", c.name, seed)
			}
		}
	}
}

// TestSeparatorCollision: the two tuples below share one "\x1f"-joined
// string key (Record.Key), so a string-keyed engine treated them as one
// key — DISTINCT and the group key check dropped a row, difference dropped
// the wrong one, intersection and join matched them, aggregation merged
// them. Keys are compared column by column now.
func TestSeparatorCollision(t *testing.T) {
	x := data.Record{data.NewString("a\x1fs:b"), data.NewString("c")}
	y := data.Record{data.NewString("a"), data.NewString("b\x1fs:c")}
	schema := data.Schema{"K1", "K2"}
	both, left, right := data.Rows{x, y}, data.Rows{x}, data.Rows{y}
	bothModes(t, func(t *testing.T, p int) {
		for _, c := range []struct {
			name string
			got  data.Rows
			want int
		}{
			{"distinct", runChain(t, p, schema, both, nil, templates.Distinct(1)), 2},
			{"group pkcheck", runChain(t, p, schema, both, nil, templates.PKCheck(1, "K1", "K2")), 2},
			{"aggregate", runChain(t, p, schema, both, nil,
				templates.Aggregate([]string{"K1", "K2"}, workflow.AggCount, "", "N", 1)), 2},
			{"diff", runBinary(t, p, schema, schema, left, right, templates.Diff(1, "K1", "K2")), 1},
			{"intersect", runBinary(t, p, schema, schema, left, right, templates.Intersect(1, "K1", "K2")), 0},
			{"join", runBinary(t, p, schema, schema, left, right, templates.Join(1, "K1", "K2")), 0},
		} {
			if len(c.got) != c.want {
				t.Errorf("%s: %d rows %v, want %d", c.name, len(c.got), c.got, c.want)
			}
		}
	})
}

// orderFixture is n order rows with long string keys — ORDER_ID nearly
// unique with 5 % exact duplicate rows, CUST Zipf-distributed — and the
// customer dimension every CUST appears in once.
func orderFixture(n int) (orders, customers data.Rows) {
	rng := rand.New(rand.NewSource(1))
	zipf := rand.NewZipf(rng, 1.1, 1, 999)
	cust := func(id int) data.Value { return data.NewString(fmt.Sprintf("CUSTOMER-%05d-ACCOUNT-%010d", id%977, id)) }
	orders = make(data.Rows, n)
	for i := range orders {
		if i > 0 && rng.Float64() < 0.05 {
			orders[i] = orders[rng.Intn(i)]
			continue
		}
		orders[i] = data.Record{
			data.NewString(fmt.Sprintf("ORD-2005-A-%04d-%012d", rng.Intn(10000), rng.Int63n(1e12))),
			cust(int(zipf.Uint64())),
			data.NewFloat(float64(rng.Intn(80000)) / 8),
		}
	}
	for id := 0; id < 1000; id++ {
		customers = append(customers, data.Record{cust(id), data.NewInt(int64(500000 + id))})
	}
	return orders, customers
}

// TestKeyOperatorAllocations is the allocation ceiling of the key path:
// per input row, a key-sensitive operator allocates (almost) nothing
// beyond what it outputs — no key string, no map entry per row. Each runs
// at one partition as a stage of one: through execParallelOp, or as a
// chain of one when it is row-local. The exchange also has a bytes
// ceiling: it copies a row once, so per input row it allocates the row's
// hash and, at the destination, the row, its tag and its hash (48 B),
// where dealing rows into buckets first took 88–94 B. DISTINCT, the group
// key check and γ have one too: their key table holds an int32 slot array,
// not a builtin map (121–122 and 66 B per row with the map).
func TestKeyOperatorAllocations(t *testing.T) {
	const n = 10000
	orders, customers := orderFixture(n)
	in := data.Schema{"ORDER_ID", "CUST", "AMOUNT"}
	dim := data.Schema{"CUST", "CUST_SK"}
	cancelled := orders[:n/10]
	e := New(map[string]data.Recordset{
		"DWORDERS": data.NewMemoryRecordset("DWORDERS", data.Schema{"ORDER_ID"}).MustLoad(realign(cancelled, in, data.Schema{"ORDER_ID"})),
	}).forRun()
	agg := templates.Aggregate([]string{"CUST"}, workflow.AggSum, "AMOUNT", "TOTAL", 1)
	sides := []data.Schema{in, dim}
	node := &workflow.Node{Kind: workflow.KindActivity, Act: templates.Distinct(1)}
	binary := func(a *workflow.Activity, in []data.Schema, out data.Schema, right data.Rows) func() (data.Rows, error) {
		n := &workflow.Node{Kind: workflow.KindActivity, Act: a, In: in, Out: out}
		return func() (data.Rows, error) {
			inputs := []*pdata{scatterRows(orders, 1, in[0])}
			if right != nil {
				inputs = append(inputs, scatterRows(right, 1, in[1]))
			}
			var pd *pdata
			var err error
			if a.Class()&workflow.RowLocal == 0 {
				pd, err = e.execParallelOp(context.Background(), 0, n, inputs, 1, 0)
			} else {
				var c *rowChain
				if c, err = e.newRowChain(in[0], out, n); err == nil {
					pd, _, err = e.execChain(context.Background(), 0, n, c, inputs[0], 1, make([]scratch, 1), 0)
				}
			}
			if err != nil {
				return nil, err
			}
			return gather(pd), nil
		}
	}
	unary := func(a *workflow.Activity, out data.Schema) func() (data.Rows, error) {
		return binary(a, []data.Schema{in}, out, nil)
	}
	exchange := func(p int) func() (data.Rows, error) {
		src := scatterRows(orders, p, in)
		return func() (data.Rows, error) {
			pd, err := e.exchangeByKey(context.Background(), 1, node, src, p, 0, in[:1], []int{0})
			if err != nil {
				return nil, err
			}
			return pd.parts[0].rows, nil // not gathered: the bytes are the exchange's alone
		}
	}
	for _, c := range []struct {
		name    string
		ceiling float64
		run     func() (data.Rows, error)
		bytes   float64 // a ceiling on bytes per input row; 0 = none
	}{
		{"distinct", 0.1, unary(templates.Distinct(1), in), 112},
		{"group pkcheck", 0.1, unary(templates.PKCheck(1, "ORDER_ID"), in), 112},
		{"lookup pkcheck", 0.1, unary(templates.PKCheckAgainst("DWORDERS", 1, "ORDER_ID"), in), 0},
		{"diff", 0.1, binary(templates.Diff(1, "ORDER_ID"), []data.Schema{in, in}, in, cancelled), 0},
		{"intersect", 0.1, binary(templates.Intersect(1, "CUST"), sides, in, customers), 0},
		{"aggregate", 0.5, unary(agg, data.Schema{"CUST", "TOTAL"}), 56},
		{"join", 1.1, binary(templates.Join(1, "CUST"), sides, data.Schema{"ORDER_ID", "CUST", "AMOUNT", "CUST_SK"}, customers), 0},
		{"exchange P=2", 0.1, exchange(2), 56},
		{"exchange P=4", 0.1, exchange(4), 56},
		{"exchange P=8", 0.1, exchange(8), 56},
	} {
		var out data.Rows
		var err error
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		perRow := testing.AllocsPerRun(3, func() { out, err = c.run() }) / n
		runtime.ReadMemStats(&after)
		bytesPerRow := float64(after.TotalAlloc-before.TotalAlloc) / 4 / n // a warm-up and 3 runs
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		if len(out) == 0 {
			t.Fatalf("%s: empty output; the fixture no longer exercises it", c.name)
		}
		if perRow > c.ceiling {
			t.Errorf("%s: %.3f allocations per input row, ceiling %.1f", c.name, perRow, c.ceiling)
		}
		if c.bytes > 0 && bytesPerRow > c.bytes {
			t.Errorf("%s: %.1f bytes per input row, ceiling %.0f", c.name, bytesPerRow, c.bytes)
		}
	}
}

// TestOutputRecordsAreCutFromChunks: a join, an aggregate and a realign
// cut their output records from chunks rather than allocating each: at
// most 0.05 allocations per output row, the key table, match lists and
// output slices included, and every record's cap its len.
func TestOutputRecordsAreCutFromChunks(t *testing.T) {
	const n = 10000
	orders, customers := orderFixture(n)
	in, dim := data.Schema{"ORDER_ID", "CUST", "AMOUNT"}, data.Schema{"CUST", "CUST_SK"}
	e := New(nil).forRun()
	op := func(a *workflow.Activity, ins []data.Schema, out data.Schema, inputs ...data.Rows) func() data.Rows {
		node := &workflow.Node{Kind: workflow.KindActivity, Act: a, In: ins, Out: out}
		var pds []*pdata
		for i, rows := range inputs {
			pds = append(pds, scatterRows(rows, 1, ins[i]))
		}
		return func() data.Rows {
			pd, err := e.execParallelOp(context.Background(), 0, node, pds, 1, 0)
			if err != nil {
				t.Fatal(err)
			}
			return pd.parts[0].rows
		}
	}
	for _, c := range []struct {
		name string
		run  func() data.Rows
	}{
		{"join", op(templates.Join(1, "CUST"), []data.Schema{in, dim}, data.Schema{"ORDER_ID", "CUST", "AMOUNT", "CUST_SK"}, orders, customers)},
		{"aggregate", op(templates.Aggregate([]string{"CUST"}, workflow.AggSum, "AMOUNT", "TOTAL", 1), []data.Schema{in}, data.Schema{"CUST", "TOTAL"}, orders)},
		{"realign", func() data.Rows { return realign(orders, in, data.Schema{"AMOUNT", "ORDER_ID"}) }},
	} {
		var out data.Rows
		allocs := testing.AllocsPerRun(3, func() { out = c.run() })
		if len(out) < 100 {
			t.Fatalf("%s: %d output rows; the fixture no longer exercises it", c.name, len(out))
		}
		if per := allocs / float64(len(out)); per > 0.05 {
			t.Errorf("%s: %.0f allocations for %d output rows, %.3f a row; ceiling 0.05", c.name, allocs, len(out), per)
		}
		for i, r := range out {
			if cap(r) != len(r) {
				t.Fatalf("%s: output row %d has cap %d, len %d", c.name, i, cap(r), len(r))
			}
		}
	}
}
