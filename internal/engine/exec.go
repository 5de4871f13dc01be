package engine

import (
	"fmt"

	"etlopt/internal/algebra"
	"etlopt/internal/data"
	"etlopt/internal/workflow"
)

// execSem runs one activity over fully materialized inputs, dispatching on
// its semantics. in/out are the node's derived schemata; schemas/inputs
// the provider layouts and rows, aligned with the node's providers. The
// returned rows are laid out by out.
func (e *Engine) execSem(a *workflow.Activity, in []data.Schema, out data.Schema, schemas []data.Schema, inputs []data.Rows) (data.Rows, error) {
	// Realign provider rows to the derived input schemata when layouts
	// differ (possible after graph rewrites reorder attribute generation).
	aligned := make([]data.Rows, len(inputs))
	for i := range inputs {
		aligned[i] = realign(inputs[i], schemas[i], in[i])
	}
	switch a.Sem.Op {
	case workflow.OpFilter:
		return e.execFilter(a, in[0], aligned[0])
	case workflow.OpNotNull:
		return e.execNotNull(a, in[0], aligned[0])
	case workflow.OpPKCheck:
		return e.execPKCheck(a, in[0], aligned[0])
	case workflow.OpDistinct:
		return e.execDistinct(aligned[0])
	case workflow.OpProject:
		return e.execProject(in[0], out, aligned[0])
	case workflow.OpFunc:
		return e.execFunc(a, in[0], out, aligned[0])
	case workflow.OpAggregate:
		pos, err := keyPositions(in[0], a.Sem.Attrs)
		if err != nil {
			return nil, err
		}
		rows, _, err := e.execAggregate(a, in[0], out, hashKeys(aligned[0], pos))
		return rows, err
	case workflow.OpSurrogateKey:
		return e.execSurrogateKey(a, in[0], out, aligned[0])
	case workflow.OpMerged:
		return e.execMerged(a, in[0], aligned[0])
	case workflow.OpUnion:
		return e.execUnion(in, out, aligned)
	case workflow.OpJoin:
		return e.execJoin(a, in, out, aligned)
	case workflow.OpDiff:
		return e.execKeyPresence(a, in, aligned, false)
	case workflow.OpIntersect:
		return e.execKeyPresence(a, in, aligned, true)
	default:
		return nil, fmt.Errorf("unsupported operation %s", a.Sem.Op)
	}
}

// realign reorders row values from layout src to layout dst; it is the
// identity when the layouts already match.
func realign(rows data.Rows, src, dst data.Schema) data.Rows {
	if src.Equal(dst) {
		return rows
	}
	return projectRows(rows, src, dst)
}

// projectRows builds every row anew in layout dst, resolving the
// attribute names once for the whole input.
func projectRows(rows data.Rows, src, dst data.Schema) data.Rows {
	proj := data.NewProjection(src, dst)
	out := make(data.Rows, len(rows))
	for i, r := range rows {
		out[i] = proj.Apply(r)
	}
	return out
}

// The filtering operators below are written as mask producers: each
// returns keep[i] for row i, and the caller applies the mask. This split
// is what lets the parallel engine reuse the exact materialized-mode
// semantics on a partition while carrying each survivor's sequence tag
// through (parallel.go): a mask identifies *which* rows survive, which a
// plain filtered slice cannot.

// applyMask collects the rows whose mask entry is true, sharing records.
func applyMask(rows data.Rows, keep []bool) data.Rows {
	n := countKept(keep)
	if n == 0 {
		return nil
	}
	out := make(data.Rows, 0, n)
	for i, k := range keep {
		if k {
			out = append(out, rows[i])
		}
	}
	return out
}

func countKept(keep []bool) (n int) {
	for _, k := range keep {
		if k {
			n++
		}
	}
	return n
}

// Partition contract (filter): per-row and order-preserving, so it runs
// partition-locally on any partitioning.
func maskFilter(a *workflow.Activity, schema data.Schema, rows data.Rows) ([]bool, error) {
	keep := make([]bool, len(rows))
	for i, r := range rows {
		v, err := a.Sem.Pred.Eval(schema, r)
		if err != nil {
			return nil, err
		}
		keep[i] = v.Bool()
	}
	return keep, nil
}

func (e *Engine) execFilter(a *workflow.Activity, schema data.Schema, rows data.Rows) (data.Rows, error) {
	keep, err := maskFilter(a, schema, rows)
	if err != nil {
		return nil, err
	}
	return applyMask(rows, keep), nil
}

// Partition contract (notnull): per-row and order-preserving — partition
// local.
func maskNotNull(a *workflow.Activity, schema data.Schema, rows data.Rows) ([]bool, error) {
	positions := make([]int, len(a.Sem.Attrs))
	for i, attr := range a.Sem.Attrs {
		p := schema.Index(attr)
		if p < 0 {
			return nil, fmt.Errorf("notnull: attribute %q not in schema {%s}", attr, schema)
		}
		positions[i] = p
	}
	keep := make([]bool, len(rows))
	for i, r := range rows {
		k := true
		for _, p := range positions {
			if r[p].IsNull() {
				k = false
				break
			}
		}
		keep[i] = k
	}
	return keep, nil
}

func (e *Engine) execNotNull(a *workflow.Activity, schema data.Schema, rows data.Rows) (data.Rows, error) {
	keep, err := maskNotNull(a, schema, rows)
	if err != nil {
		return nil, err
	}
	return applyMask(rows, keep), nil
}

// execPKCheck enforces a primary key. Lookup-based checks (Sem.Lookup set)
// reject rows whose key tuple already exists in the lookup recordset — a
// per-row, order-insensitive test. Group-based checks reject every row of
// a key group with more than one member, which is likewise insensitive to
// input order (a requirement for transition correctness).
func (e *Engine) execPKCheck(a *workflow.Activity, schema data.Schema, rows data.Rows) (data.Rows, error) {
	var keep []bool
	var err error
	if a.Sem.Lookup != "" {
		keep, err = e.maskPKCheckLookup(a, schema, rows)
	} else {
		var pos []int
		if pos, err = keyPositions(schema, a.Sem.Attrs); err == nil {
			keep, err = maskGroupFirsts(hashKeys(rows, pos), true)
		}
	}
	if err != nil {
		return nil, err
	}
	return applyMask(rows, keep), nil
}

// Partition contract (pkcheck, lookup-based): per-row against a read-only
// key set — partition local; the parallel engine shares one cached set
// across partitions.
func (e *Engine) maskPKCheckLookup(a *workflow.Activity, schema data.Schema, rows data.Rows) ([]bool, error) {
	pos, err := keyPositions(schema, a.Sem.Attrs)
	if err != nil {
		return nil, err
	}
	existing, err := e.lookupTable(a.Sem.Lookup, false)
	if err != nil {
		return nil, fmt.Errorf("pkcheck: %w", err)
	}
	keep := make([]bool, len(rows))
	for i, r := range rows {
		keep[i] = existing.find(data.HashKey(r, pos), r, pos) < 0
	}
	return keep, nil
}

// maskGroupFirsts keeps the first row of each key group — of every group
// (DISTINCT, keyed by the whole record) or only of groups of one (the
// group-based primary-key check, which rejects every row of a repeated
// key).
//
// Partition contract (pkcheck, group-based): needs every row of a key
// group in one place, so the parallel engine exchanges rows by key tuple
// first; partition-local groups are then global groups.
func maskGroupFirsts(in keyed, single bool) ([]bool, error) {
	t, err := newKeyTable(in)
	if err != nil {
		return nil, err
	}
	keep := make([]bool, len(in.rows))
	for _, g := range t.groups {
		keep[g.first] = !single || g.first == g.last
	}
	return keep, nil
}

// execDistinct removes exact duplicate records, keeping the first
// occurrence of each distinct record. Because survivors are identical to
// their duplicates, the output multiset is independent of input order.
//
// Partition contract: all copies of a record must meet, so the parallel
// engine exchanges by full record key; first-occurrence-within-partition
// (by sequence tag) then equals first occurrence globally.
func (e *Engine) execDistinct(rows data.Rows) (data.Rows, error) {
	keep, err := maskGroupFirsts(hashKeys(rows, nil), false)
	if err != nil {
		return nil, err
	}
	return applyMask(rows, keep), nil
}

func (e *Engine) execProject(in, out data.Schema, rows data.Rows) (data.Rows, error) {
	return projectRows(rows, in, out), nil
}

func (e *Engine) execFunc(a *workflow.Activity, in, out data.Schema, rows data.Rows) (data.Rows, error) {
	fn, ok := algebra.LookupFunc(a.Sem.Fn)
	if !ok {
		return nil, fmt.Errorf("unknown function %q", a.Sem.Fn)
	}
	argPos := make([]int, len(a.Sem.FnArgs))
	for i, attr := range a.Sem.FnArgs {
		p := in.Index(attr)
		if p < 0 {
			return nil, fmt.Errorf("function arg %q not in schema {%s}", attr, in)
		}
		argPos[i] = p
	}
	outPos := out.Index(a.Sem.OutAttr)
	if outPos < 0 {
		return nil, fmt.Errorf("output attribute %q not in schema {%s}", a.Sem.OutAttr, out)
	}
	proj := data.NewProjection(in, out)
	res := make(data.Rows, len(rows))
	args := make([]data.Value, len(argPos))
	for i, r := range rows {
		for j, p := range argPos {
			args[j] = r[p]
		}
		v, err := fn.Apply(args)
		if err != nil {
			return nil, err
		}
		nr := proj.Apply(r)
		nr[outPos] = v
		res[i] = nr
	}
	return res, nil
}

// aggState accumulates one group.
type aggState struct {
	sum   float64
	count int64      // rows contributing a non-NULL aggregated value
	rows  int64      // all rows in the group
	best  data.Value // the minimum or maximum so far, for min and max
	any   bool
}

// execAggregate groups rows by the grouper attributes and folds the
// aggregate. Output order is first-seen group order, which makes the
// result order-sensitive in a controlled way; first[k] is the index of the
// input row that opened output group k.
//
// Partition contract: a group's rows must be co-located, so the parallel
// engine exchanges by grouper tuple; each group's output row then carries
// the sequence tag of the group's first input row, restoring global
// first-seen order at the merge.
func (e *Engine) execAggregate(a *workflow.Activity, in, out data.Schema, input keyed) (data.Rows, []int, error) {
	rows := input.rows
	aggPos := -1
	if a.Sem.Agg != workflow.AggCount {
		aggPos = in.Index(a.Sem.AggAttr)
		if aggPos < 0 {
			return nil, nil, fmt.Errorf("aggregated attribute %q not in schema {%s}", a.Sem.AggAttr, in)
		}
	}
	outPos := out.Index(a.Sem.OutAttr)
	if outPos < 0 {
		return nil, nil, fmt.Errorf("output attribute %q not in schema {%s}", a.Sem.OutAttr, out)
	}

	t, err := newKeyTable(input)
	if err != nil {
		return nil, nil, err
	}
	proj := data.NewProjection(in, out)
	states := make([]aggState, len(t.groups))
	for i, r := range rows {
		st := &states[t.group[i]]
		st.rows++
		if aggPos >= 0 {
			st.fold(&r[aggPos], a.Sem.Agg)
		}
	}
	res := make(data.Rows, len(t.groups))
	first := make([]int, len(t.groups))
	for k, g := range t.groups {
		first[k] = int(g.first)
		res[k] = proj.Apply(rows[g.first])
		res[k][outPos] = states[k].result(a.Sem.Agg)
	}
	return res, first, nil
}

// fold accumulates one aggregated value; NULLs count only as rows.
func (st *aggState) fold(v *data.Value, fn workflow.AggKind) {
	if v.IsNull() {
		return
	}
	st.count++
	switch fn {
	case workflow.AggMin:
		if !st.any || v.Compare(st.best) < 0 {
			st.best = *v
		}
	case workflow.AggMax:
		if !st.any || v.Compare(st.best) > 0 {
			st.best = *v
		}
	default:
		st.sum += v.Float()
	}
	st.any = true
}

// result is the group's aggregate; NULL when no value contributed.
func (st *aggState) result(fn workflow.AggKind) data.Value {
	switch {
	case fn == workflow.AggCount:
		return data.NewInt(st.rows)
	case !st.any:
		return data.Null
	case fn == workflow.AggSum:
		return data.NewFloat(st.sum)
	case fn == workflow.AggAvg:
		return data.NewFloat(st.sum / float64(st.count))
	default: // AggMin, AggMax
		return st.best
	}
}

func (e *Engine) execSurrogateKey(a *workflow.Activity, in, out data.Schema, rows data.Rows) (data.Rows, error) {
	table, err := e.lookupTable(a.Sem.Lookup, true)
	if err != nil {
		return nil, fmt.Errorf("surrogate key: %w", err)
	}
	keyPos := in.Index(a.Sem.KeyAttr)
	if keyPos < 0 {
		return nil, fmt.Errorf("production key %q not in schema {%s}", a.Sem.KeyAttr, in)
	}
	outPos := out.Index(a.Sem.OutAttr)
	if outPos < 0 {
		return nil, fmt.Errorf("surrogate attribute %q not in schema {%s}", a.Sem.OutAttr, out)
	}
	proj := data.NewProjection(in, out)
	res := make(data.Rows, len(rows))
	pos := []int{keyPos}
	for i, r := range rows {
		g := table.find(data.HashKey(r, pos), r, pos)
		if g < 0 {
			return nil, fmt.Errorf("surrogate key: production key %s missing from lookup %q",
				r[keyPos], a.Sem.Lookup)
		}
		nr := proj.Apply(r)
		// A production key listed twice maps to its last surrogate.
		nr[outPos] = table.rows[table.groups[g].last][1]
		res[i] = nr
	}
	return res, nil
}

// execMerged runs a merged package's components in order, threading the
// flow schema through each step.
func (e *Engine) execMerged(a *workflow.Activity, in data.Schema, rows data.Rows) (data.Rows, error) {
	cur := rows
	curSchema := in
	for _, comp := range a.Sem.Components {
		outSchema, err := componentOutput(comp, curSchema)
		if err != nil {
			return nil, err
		}
		cur, err = e.execSem(comp, []data.Schema{curSchema}, outSchema, []data.Schema{curSchema}, []data.Rows{cur})
		if err != nil {
			return nil, fmt.Errorf("merged component %s: %w", comp.Sem, err)
		}
		curSchema = outSchema
	}
	return cur, nil
}

// componentOutput derives a merged component's output schema from the
// current flow schema, mirroring the workflow package's derivation.
func componentOutput(a *workflow.Activity, in data.Schema) (data.Schema, error) {
	tmp := workflow.NewGraph()
	src := tmp.AddRecordset(&workflow.RecordsetRef{Name: "_in", Schema: in, IsSource: true})
	act := tmp.AddActivity(a)
	sink := tmp.AddRecordset(&workflow.RecordsetRef{Name: "_out", Schema: in})
	tmp.MustAddEdge(src, act)
	tmp.MustAddEdge(act, sink)
	if err := tmp.RegenerateSchemata(); err != nil {
		return nil, err
	}
	return tmp.Node(act).Out, nil
}

func (e *Engine) execUnion(in []data.Schema, out data.Schema, inputs []data.Rows) (data.Rows, error) {
	res := make(data.Rows, 0, len(inputs[0])+len(inputs[1]))
	res = append(res, realign(inputs[0], in[0], out)...)
	res = append(res, realign(inputs[1], in[1], out)...)
	return res, nil
}

// joinLayout precomputes how one joined output record is assembled from a
// left and a right record: for each output attribute, which side supplies
// it and at what position (-1 means neither side has it — NULL).
type joinLayout struct {
	fromLeft []bool
	pos      []int
}

func newJoinLayout(out, left, right data.Schema) joinLayout {
	jl := joinLayout{fromLeft: make([]bool, len(out)), pos: make([]int, len(out))}
	for i, attr := range out {
		if p := left.Index(attr); p >= 0 {
			jl.fromLeft[i] = true
			jl.pos[i] = p
		} else {
			jl.pos[i] = right.Index(attr) // -1 when absent on both sides
		}
	}
	return jl
}

// row assembles one output record, preferring left values (the layout
// already encoded the preference at construction).
func (jl joinLayout) row(l, r data.Record) data.Record {
	rec := make(data.Record, len(jl.pos))
	for i, p := range jl.pos {
		switch {
		case p < 0:
			rec[i] = data.Null
		case jl.fromLeft[i]:
			rec[i] = l[p]
		default:
			rec[i] = r[p]
		}
	}
	return rec
}

// execJoin hash-joins the inputs on the key attributes. Output order is
// left order, then right-input match order within a left row.
//
// Partition contract: both inputs are exchanged by the join key tuple, so
// every matching pair is co-located and a left row's matches sit in one
// partition in right-input order; the parallel engine tags each output
// row with its left row's tag and merges partitions by it, reproducing
// this nested-loop order exactly.
func (e *Engine) execJoin(a *workflow.Activity, in []data.Schema, out data.Schema, inputs []data.Rows) (data.Rows, error) {
	leftKey, rightKey, err := keyPositions2(in, a.Sem.Attrs)
	if err != nil {
		return nil, err
	}
	li, ri, err := joinMatches(hashKeys(inputs[0], leftKey), hashKeys(inputs[1], rightKey))
	if err != nil {
		return nil, err
	}
	jl := newJoinLayout(out, in[0], in[1])
	res := make(data.Rows, len(li))
	for k := range li {
		res[k] = jl.row(inputs[0][li[k]], inputs[1][ri[k]])
	}
	return res, nil
}

// joinMatches returns the matching (left row, right row) index pairs in
// join output order.
func joinMatches(left, right keyed) (li, ri []int32, err error) {
	t, err := newKeyTable(right)
	if err != nil {
		return nil, nil, err
	}
	for i, l := range left.rows {
		g := t.find(left.hashes[i], l, left.pos)
		if g < 0 {
			continue
		}
		for m := t.groups[g].first; ; m = t.next[m] {
			li, ri = append(li, int32(i)), append(ri, m)
			if t.next[m] == 0 {
				break
			}
		}
	}
	return li, ri, nil
}

// maskKeyPresence marks the left rows whose key tuple does (keepPresent)
// or does not (!keepPresent) appear among the right rows' key tuples —
// the shared core of difference and intersection.
//
// Partition contract (diff/intersect): both inputs are exchanged by key
// tuple, so a left row and every right row that could veto or admit it
// share a partition; survivors keep their left sequence tags.
func maskKeyPresence(left, right keyed, keepPresent bool) ([]bool, error) {
	t, err := newKeyTable(right)
	if err != nil {
		return nil, err
	}
	keep := make([]bool, len(left.rows))
	for i, l := range left.rows {
		keep[i] = (t.find(left.hashes[i], l, left.pos) >= 0) == keepPresent
	}
	return keep, nil
}

// execKeyPresence is difference (keepPresent false) or intersection.
func (e *Engine) execKeyPresence(a *workflow.Activity, in []data.Schema, inputs []data.Rows, keepPresent bool) (data.Rows, error) {
	leftKey, rightKey, err := keyPositions2(in, a.Sem.Attrs)
	if err != nil {
		return nil, err
	}
	keep, err := maskKeyPresence(hashKeys(inputs[0], leftKey), hashKeys(inputs[1], rightKey), keepPresent)
	if err != nil {
		return nil, err
	}
	return applyMask(inputs[0], keep), nil
}

// keyPositions resolves key attributes to positions in schema. The result
// is never nil, even for no attributes: to data.HashKey a nil position
// list means the whole record, an empty one the empty tuple.
func keyPositions(schema data.Schema, attrs []string) ([]int, error) {
	out := make([]int, len(attrs))
	for i, a := range attrs {
		p := schema.Index(a)
		if p < 0 {
			return nil, fmt.Errorf("key attribute %q not in schema {%s}", a, schema)
		}
		out[i] = p
	}
	return out, nil
}

// keyPositions2 resolves a binary operator's key attributes on both inputs.
func keyPositions2(in []data.Schema, attrs []string) (left, right []int, err error) {
	if left, err = keyPositions(in[0], attrs); err == nil {
		right, err = keyPositions(in[1], attrs)
	}
	return left, right, err
}
