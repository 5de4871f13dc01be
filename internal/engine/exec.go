package engine

import (
	"fmt"
	"strings"

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
		rows, _, err := e.execAggregate(a, in[0], out, aligned[0])
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
		return e.execDiff(a, in, aligned)
	case workflow.OpIntersect:
		return e.execIntersect(a, in, aligned)
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
	var out data.Rows
	for i, k := range keep {
		if k {
			out = append(out, rows[i])
		}
	}
	return out
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
		keep, err = maskPKCheckGroup(a, schema, rows)
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
	keyOf, err := rowKeyFn(schema, a.Sem.Attrs, "pkcheck")
	if err != nil {
		return nil, err
	}
	existing, err := e.keySet(a.Sem.Lookup)
	if err != nil {
		return nil, fmt.Errorf("pkcheck: %w", err)
	}
	keep := make([]bool, len(rows))
	for i, r := range rows {
		keep[i] = !existing[keyOf(r)]
	}
	return keep, nil
}

// Partition contract (pkcheck, group-based): needs every row of a key
// group in one place, so the parallel engine exchanges rows by key tuple
// first; partition-local counts are then global counts.
func maskPKCheckGroup(a *workflow.Activity, schema data.Schema, rows data.Rows) ([]bool, error) {
	keyOf, err := rowKeyFn(schema, a.Sem.Attrs, "pkcheck")
	if err != nil {
		return nil, err
	}
	counts := make(map[string]int, len(rows))
	for _, r := range rows {
		counts[keyOf(r)]++
	}
	keep := make([]bool, len(rows))
	for i, r := range rows {
		keep[i] = counts[keyOf(r)] == 1
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
	return applyMask(rows, maskDistinct(rows)), nil
}

// maskDistinct keeps the first occurrence of each distinct record.
func maskDistinct(rows data.Rows) []bool {
	seen := make(map[string]bool, len(rows))
	keep := make([]bool, len(rows))
	for i, r := range rows {
		k := r.Key()
		if !seen[k] {
			seen[k] = true
			keep[i] = true
		}
	}
	return keep
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
	rep   data.Record // representative grouper values (laid out by out schema)
	sum   float64
	count int64 // rows contributing a non-NULL aggregated value
	rows  int64 // all rows in the group
	min   data.Value
	max   data.Value
	any   bool
	order int // first-seen order for deterministic output
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
func (e *Engine) execAggregate(a *workflow.Activity, in, out data.Schema, rows data.Rows) (data.Rows, []int, error) {
	groupPos := make([]int, 0, len(a.Sem.Attrs))
	for _, attr := range a.Sem.Attrs {
		p := in.Index(attr)
		if p < 0 {
			return nil, nil, fmt.Errorf("grouper %q not in schema {%s}", attr, in)
		}
		groupPos = append(groupPos, p)
	}
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

	proj := data.NewProjection(in, out)
	groups := make(map[string]*aggState)
	var first []int
	for i, r := range rows {
		var b strings.Builder
		for j, p := range groupPos {
			if j > 0 {
				b.WriteByte('\x1f')
			}
			b.WriteString(r[p].Key())
		}
		k := b.String()
		st, ok := groups[k]
		if !ok {
			st = &aggState{rep: proj.Apply(r), order: len(first)}
			first = append(first, i)
			groups[k] = st
		}
		st.rows++
		if aggPos >= 0 {
			v := r[aggPos]
			if !v.IsNull() {
				st.count++
				f := v.Float()
				st.sum += f
				if !st.any || v.Compare(st.min) < 0 {
					st.min = v
				}
				if !st.any || v.Compare(st.max) > 0 {
					st.max = v
				}
				st.any = true
			}
		}
	}

	res := make(data.Rows, len(groups))
	for _, st := range groups {
		var v data.Value
		switch a.Sem.Agg {
		case workflow.AggSum:
			if st.any {
				v = data.NewFloat(st.sum)
			} else {
				v = data.Null
			}
		case workflow.AggCount:
			v = data.NewInt(st.rows)
		case workflow.AggMin:
			if st.any {
				v = st.min
			} else {
				v = data.Null
			}
		case workflow.AggMax:
			if st.any {
				v = st.max
			} else {
				v = data.Null
			}
		case workflow.AggAvg:
			if st.count > 0 {
				v = data.NewFloat(st.sum / float64(st.count))
			} else {
				v = data.Null
			}
		}
		rec := st.rep.Clone()
		rec[outPos] = v
		res[st.order] = rec
	}
	return res, first, nil
}

func (e *Engine) execSurrogateKey(a *workflow.Activity, in, out data.Schema, rows data.Rows) (data.Rows, error) {
	table, err := e.lookupTable(a.Sem.Lookup)
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
	for i, r := range rows {
		sk, ok := table[r[keyPos].Key()]
		if !ok {
			return nil, fmt.Errorf("surrogate key: production key %s missing from lookup %q",
				r[keyPos], a.Sem.Lookup)
		}
		nr := proj.Apply(r)
		nr[outPos] = sk
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
// every matching pair is co-located; the parallel engine tags each output
// row with its (left seq, right seq) pair and merges partitions in that
// lexicographic order, reproducing this nested-loop order exactly.
func (e *Engine) execJoin(a *workflow.Activity, in []data.Schema, out data.Schema, inputs []data.Rows) (data.Rows, error) {
	leftKey, err := keyPositions(in[0], a.Sem.Attrs)
	if err != nil {
		return nil, err
	}
	rightKey, err := keyPositions(in[1], a.Sem.Attrs)
	if err != nil {
		return nil, err
	}
	// Hash the right input.
	index := make(map[string][]data.Record)
	for _, r := range inputs[1] {
		index[tupleKey(r, rightKey)] = append(index[tupleKey(r, rightKey)], r)
	}
	jl := newJoinLayout(out, in[0], in[1])
	var res data.Rows
	for _, l := range inputs[0] {
		for _, r := range index[tupleKey(l, leftKey)] {
			res = append(res, jl.row(l, r))
		}
	}
	return res, nil
}

// maskKeyPresence marks the left rows whose key tuple does (keepPresent)
// or does not (!keepPresent) appear among the right rows' key tuples —
// the shared core of difference and intersection.
//
// Partition contract (diff/intersect): both inputs are exchanged by key
// tuple, so a left row and every right row that could veto or admit it
// share a partition; survivors keep their left sequence tags.
func maskKeyPresence(a *workflow.Activity, in []data.Schema, left, right data.Rows, keepPresent bool) ([]bool, error) {
	leftKey, err := keyPositions(in[0], a.Sem.Attrs)
	if err != nil {
		return nil, err
	}
	rightKey, err := keyPositions(in[1], a.Sem.Attrs)
	if err != nil {
		return nil, err
	}
	present := make(map[string]bool, len(right))
	for _, r := range right {
		present[tupleKey(r, rightKey)] = true
	}
	keep := make([]bool, len(left))
	for i, l := range left {
		keep[i] = present[tupleKey(l, leftKey)] == keepPresent
	}
	return keep, nil
}

func (e *Engine) execDiff(a *workflow.Activity, in []data.Schema, inputs []data.Rows) (data.Rows, error) {
	keep, err := maskKeyPresence(a, in, inputs[0], inputs[1], false)
	if err != nil {
		return nil, err
	}
	return applyMask(inputs[0], keep), nil
}

func (e *Engine) execIntersect(a *workflow.Activity, in []data.Schema, inputs []data.Rows) (data.Rows, error) {
	keep, err := maskKeyPresence(a, in, inputs[0], inputs[1], true)
	if err != nil {
		return nil, err
	}
	return applyMask(inputs[0], keep), nil
}

// rowKeyFn resolves attrs against schema once and returns a closure
// computing the canonical key tuple of a record. op names the operator in
// the resolution error.
func rowKeyFn(schema data.Schema, attrs []string, op string) (func(data.Record) string, error) {
	positions := make([]int, len(attrs))
	for i, a := range attrs {
		p := schema.Index(a)
		if p < 0 {
			return nil, fmt.Errorf("%s: attribute %q not in schema {%s}", op, a, schema)
		}
		positions[i] = p
	}
	return func(r data.Record) string { return tupleKey(r, positions) }, nil
}

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

func tupleKey(r data.Record, positions []int) string {
	var b strings.Builder
	for i, p := range positions {
		if i > 0 {
			b.WriteByte('\x1f')
		}
		b.WriteString(r[p].Key())
	}
	return b.String()
}
