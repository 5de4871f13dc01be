package dsl

import (
	"fmt"
	"slices"
	"sort"
	"strconv"
	"strings"

	"etlopt/internal/algebra"
	"etlopt/internal/data"
	"etlopt/internal/templates"
	"etlopt/internal/workflow"
)

// The workflow definition format is line-oriented:
//
//	# comment
//	recordset PARTS1 source rows=1000 schema=PKEY,SOURCE,DATE,ECOST
//	recordset DW.PARTS target schema=PKEY,SOURCE,DATE,ECOST
//	activity nn notnull attrs=ECOST sel=0.95
//	activity d2e convert fn=dollar2euro args=DCOST out=ECOST_D
//	activity a2e reformat fn=a2edate attr=DATE
//	activity agg aggregate group=PKEY,SOURCE,DATE fn=sum attr=ECOST_D out=ECOST sel=0.4
//	activity u union
//	activity sig filter pred="ECOST >= 100" sel=0.5
//	flow PARTS1 -> nn -> u
//	flow PARTS2 -> d2e -> a2e -> agg -> u
//	flow u -> sig -> DW.PARTS
//
// Recordset and activity names are unique identifiers; flow lines chain
// provider → consumer edges. For binary activities, the order in which
// flow lines first mention the activity as a consumer fixes its input
// order (first mention = first input).

// Parse reads a workflow definition and builds the graph with schemata
// regenerated.
func Parse(src string) (*workflow.Graph, error) {
	g := workflow.NewGraph()
	names := map[string]workflow.NodeID{}
	var flows [][]string

	for lineNo, raw := range strings.Split(src, "\n") {
		line := strings.TrimSpace(raw)
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		fields, err := splitFields(line)
		if err != nil {
			return nil, fmt.Errorf("dsl: line %d: %w", lineNo+1, err)
		}
		if len(fields) == 0 {
			continue // only quotes/whitespace on the line
		}
		switch fields[0] {
		case "recordset":
			if err := parseRecordset(g, names, fields[1:]); err != nil {
				return nil, fmt.Errorf("dsl: line %d: %w", lineNo+1, err)
			}
		case "activity":
			if err := parseActivity(g, names, fields[1:]); err != nil {
				return nil, fmt.Errorf("dsl: line %d: %w", lineNo+1, err)
			}
		case "flow":
			chain, err := parseFlow(fields[1:])
			if err != nil {
				return nil, fmt.Errorf("dsl: line %d: %w", lineNo+1, err)
			}
			flows = append(flows, chain)
		default:
			return nil, fmt.Errorf("dsl: line %d: unknown directive %q", lineNo+1, fields[0])
		}
	}

	for _, chain := range flows {
		for i := 0; i+1 < len(chain); i++ {
			from, ok := names[chain[i]]
			if !ok {
				return nil, fmt.Errorf("dsl: flow references unknown node %q", chain[i])
			}
			to, ok := names[chain[i+1]]
			if !ok {
				return nil, fmt.Errorf("dsl: flow references unknown node %q", chain[i+1])
			}
			if err := g.AddEdge(from, to); err != nil {
				return nil, err
			}
		}
	}
	if err := g.RegenerateSchemata(); err != nil {
		return nil, err
	}
	if err := g.Validate(); err != nil {
		return nil, err
	}
	if err := g.CheckWellFormed(); err != nil {
		return nil, err
	}
	return g, nil
}

// splitFields tokenizes a line into whitespace-separated fields, keeping
// double-quoted values (as in pred="A >= 1") intact. A quoted value is read
// with Go's escapes (strconv.Unquote), so Serialize's %q spells any text.
func splitFields(line string) ([]string, error) {
	var out []string
	var cur strings.Builder
	for i := 0; i < len(line); i++ {
		switch c := line[i]; c {
		case '"':
			quoted, err := strconv.QuotedPrefix(line[i:])
			if err != nil {
				return nil, fmt.Errorf("unterminated quote or bad escape at %d", i)
			}
			text, _ := strconv.Unquote(quoted)
			cur.WriteString(text)
			i += len(quoted) - 1
		case ' ', '\t':
			if cur.Len() > 0 {
				out = append(out, cur.String())
				cur.Reset()
			}
		default:
			cur.WriteByte(c)
		}
	}
	if cur.Len() > 0 {
		out = append(out, cur.String())
	}
	return out, nil
}

// kvArgs splits key=value fields into a map, reporting unknown bare words.
func kvArgs(fields []string) (map[string]string, []string) {
	kv := map[string]string{}
	var bare []string
	for _, f := range fields {
		if i := strings.IndexByte(f, '='); i > 0 {
			kv[f[:i]] = f[i+1:]
		} else {
			bare = append(bare, f)
		}
	}
	return kv, bare
}

func parseRecordset(g *workflow.Graph, names map[string]workflow.NodeID, fields []string) error {
	if len(fields) < 2 {
		return fmt.Errorf("recordset needs a name and a role")
	}
	name := fields[0]
	if _, dup := names[name]; dup {
		return fmt.Errorf("duplicate node name %q", name)
	}
	kv, bare := kvArgs(fields[1:])
	ref := &workflow.RecordsetRef{Name: name}
	for _, b := range bare {
		switch b {
		case "source":
			ref.IsSource = true
		case "target":
			ref.IsTarget = true
		default:
			return fmt.Errorf("unknown recordset flag %q", b)
		}
	}
	schema, ok := kv["schema"]
	if !ok {
		return fmt.Errorf("recordset %s needs schema=", name)
	}
	ref.Schema = data.Schema(strings.Split(schema, ","))
	if rows, ok := kv["rows"]; ok {
		f, err := strconv.ParseFloat(rows, 64)
		if err != nil {
			return fmt.Errorf("recordset %s: bad rows=%q", name, rows)
		}
		ref.Rows = f
	}
	names[name] = g.AddRecordset(ref)
	return nil
}

func parseActivity(g *workflow.Graph, names map[string]workflow.NodeID, fields []string) error {
	if len(fields) < 2 {
		return fmt.Errorf("activity needs a name and an operation")
	}
	name, op := fields[0], fields[1]
	if _, dup := names[name]; dup {
		return fmt.Errorf("duplicate node name %q", name)
	}
	kv, _ := kvArgs(fields[2:])
	sel := 1.0
	if s, ok := kv["sel"]; ok {
		f, err := strconv.ParseFloat(s, 64)
		if err != nil {
			return fmt.Errorf("activity %s: bad sel=%q", name, s)
		}
		sel = f
	}
	attrs := func(key string) []string {
		if v, ok := kv[key]; ok && v != "" {
			return strings.Split(v, ",")
		}
		return nil
	}

	var act *workflow.Activity
	switch op {
	case "filter":
		pred, ok := kv["pred"]
		if !ok {
			return fmt.Errorf("activity %s: filter needs pred=", name)
		}
		expr, err := ParsePredicate(pred)
		if err != nil {
			return fmt.Errorf("activity %s: %w", name, err)
		}
		act = templates.Filter(expr, sel)
	case "notnull":
		a := attrs("attrs")
		if len(a) == 0 {
			return fmt.Errorf("activity %s: notnull needs attrs=", name)
		}
		act = templates.NotNull(sel, a...)
	case "pkcheck":
		a := attrs("attrs")
		if len(a) == 0 {
			return fmt.Errorf("activity %s: pkcheck needs attrs=", name)
		}
		if lk, ok := kv["lookup"]; ok {
			act = templates.PKCheckAgainst(lk, sel, a...)
		} else {
			act = templates.PKCheck(sel, a...)
		}
	case "distinct":
		act = templates.Distinct(sel)
	case "project":
		a := attrs("attrs")
		if len(a) == 0 {
			return fmt.Errorf("activity %s: project needs attrs=", name)
		}
		act = templates.ProjectOut(a...)
	case "apply", "convert":
		fn, out := kv["fn"], kv["out"]
		args := attrs("args")
		if fn == "" || out == "" || len(args) == 0 {
			return fmt.Errorf("activity %s: %s needs fn=, out= and args=", name, op)
		}
		if op == "convert" {
			act = templates.Convert(fn, out, args...)
		} else {
			act = templates.Apply(fn, out, args...)
		}
	case "reformat":
		fn, attr := kv["fn"], kv["attr"]
		if fn == "" || attr == "" {
			return fmt.Errorf("activity %s: reformat needs fn= and attr=", name)
		}
		act = templates.Reformat(fn, attr)
	case "aggregate":
		group := attrs("group")
		fn, attr, out := kv["fn"], kv["attr"], kv["out"]
		if len(group) == 0 || fn == "" || out == "" {
			return fmt.Errorf("activity %s: aggregate needs group=, fn= and out=", name)
		}
		agg, err := workflow.ParseAggKind(fn)
		if err != nil {
			return fmt.Errorf("activity %s: %w", name, err)
		}
		act = templates.Aggregate(group, agg, attr, out, sel)
	case "sk":
		key, out, lookup := kv["key"], kv["out"], kv["lookup"]
		if key == "" || out == "" || lookup == "" {
			return fmt.Errorf("activity %s: sk needs key=, out= and lookup=", name)
		}
		act = templates.SurrogateKey(key, out, lookup)
	case "union":
		act = templates.Union()
	case "join":
		keys := attrs("keys")
		if len(keys) == 0 {
			return fmt.Errorf("activity %s: join needs keys=", name)
		}
		act = templates.Join(sel, keys...)
	case "diff":
		keys := attrs("keys")
		if len(keys) == 0 {
			return fmt.Errorf("activity %s: diff needs keys=", name)
		}
		act = templates.Diff(sel, keys...)
	case "intersect":
		keys := attrs("keys")
		if len(keys) == 0 {
			return fmt.Errorf("activity %s: intersect needs keys=", name)
		}
		act = templates.Intersect(sel, keys...)
	default:
		return fmt.Errorf("activity %s: unknown operation %q", name, op)
	}
	act.Sel = sel
	if req, ok := kv["requires"]; ok {
		act.RequiredIn = data.Schema(strings.Split(req, ","))
	}
	names[name] = g.AddActivity(act)
	return nil
}

func parseFlow(fields []string) ([]string, error) {
	var chain []string
	for _, f := range fields {
		if f == "->" {
			continue
		}
		for _, part := range strings.Split(f, "->") {
			if part != "" {
				chain = append(chain, part)
			}
		}
	}
	if len(chain) < 2 {
		return nil, fmt.Errorf("flow needs at least two nodes")
	}
	return chain, nil
}

// Serialize renders a workflow back into the definition format. Activity
// names are synthesized as a<ID>; recordsets keep their names. Flows are
// written as maximal chains in topological order, so binary input order is
// preserved by first-mention order.
func Serialize(g *workflow.Graph) (string, error) {
	order, err := g.TopoSort()
	if err != nil {
		return "", err
	}
	var b strings.Builder
	nodeName := map[workflow.NodeID]string{}
	for _, id := range order {
		n := g.Node(id)
		if n.Kind == workflow.KindRecordset {
			nodeName[id] = n.RS.Name
		} else {
			nodeName[id] = fmt.Sprintf("a%d", id)
		}
	}

	// Declarations are emitted in topological order so that re-parsing
	// assigns node IDs matching the workflow's execution priorities — the
	// paper's identifier scheme (§4.1) — and signatures round-trip.
	for _, id := range order {
		n := g.Node(id)
		if n.Kind == workflow.KindRecordset {
			role := ""
			switch {
			case len(g.Providers(id)) == 0:
				role = " source"
			case len(g.Consumers(id)) == 0:
				role = " target"
			}
			fmt.Fprintf(&b, "recordset %s%s", n.RS.Name, role)
			if n.RS.Rows > 0 {
				fmt.Fprintf(&b, " rows=%g", n.RS.Rows)
			}
			fmt.Fprintf(&b, " schema=%s\n", n.RS.Schema)
			continue
		}
		line, err := serializeActivity(nodeName[id], n.Act)
		if err != nil {
			return "", err
		}
		b.WriteString(line)
		b.WriteByte('\n')
	}
	b.WriteByte('\n')

	// Emit each edge once, ordered by (consumer's provider position) so a
	// re-parse reconstructs binary input order.
	for _, id := range order {
		for _, p := range g.Providers(id) {
			fmt.Fprintf(&b, "flow %s -> %s\n", nodeName[p], nodeName[id])
		}
	}
	return b.String(), nil
}

func serializeActivity(name string, a *workflow.Activity) (string, error) {
	sel := fmt.Sprintf(" sel=%g", a.Sel)
	var req string
	if len(a.RequiredIn) > 0 {
		req = fmt.Sprintf(" requires=%s", a.RequiredIn)
	}
	switch a.Sem.Op {
	case workflow.OpFilter:
		// The text must read back as this predicate. A constant the DSL
		// cannot spell does not: NULL and NaN read back as attributes, a
		// date as arithmetic, ±Inf not at all.
		text := a.Sem.Pred.String()
		back, err := ParsePredicate(text)
		if err != nil || back.String() != text || !slices.Equal(algebra.AttrSet(back), algebra.AttrSet(a.Sem.Pred)) {
			return "", fmt.Errorf("dsl: activity %s: predicate %s holds a constant the DSL does not read back", name, text)
		}
		return fmt.Sprintf("activity %s filter pred=%q%s%s", name, text, sel, req), nil
	case workflow.OpNotNull:
		return fmt.Sprintf("activity %s notnull attrs=%s%s%s", name, strings.Join(a.Sem.Attrs, ","), sel, req), nil
	case workflow.OpPKCheck:
		lk := ""
		if a.Sem.Lookup != "" {
			lk = " lookup=" + a.Sem.Lookup
		}
		return fmt.Sprintf("activity %s pkcheck attrs=%s%s%s%s", name, strings.Join(a.Sem.Attrs, ","), lk, sel, req), nil
	case workflow.OpDistinct:
		return fmt.Sprintf("activity %s distinct%s%s", name, sel, req), nil
	case workflow.OpProject:
		return fmt.Sprintf("activity %s project attrs=%s%s%s", name, strings.Join(a.Sem.Attrs, ","), sel, req), nil
	case workflow.OpFunc:
		if a.InPlace() {
			return fmt.Sprintf("activity %s reformat fn=%s attr=%s%s%s", name, a.Sem.Fn, a.Sem.OutAttr, sel, req), nil
		}
		kind := "apply"
		if a.Sem.DropArgs {
			kind = "convert"
		}
		return fmt.Sprintf("activity %s %s fn=%s args=%s out=%s%s%s",
			name, kind, a.Sem.Fn, strings.Join(a.Sem.FnArgs, ","), a.Sem.OutAttr, sel, req), nil
	case workflow.OpAggregate:
		return fmt.Sprintf("activity %s aggregate group=%s fn=%s attr=%s out=%s%s%s",
			name, strings.Join(a.Sem.Attrs, ","), a.Sem.Agg, a.Sem.AggAttr, a.Sem.OutAttr, sel, req), nil
	case workflow.OpSurrogateKey:
		return fmt.Sprintf("activity %s sk key=%s out=%s lookup=%s%s%s",
			name, a.Sem.KeyAttr, a.Sem.OutAttr, a.Sem.Lookup, sel, req), nil
	case workflow.OpUnion:
		return fmt.Sprintf("activity %s union%s%s", name, sel, req), nil
	case workflow.OpJoin:
		return fmt.Sprintf("activity %s join keys=%s%s%s", name, strings.Join(a.Sem.Attrs, ","), sel, req), nil
	case workflow.OpDiff:
		return fmt.Sprintf("activity %s diff keys=%s%s%s", name, strings.Join(a.Sem.Attrs, ","), sel, req), nil
	case workflow.OpIntersect:
		return fmt.Sprintf("activity %s intersect keys=%s%s%s", name, strings.Join(a.Sem.Attrs, ","), sel, req), nil
	case workflow.OpMerged:
		return "", fmt.Errorf("dsl: merged activities cannot be serialized; split them first")
	default:
		return "", fmt.Errorf("dsl: unknown operation %v", a.Sem.Op)
	}
}

// NodeNames returns a stable name for every node, matching Serialize's
// naming, useful for tooling that reports on parsed workflows.
func NodeNames(g *workflow.Graph) map[workflow.NodeID]string {
	out := map[workflow.NodeID]string{}
	ids := g.Nodes()
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	for _, id := range ids {
		n := g.Node(id)
		if n.Kind == workflow.KindRecordset {
			out[id] = n.RS.Name
		} else {
			out[id] = fmt.Sprintf("a%d", id)
		}
	}
	return out
}
