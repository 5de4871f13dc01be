// Package workflow implements the paper's formal model of an ETL workflow
// (§2.1): a directed acyclic graph whose nodes are activities and
// recordsets and whose edges are data-provider relationships, together with
// the auxiliary machinery the optimizer needs — functionality / generated /
// projected-out schemata (§3.2), automatic schema regeneration after graph
// rewrites, topological priorities, state signatures (§4.1), local groups
// and homologous-activity detection.
package workflow

import (
	"fmt"
	"sort"
	"strings"

	"etlopt/internal/algebra"
	"etlopt/internal/data"
)

// OpKind enumerates the semantic operation an activity performs. Each kind
// corresponds to a template of the ARKTOS-II style library (§3.2, ref [18]).
type OpKind uint8

// The activity operation kinds. Unary kinds come first, binary kinds last;
// see IsBinary.
const (
	// OpFilter is a selection σ(pred).
	OpFilter OpKind = iota
	// OpNotNull rejects records whose checked attribute is NULL.
	OpNotNull
	// OpPKCheck enforces a primary key: for each key value exactly one
	// (deterministically chosen) record survives.
	OpPKCheck
	// OpDistinct removes exact duplicate records.
	OpDistinct
	// OpProject projects out (drops) attributes.
	OpProject
	// OpFunc applies a scalar function, generating an output attribute and
	// optionally projecting out its inputs (e.g. the paper's $2€). When the
	// output attribute equals the single input attribute the function is an
	// in-place transformation that preserves the reference name (the
	// paper's A2E date reformatting).
	OpFunc
	// OpAggregate groups by the grouper attributes and computes one
	// aggregate, generating a fresh reference attribute for the result.
	OpAggregate
	// OpSurrogateKey replaces a production key with a surrogate key drawn
	// from a lookup table.
	OpSurrogateKey
	// OpMerged is a package of unary activities produced by the MER
	// transition; it executes its components in order and is split back by
	// SPL.
	OpMerged
	// OpUnion is the bag union of two flows with identical schemata.
	OpUnion
	// OpJoin is an equi-join of two flows on key attributes.
	OpJoin
	// OpDiff keeps left records whose key does not appear on the right.
	OpDiff
	// OpIntersect keeps left records whose key appears on the right.
	OpIntersect
)

// Class is an operator class: the algebraic properties of an activity
// that engine fusion, DIS, the swap guard and the cost model read
// (DESIGN §3, "Operator classes"). It is a set of the bits below.
type Class uint8

// The operator class bits.
const (
	// RowLocal: stateless per record and order-preserving, so it runs on
	// any batch of any partition.
	RowLocal Class = 1 << iota
	// Selective: passes or drops a record unchanged.
	Selective
	// ValueSensitive: its result depends on the values (the format) of the
	// attributes it inspects, not only on their NULL-ness or identity.
	ValueSensitive
	// DuplicateSensitive: its result depends on which records of its input
	// are equal, on all attributes or on some.
	DuplicateSensitive
	// Grouping: it groups its input by attribute values.
	Grouping
	// ReadsLookup: it reads a lookup recordset.
	ReadsLookup
	// Binary: it takes two input flows.
	Binary
)

// opKinds is the one table of the operation kinds, indexed by OpKind: each
// kind's short name and class. A pkcheck here is the group-based one and a
// package has no bits of its own; (*Activity).Class settles both.
var opKinds = [...]struct {
	name  string
	class Class
}{
	OpFilter:       {"filter", RowLocal | Selective | ValueSensitive},
	OpNotNull:      {"notnull", RowLocal | Selective},
	OpPKCheck:      {"pkcheck", Selective | DuplicateSensitive},
	OpDistinct:     {"distinct", Selective | DuplicateSensitive},
	OpProject:      {"project", RowLocal},
	OpFunc:         {"func", RowLocal | ValueSensitive},
	OpAggregate:    {"aggregate", DuplicateSensitive | Grouping},
	OpSurrogateKey: {"sk", RowLocal | ValueSensitive | ReadsLookup},
	OpMerged:       {"merged", 0},
	OpUnion:        {"union", Binary},
	OpJoin:         {"join", Binary | ValueSensitive},
	OpDiff:         {"diff", Binary | Selective | ValueSensitive},
	OpIntersect:    {"intersect", Binary | Selective | ValueSensitive},
}

// String returns the operation's short name.
func (k OpKind) String() string {
	if int(k) < len(opKinds) {
		return opKinds[k].name
	}
	return fmt.Sprintf("op(%d)", uint8(k))
}

// IsBinary reports whether the operation takes two input flows.
func (k OpKind) IsBinary() bool { return int(k) < len(opKinds) && opKinds[k].class&Binary != 0 }

// AggKind enumerates aggregate functions for OpAggregate.
type AggKind uint8

// Aggregate functions.
const (
	AggSum AggKind = iota
	AggCount
	AggMin
	AggMax
	AggAvg
)

// String returns the aggregate's name.
func (a AggKind) String() string {
	switch a {
	case AggSum:
		return "sum"
	case AggCount:
		return "count"
	case AggMin:
		return "min"
	case AggMax:
		return "max"
	case AggAvg:
		return "avg"
	default:
		return fmt.Sprintf("agg(%d)", uint8(a))
	}
}

// ParseAggKind parses an aggregate function name.
func ParseAggKind(s string) (AggKind, error) {
	switch s {
	case "sum":
		return AggSum, nil
	case "count":
		return AggCount, nil
	case "min":
		return AggMin, nil
	case "max":
		return AggMax, nil
	case "avg":
		return AggAvg, nil
	default:
		return AggSum, fmt.Errorf("workflow: unknown aggregate %q", s)
	}
}

// Semantics captures the algebraic expression S of an activity (§2.1): the
// operation kind plus its parameters. Exactly the fields relevant to Op are
// populated.
type Semantics struct {
	Op OpKind

	// Pred is the selection predicate (OpFilter).
	Pred algebra.Expr
	// Attrs holds the operation's attribute parameters: the checked
	// attribute (OpNotNull), key attributes (OpPKCheck, OpJoin, OpDiff,
	// OpIntersect), dropped attributes (OpProject) or grouper attributes
	// (OpAggregate).
	Attrs []string
	// Fn is the registered scalar function name (OpFunc).
	Fn string
	// FnArgs are the input attributes fed to Fn (OpFunc).
	FnArgs []string
	// OutAttr is the generated attribute name (OpFunc, OpAggregate,
	// OpSurrogateKey).
	OutAttr string
	// DropArgs reports whether OpFunc projects out its argument attributes
	// after producing OutAttr ($2€ drops the Dollar cost).
	DropArgs bool
	// Agg is the aggregate function (OpAggregate).
	Agg AggKind
	// AggAttr is the aggregated attribute (OpAggregate).
	AggAttr string
	// KeyAttr is the production key attribute (OpSurrogateKey).
	KeyAttr string
	// Lookup names the lookup recordset (OpSurrogateKey).
	Lookup string
	// Components holds the packaged activities of an OpMerged activity, in
	// execution order.
	Components []*Activity
}

// String renders the semantics canonically; two activities are "the same
// operation in terms of algebraic expression" (§3.3) exactly when their
// semantics strings are equal.
func (s Semantics) String() string {
	switch s.Op {
	case OpFilter:
		return fmt.Sprintf("filter(%s)", s.Pred)
	case OpNotNull:
		return fmt.Sprintf("notnull(%s)", strings.Join(s.Attrs, ","))
	case OpPKCheck:
		if s.Lookup != "" {
			return fmt.Sprintf("pkcheck(%s@%s)", strings.Join(s.Attrs, ","), s.Lookup)
		}
		return fmt.Sprintf("pkcheck(%s)", strings.Join(s.Attrs, ","))
	case OpDistinct:
		return "distinct()"
	case OpProject:
		sorted := append([]string(nil), s.Attrs...)
		sort.Strings(sorted)
		return fmt.Sprintf("project-out(%s)", strings.Join(sorted, ","))
	case OpFunc:
		mode := ""
		if s.DropArgs {
			mode = "!"
		}
		return fmt.Sprintf("%s(%s->%s%s)", s.Fn, strings.Join(s.FnArgs, ","), s.OutAttr, mode)
	case OpAggregate:
		return fmt.Sprintf("aggregate([%s];%s(%s)->%s)", strings.Join(s.Attrs, ","), s.Agg, s.AggAttr, s.OutAttr)
	case OpSurrogateKey:
		return fmt.Sprintf("sk(%s->%s@%s)", s.KeyAttr, s.OutAttr, s.Lookup)
	case OpMerged:
		parts := make([]string, len(s.Components))
		for i, c := range s.Components {
			parts[i] = c.Sem.String()
		}
		return "merged[" + strings.Join(parts, ";") + "]"
	case OpUnion:
		return "union()"
	case OpJoin:
		return fmt.Sprintf("join(%s)", strings.Join(s.Attrs, ","))
	case OpDiff:
		return fmt.Sprintf("diff(%s)", strings.Join(s.Attrs, ","))
	case OpIntersect:
		return fmt.Sprintf("intersect(%s)", strings.Join(s.Attrs, ","))
	default:
		return s.Op.String() + "()"
	}
}

// Activity is the quadruple A = (Id, I, O, S) of §2.1 enriched with the
// auxiliary schemata of §3.2 and a selectivity estimate for costing. The
// identifier lives on the enclosing Node; input and output schemata are
// derived by Graph.RegenerateSchemata and stored on the Node as well.
type Activity struct {
	// Name is a human-readable label, e.g. "σ(ECOST>=100)".
	Name string
	// Tag identifies the activity across states for signature purposes
	// (§4.1): initial activities carry their topological priority; clones
	// produced by DIS inherit the tag; FAC and MER combine tags.
	Tag string
	// Sem is the activity's algebraic semantics.
	Sem Semantics
	// Fun is the functionality (necessary) schema: the attributes taking
	// part in the computation (§3.2).
	Fun data.Schema
	// Gen is the generated schema: output attributes created by the
	// activity (§3.2). Filters have an empty generated schema.
	Gen data.Schema
	// PrjOut is the projected-out schema: input attributes not propagated
	// (§3.2).
	PrjOut data.Schema
	// RequiredIn optionally declares input attributes the activity's
	// instantiated input schema insists on beyond Fun. The paper's swap
	// condition (4) rejects swaps that leave a declared input attribute
	// without a provider (Fig. 6); activities built from templates default
	// to RequiredIn == nil, meaning only Fun is required.
	RequiredIn data.Schema
	// Sel is the estimated selectivity: expected output rows per input row
	// for unary activities (aggregations use the grouping ratio), and the
	// match fraction for joins/diffs/intersections.
	Sel float64
}

// Clone returns a deep copy of the activity. The algebra expression and
// component activities are shared structurally where immutable and cloned
// where not.
func (a *Activity) Clone() *Activity {
	c := *a
	c.Fun = a.Fun.Clone()
	c.Gen = a.Gen.Clone()
	c.PrjOut = a.PrjOut.Clone()
	c.RequiredIn = a.RequiredIn.Clone()
	c.Sem.Attrs = append([]string(nil), a.Sem.Attrs...)
	c.Sem.FnArgs = append([]string(nil), a.Sem.FnArgs...)
	if a.Sem.Components != nil {
		comps := make([]*Activity, len(a.Sem.Components))
		for i, comp := range a.Sem.Components {
			comps[i] = comp.Clone()
		}
		c.Sem.Components = comps
	}
	return &c
}

// IsBinary reports whether the activity takes two input flows.
func (a *Activity) IsBinary() bool { return a.Sem.Op.IsBinary() }

// Class returns the activity's operator class: its kind's, settled for the
// two kinds whose class depends on their parameters. A pkcheck with a
// Lookup checks each record against the lookup's keys, so it is row-local,
// selective, value-sensitive and reads a lookup. A merged package carries
// the OR of its components' sensitivity bits and is never row-local: the
// engine runs no package and DIS distributes none.
func (a *Activity) Class() Class {
	op := a.Sem.Op
	if int(op) >= len(opKinds) {
		return 0
	}
	if op == OpPKCheck && a.Sem.Lookup != "" {
		return RowLocal | Selective | ValueSensitive | ReadsLookup
	}
	if op == OpMerged {
		var c Class
		for _, comp := range a.Sem.Components {
			c |= comp.Class() & (ValueSensitive | DuplicateSensitive)
		}
		return c
	}
	return opKinds[op].class
}

// SameOperation reports whether two activities perform the same operation in
// terms of algebraic expression — the first homologous-activity condition of
// §3.3 ("the only thing that differs is their input and output schemata").
func (a *Activity) SameOperation(b *Activity) bool {
	return a.Sem.String() == b.Sem.String()
}

// Homologous reports whether two activities satisfy the schema-level parts
// of the homologous-activity definition (§3.2): same semantics and same
// functionality, generated and projected-out schemata. The graph-level part
// — being found in converging local groups — is checked by the caller.
func (a *Activity) Homologous(b *Activity) bool {
	return a.SameOperation(b) &&
		a.Fun.SameSet(b.Fun) &&
		a.Gen.SameSet(b.Gen) &&
		a.PrjOut.SameSet(b.PrjOut)
}

// Predicate renders the activity's post-condition (§3.4): a predicate name
// with the functionality-schema attributes as variables, e.g. "NN(COST)" or
// "$2€(COST)". Equal predicates carry identical fixed semantics.
func (a *Activity) Predicate() string {
	if a.Sem.Op == OpMerged {
		parts := make([]string, len(a.Sem.Components))
		for i, c := range a.Sem.Components {
			parts[i] = c.Predicate()
		}
		return strings.Join(parts, " ∧ ")
	}
	return a.Sem.String()
}
