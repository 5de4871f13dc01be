package transitions

import (
	"slices"

	"etlopt/internal/algebra"
	"etlopt/internal/data"
	"etlopt/internal/workflow"
)

// semanticGuard enforces the template-level swap constraints that the
// paper's schema-subset conditions (3) and (4) cannot express. The paper
// delegates these to the template library ([18], [19]): every template
// carries fixed semantics, and the designer "dictates in advance" how it
// may commute. The guard reads each activity's operator class
// (workflow.Class; DESIGN §3, "Operator classes"). It is symmetric: it
// inspects the unordered pair.
func semanticGuard(a, b *workflow.Activity) error {
	if err := guardOneWay(a, b); err != nil {
		return err
	}
	return guardOneWay(b, a)
}

// guardOneWay checks the constraints that activity x imposes on swapping
// with activity y:
//
//   - a value-sensitive activity must not cross an in-place transformation
//     of an attribute it inspects — σ(DATE='…') before and after A2E(DATE)
//     read different formats. Not-null checks are not value-sensitive:
//     in-place functions are NULL-preserving by contract;
//   - a duplicate-sensitive activity only crosses record-injective
//     transformations, and a grouping one only in-place functions that are
//     bijections (A2E may swap with γ, round() may not);
//   - a selection crosses an aggregation only when it inspects grouper
//     attributes exclusively (filtering whole groups commutes);
//   - a group-based key check crosses no other selective or
//     duplicate-sensitive activity, and DISTINCT never crosses a
//     projection (projections create new duplicates).
//
// A package commutes only if each of its components does.
func guardOneWay(x, y *workflow.Activity) error {
	const name = "SWA"
	cx, cy := x.Class(), y.Class()
	switch {
	case x.Sem.Op == workflow.OpMerged:
		for _, comp := range x.Sem.Components {
			if err := guardOneWay(comp, y); err != nil {
				return err
			}
			if err := guardOneWay(y, comp); err != nil {
				return err
			}
		}
		return nil
	case x.InPlace():
		if attr := x.Sem.OutAttr; cy&workflow.ValueSensitive != 0 && y.Fun.Has(attr) {
			return reject(name, "%s inspects %q, which in-place %s transforms", y.Sem.Op, attr, x.Sem.Fn)
		}
		return nil
	case cx&workflow.DuplicateSensitive == 0 || y.Sem.Op == workflow.OpMerged:
		return nil // a package's components meet x when the roles turn
	}
	groupKeyCheck := y.Sem.Op == workflow.OpPKCheck && cy&workflow.DuplicateSensitive != 0
	nonBijective := y.InPlace() && !algebra.IsBijective(y.Sem.Fn)
	switch x.Sem.Op {
	case workflow.OpAggregate:
		switch {
		case groupKeyCheck:
			return reject(name, "aggregation cannot cross a group-based key check")
		case cy&workflow.DuplicateSensitive != 0:
			return reject(name, "%s and %s are both duplicate-sensitive", x.Sem.Op, y.Sem.Op)
		case cy&workflow.Selective != 0 && !data.Schema(x.Sem.Attrs).HasAll(y.Fun):
			if cy&workflow.ReadsLookup != 0 {
				return reject(name, "key check on non-grouper attributes cannot cross aggregation")
			}
			return reject(name, "selection on non-grouper attributes {%s} cannot cross aggregation", y.Fun)
		case nonBijective:
			return reject(name, "non-bijective in-place %s cannot cross aggregation", y.Sem.Fn)
		}
	case workflow.OpDistinct:
		switch {
		case y.Sem.Op == workflow.OpProject:
			return reject(name, "DISTINCT cannot cross a projection (projections create duplicates)")
		case y.Sem.Op == workflow.OpFunc && !y.RecordInjective():
			return reject(name, "DISTINCT cannot cross non-injective %s", y.Sem.Fn)
		case groupKeyCheck:
			return reject(name, "DISTINCT cannot cross a group-based key check")
		}
	case workflow.OpPKCheck:
		switch {
		case groupKeyCheck:
			if !x.SameOperation(y) {
				return reject(name, "two different group-based key checks cannot swap")
			}
		case cy&workflow.DuplicateSensitive != 0:
			return reject(name, "group-based key check cannot cross %s", y.Sem.Op)
		case cy&workflow.Selective != 0:
			return reject(name, "group-based key check cannot cross a selective activity")
		case nonBijective && slices.Contains(x.Sem.Attrs, y.Sem.OutAttr):
			return reject(name, "non-bijective in-place %s on key attribute cannot cross key check", y.Sem.Fn)
		}
	}
	return nil
}
