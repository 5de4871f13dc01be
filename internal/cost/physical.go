package cost

import (
	"etlopt/internal/workflow"
)

// The paper's conclusions (§6) leave "the physical optimization of ETL
// workflows, i.e., taking physical operators and access methods into
// consideration" as future work. PhysicalModel is a step in that
// direction: a cost model that picks the cheaper physical operator for
// each logical activity based on a memory budget, and charges recordset
// I/O separately from CPU work. Because core.Options accepts any Model,
// the same logical search optimizes under physical costs unchanged — and
// may prefer different plans (e.g. keeping a flow below the hash-memory
// threshold becomes valuable).
type PhysicalModel struct {
	// CPUWeight is the cost of processing one row (default 1).
	CPUWeight float64
	// IOWeight is the cost of reading or writing one recordset row
	// (default 4 — I/O is several times dearer than CPU).
	IOWeight float64
	// MemoryRows is the hash-table capacity: blocking operators whose
	// build input fits use hash-based physical operators at linear CPU
	// cost; larger inputs fall back to sort-based operators at n·log₂n
	// plus a spill charge (default 50 000).
	MemoryRows float64
}

// DefaultPhysicalModel returns the model with its documented defaults.
func DefaultPhysicalModel() PhysicalModel {
	return PhysicalModel{CPUWeight: 1, IOWeight: 4, MemoryRows: 50_000}
}

func (m PhysicalModel) withDefaults() PhysicalModel {
	if m.CPUWeight == 0 {
		m.CPUWeight = 1
	}
	if m.IOWeight == 0 {
		m.IOWeight = 4
	}
	if m.MemoryRows == 0 {
		m.MemoryRows = 50_000
	}
	return m
}

// blockingCost prices a duplicate-sensitive operator: hash-based when the
// input fits in memory, otherwise sort-based with a spill (write + read)
// charge.
func (m PhysicalModel) blockingCost(n float64) float64 {
	if n <= m.MemoryRows {
		return m.CPUWeight * n
	}
	return m.CPUWeight*n*log2(n) + 2*m.IOWeight*(n-m.MemoryRows)
}

// ActivityCost implements Model.
func (m PhysicalModel) ActivityCost(a *workflow.Activity, in []float64) float64 {
	m = m.withDefaults()
	switch a.Sem.Op {
	case workflow.OpFilter, workflow.OpNotNull, workflow.OpProject, workflow.OpFunc:
		return m.CPUWeight * in[0]
	case workflow.OpSurrogateKey:
		// The lookup table is cached (the paper's §2.2 factorization
		// motivation): per-row probing at CPU cost.
		return m.CPUWeight * in[0]
	case workflow.OpPKCheck:
		if a.Sem.Lookup != "" {
			return m.CPUWeight * in[0] // cached key set, per-row probe
		}
		return m.blockingCost(in[0])
	case workflow.OpDistinct, workflow.OpAggregate:
		return m.blockingCost(in[0])
	case workflow.OpMerged:
		total := 0.0
		n := in[0]
		for _, comp := range a.Sem.Components {
			total += m.ActivityCost(comp, []float64{n})
			n = m.OutputRows(comp, []float64{n})
		}
		return total
	case workflow.OpUnion:
		return m.CPUWeight * (in[0] + in[1])
	case workflow.OpJoin, workflow.OpDiff, workflow.OpIntersect:
		// Hash join when the smaller side fits in memory: build small,
		// probe large. Otherwise sort-merge both sides with spills.
		small, large := in[0], in[1]
		if small > large {
			small, large = large, small
		}
		if small <= m.MemoryRows {
			return m.CPUWeight * (small + large)
		}
		return m.blockingCost(in[0]) + m.blockingCost(in[1])
	default:
		return m.CPUWeight * in[0]
	}
}

// OutputRows implements Model; cardinality estimation is physical-operator
// independent and matches RowModel.
func (m PhysicalModel) OutputRows(a *workflow.Activity, in []float64) float64 {
	return RowModel{}.OutputRows(a, in)
}

// RecordsetIO returns the model's I/O charge for moving n rows through a
// recordset boundary. Evaluate charges activities only (C(S) = Σ c(aᵢ),
// §2.2); EvaluateWithIO adds these boundary charges for source scans and
// target loads.
func (m PhysicalModel) RecordsetIO(n float64) float64 {
	return m.withDefaults().IOWeight * n
}

// EvaluateWithIO evaluates a workflow under a physical model including the
// recordset I/O at the workflow's edges: every source is read once and
// every target written once. The activity-only total of Evaluate is the
// paper's C(S); the I/O component is invariant under the logical
// transitions (sources and targets do not move), so optimization decisions
// agree — the split is reported for capacity planning.
func EvaluateWithIO(g *workflow.Graph, m PhysicalModel) (activityCost, ioCost float64, err error) {
	c, err := Evaluate(g, m)
	if err != nil {
		return 0, 0, err
	}
	for _, id := range g.Sources() {
		ioCost += m.RecordsetIO(c.Card(id))
	}
	for _, id := range g.Targets() {
		ioCost += m.RecordsetIO(c.Card(id))
	}
	return c.Total, ioCost, nil
}
