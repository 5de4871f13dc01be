package core

import (
	"etlopt/internal/transitions"
	"etlopt/internal/workflow"
)

// TraceStep records one applied transition on the derivation path from
// the initial state to the best state. Steps are recorded only when
// Options.Trace is set; with tracing disabled the search allocates
// nothing for them.
type TraceStep struct {
	// Op is the transition mnemonic: SWA, FAC, DIS, MER or SPL.
	Op string `json:"op"`
	// Args are the node IDs the transition was invoked with, in call
	// order (see transitions.Applied). Node IDs are deterministic, so an
	// auditor can replay the step against a reconstruction of the
	// initial workflow.
	Args []workflow.NodeID `json:"args"`
	// Desc is the paper-notation description, e.g. "SWA(5,6)".
	Desc string `json:"desc"`
	// Sig is the signature of the state after applying this step. It is
	// empty for transient intermediate states the search never
	// materialized (the swaps inside a Phase II/III shift, whose graphs
	// are not retained).
	Sig string `json:"sig,omitempty"`
	// Cost is the state's total cost after this step, valid only when
	// Costed is true — i.e. the search actually evaluated this exact
	// state. Shift intermediates and post-processing splits are never
	// costed (MER/SPL do not change a state's cost).
	Cost   float64 `json:"cost,omitempty"`
	Costed bool    `json:"costed,omitempty"`
}

// stepOf converts a structural transition record into a trace step.
func stepOf(a transitions.Applied, sig string, cost float64, costed bool) TraceStep {
	return TraceStep{Op: a.Op, Args: a.ArgIDs(), Desc: a.Desc, Sig: sig, Cost: cost, Costed: costed}
}

// chain is an immutable parent-linked list: the derivation paths of
// sibling states share their common prefix, extending one is O(1), and
// the slice form is materialised once, for the state that wins.
type chain[T any] struct {
	parent *chain[T]
	v      T
}

// push returns c extended by v; c itself (nil for the empty chain) is
// unchanged.
func (c *chain[T]) push(v T) *chain[T] { return &chain[T]{parent: c, v: v} }

// slice returns the elements oldest first, nil for the empty chain.
func (c *chain[T]) slice() []T {
	n := 0
	for l := c; l != nil; l = l.parent {
		n++
	}
	if n == 0 {
		return nil
	}
	out := make([]T, n)
	for l := c; l != nil; l = l.parent {
		n--
		out[n] = l.v
	}
	return out
}
