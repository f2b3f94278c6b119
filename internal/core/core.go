// Package core ties the framework together: it runs the one-time
// preparation phase of paper Figure 3 (determine input → construct NFSM →
// convert to DFSM → precompute matrices) and exposes the resulting
// LogicalOrderings abstract data type whose two hot operations — contains
// and inferNewLogicalOrderings — are O(1) table lookups, with O(1) (one
// int32) order-optimization state per plan node.
package core

import (
	"fmt"
	"time"

	"orderopt/internal/dfsm"
	"orderopt/internal/nfsm"
	"orderopt/internal/order"
)

// State is the LogicalOrderings ADT value a plan node carries: a single
// DFSM state number (4 bytes, the paper's O(1) space bound).
type State int32

// StartState is the state of a plan with no known ordering ("*").
const StartState State = State(dfsm.Start)

// FDHandle identifies an FD set registered with the builder. Operators
// hold their handle and pass it to Infer when applied.
type FDHandle int32

// Options configures the preparation phase.
type Options struct {
	// Pruning selects the §5.7 reduction techniques.
	Pruning nfsm.Options
	// MaxDFSMStates aborts preparation if the powerset construction
	// exceeds this many states (0 = unlimited).
	MaxDFSMStates int
	// TrackEmptyOrdering adds a produced state for the empty ordering so
	// table scans have an entry point and constant dependencies (x =
	// const) can derive (x) from an unordered stream (§5.6). Plan
	// generators should enable this; the paper's worked figures do not
	// use it.
	TrackEmptyOrdering bool
	// MaxSimulationStates bounds the quadratic dominance precompute on
	// degenerate DFSMs; see dfsm.Options. 0 means unlimited.
	MaxSimulationStates int
}

// DefaultOptions enables all pruning, the paper's default configuration.
func DefaultOptions() Options {
	return Options{Pruning: nfsm.AllPruning()}
}

// Builder collects the input of preparation step 1: the interesting
// orders — produced (O_P) and tested-only (O_T) — and one FD set per
// algebraic operator.
type Builder struct {
	reg      *order.Registry
	in       *order.Interner
	produced []order.ID
	tested   []order.ID
	fdSets   []order.FDSet
}

// NewBuilder returns an empty builder with fresh attribute and ordering
// spaces.
func NewBuilder() *Builder {
	return &Builder{reg: order.NewRegistry(), in: order.NewInterner()}
}

// Registry exposes the attribute registry (for name lookups).
func (b *Builder) Registry() *order.Registry { return b.reg }

// Interner exposes the ordering interner.
func (b *Builder) Interner() *order.Interner { return b.in }

// Attr registers (or looks up) an attribute by name.
func (b *Builder) Attr(name string) order.Attr { return b.reg.Attr(name) }

// Ordering interns an ordering over the given attributes.
func (b *Builder) Ordering(attrs ...order.Attr) order.ID { return b.in.Intern(attrs) }

// OrderingOf interns an ordering over the named attributes.
func (b *Builder) OrderingOf(names ...string) order.ID {
	return b.in.Intern(b.reg.Attrs(names...))
}

// AddProduced registers o as a produced interesting order (O_P): some
// physical operator — index scan, sort — can emit a stream in this order.
func (b *Builder) AddProduced(o order.ID) { b.produced = append(b.produced, o) }

// AddTested registers o as a tested-only interesting order (O_T): it is
// required by some operator or the query but never produced directly.
func (b *Builder) AddTested(o order.ID) { b.tested = append(b.tested, o) }

// AddFDSet registers the FD set one algebraic operator induces and
// returns the handle the operator later passes to Infer.
func (b *Builder) AddFDSet(set order.FDSet) FDHandle {
	b.fdSets = append(b.fdSets, set)
	return FDHandle(len(b.fdSets) - 1)
}

// ReplaceFDSet swaps the FD set behind an existing handle (used when
// analysis extends an operator's dependencies, e.g. with key FDs). Only
// valid before Prepare.
func (b *Builder) ReplaceFDSet(h FDHandle, set order.FDSet) {
	b.fdSets[h] = set
}

// Stats reports the preparation outcome — the quantities of the §6.2
// experiment.
type Stats struct {
	NFSMStates       int
	DFSMStates       int
	FDSymbols        int
	ProducedSymbols  int
	PrunedFDs        int
	MergedNodes      int
	PrunedNodes      int
	InertSymbols     int
	PrecomputedBytes int
	PrepTime         time.Duration
}

// Framework is the prepared order-optimization component. All methods
// used during plan generation are constant-time table lookups.
type Framework struct {
	reg   *order.Registry
	in    *order.Interner
	nfsm  *nfsm.Machine
	dfsm  *dfsm.Machine
	fdSym []int // FDHandle → DFSM symbol, or -1 for identity
	stats Stats
}

// Prepare runs preparation steps 2–4 of Figure 3 and returns the ready
// framework.
func (b *Builder) Prepare(opt Options) (*Framework, error) {
	begin := time.Now()
	n, err := nfsm.Build(nfsm.Input{
		Reg:          b.reg,
		In:           b.in,
		Produced:     b.produced,
		Tested:       b.tested,
		FDSets:       b.fdSets,
		IncludeEmpty: opt.TrackEmptyOrdering,
	}, opt.Pruning)
	if err != nil {
		return nil, fmt.Errorf("core: %w", err)
	}
	d, err := dfsm.Convert(n, dfsm.Options{
		MaxStates:           opt.MaxDFSMStates,
		MaxSimulationStates: opt.MaxSimulationStates,
	})
	if err != nil {
		return nil, fmt.Errorf("core: %w", err)
	}
	f := &Framework{reg: b.reg, in: b.in, nfsm: n, dfsm: d, fdSym: n.FDSymbol}
	f.stats = Stats{
		NFSMStates:       n.NumStates(),
		DFSMStates:       d.NumStates(),
		FDSymbols:        n.NumFDSymbols(),
		ProducedSymbols:  len(n.Produced),
		PrunedFDs:        n.PrunedFDs,
		MergedNodes:      n.MergedNodes,
		PrunedNodes:      n.PrunedNodes,
		InertSymbols:     n.InertSymbols,
		PrecomputedBytes: d.PrecomputedBytes(),
		PrepTime:         time.Since(begin),
	}
	return f, nil
}

// Registry returns the attribute registry backing the framework.
func (f *Framework) Registry() *order.Registry { return f.reg }

// Interner returns the ordering interner backing the framework.
func (f *Framework) Interner() *order.Interner { return f.in }

// Stats returns the preparation statistics.
func (f *Framework) Stats() Stats { return f.stats }

// NFSM exposes the constructed NFSM (inspection only).
func (f *Framework) NFSM() *nfsm.Machine { return f.nfsm }

// DFSM exposes the converted DFSM (inspection only).
func (f *Framework) DFSM() *dfsm.Machine { return f.dfsm }

// Produce is the ADT constructor for atomic subplans (table or index
// scans): the state after emitting the produced interesting order o.
// One table lookup (paper §5.6). Producing an ordering the preparation
// did not register as produced yields StartState (no known ordering).
func (f *Framework) Produce(o order.ID) State {
	return State(f.dfsm.ProduceState(o))
}

// Infer is inferNewLogicalOrderings: the state after an operator with FD
// handle h is applied. One table lookup; handles whose dependencies were
// pruned are the identity.
func (f *Framework) Infer(s State, h FDHandle) State {
	sym := f.fdSym[h]
	if sym < 0 {
		return s
	}
	return State(f.dfsm.Step(dfsm.StateID(s), sym))
}

// Contains is the ADT membership test: does the plan's tuple stream
// satisfy ordering o? One bit lookup.
func (f *Framework) Contains(s State, o order.ID) bool {
	return f.dfsm.Contains(dfsm.StateID(s), o)
}

// SubsetOf reports whether every interesting order available in a is
// also available in b — the dominance test for plan pruning.
func (f *Framework) SubsetOf(a, b State) bool {
	return f.dfsm.SubsetOf(dfsm.StateID(a), dfsm.StateID(b))
}

// Sort returns the state of a plan whose stream was just sorted to the
// produced ordering o while the FD sets in held already hold: the start
// transition for o followed by replaying the held FD sets to fixpoint
// (paper §5.6, sort operators).
func (f *Framework) Sort(o order.ID, held []FDHandle) State {
	s := f.Produce(o)
	for {
		prev := s
		for _, h := range held {
			s = f.Infer(s, h)
		}
		if s == prev {
			return s
		}
	}
}

// SortMask is Sort with the held FD sets encoded as a bitmask over FD
// handles (plan generators track applied operators this way; handles
// beyond 63 fall back to the slice form).
func (f *Framework) SortMask(o order.ID, held uint64) State {
	s := f.Produce(o)
	for {
		prev := s
		for h := 0; held>>uint(h) != 0; h++ {
			if held&(1<<uint(h)) != 0 {
				s = f.Infer(s, FDHandle(h))
			}
		}
		if s == prev {
			return s
		}
	}
}

// NumFDHandles returns how many FD sets were registered.
func (f *Framework) NumFDHandles() int { return len(f.fdSym) }
