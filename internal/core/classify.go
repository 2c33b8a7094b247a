package core

import (
	"bytes"

	"virtualwire/internal/ether"
)

// Strategy selects how the classifier searches the filter table. All
// strategies implement identical semantics — same winning filter, same
// committed bindings — and differ only in work per packet (see
// docs/PERFORMANCE.md for the measured crossover).
type Strategy int

const (
	// StrategyDefault resolves to linear.
	StrategyDefault Strategy = iota
	// StrategyLinear is the paper's: a scan in table order with
	// first-match priority ("the current VirtualWire implementation
	// searches linearly through the packet type definitions", Section 7 —
	// the cause of Figure 8's linear overhead growth). Fastest at
	// testbed-typical table sizes.
	StrategyLinear
	// StrategyCompiled walks the program's compiled dispatch tree
	// (dispatch.go): flat in #filters.
	StrategyCompiled
	// StrategyAuto picks compiled for tables of AutoCompileThreshold or
	// more filters, linear below.
	StrategyAuto
)

// AutoCompileThreshold is the table size at which StrategyAuto switches
// from the linear scan to compiled dispatch. Below it the scan's lack of
// per-node probes wins; see the BenchmarkClassifierSize sweep.
const AutoCompileThreshold = 16

// String names the strategy as config surfaces spell it.
func (s Strategy) String() string {
	switch s {
	case StrategyDefault:
		return "default"
	case StrategyLinear:
		return "linear"
	case StrategyCompiled:
		return "compiled"
	case StrategyAuto:
		return "auto"
	}
	return "unknown"
}

// Resolve maps Default/Auto onto a concrete strategy for a table of
// nFilters entries.
func (s Strategy) Resolve(nFilters int) Strategy {
	switch s {
	case StrategyDefault:
		return StrategyLinear
	case StrategyAuto:
		if nFilters >= AutoCompileThreshold {
			return StrategyCompiled
		}
		return StrategyLinear
	}
	return s
}

// Classifier matches raw frames against the filter table under one of the
// strategies above. Matching stages variable bindings and commits only
// the winning filter's, so compiled dispatch reproduces linear
// first-match semantics exactly.
type Classifier struct {
	filters []FilterEntry
	// vars holds the run-time bindings of VAR-referenced tuples; nil
	// means unbound. Bindings are engine-local.
	vars [][]byte

	// Strategy selects the search (a concrete strategy; Default behaves
	// as linear).
	Strategy Strategy

	// dispatch is the compiled decision tree, shared immutably across
	// engines when adopted from Program.CompiledDispatch; built lazily
	// (privately) if the compiled strategy is selected without one.
	dispatch *Dispatch

	// TuplesCompared counts tuple comparisons (the unit of the Figure 8
	// cost model).
	TuplesCompared uint64
	// FiltersScanned counts filter entries visited. Compiled dispatch
	// scans a subset of the linear scan's filters for every frame.
	FiltersScanned uint64
	// NodeTests counts dispatch-tree field probes (compiled strategy
	// only). Kept separate from TuplesCompared so the per-filter
	// comparison counts stay strategy-monotone; the engine cost model
	// charges both at PerTuple.
	NodeTests uint64

	// scratch holds the not-yet-committed variable bindings of the filter
	// currently being matched. Classification is strictly sequential per
	// engine, so one reusable slice replaces per-call allocations on the
	// interception hot path.
	scratch []binding
}

// binding is a variable binding pending commit until the whole filter
// matches and wins.
type binding struct {
	v   VarID
	val []byte
}

// NewClassifier builds a classifier over the program's filter table. A
// local dispatch tree builds lazily on first compiled classification if
// none was adopted, so the linear default pays nothing for it.
func NewClassifier(p *Program) *Classifier {
	return &Classifier{
		filters: p.Filters,
		vars:    make([][]byte, len(p.Vars)),
	}
}

// UseDispatch adopts a pre-built (shared, immutable) dispatch tree.
func (c *Classifier) UseDispatch(d *Dispatch) { c.dispatch = d }

// Reset clears all run-time state — variable bindings and work counters —
// so the classifier (and its lazily built structures) can be reused for a
// fresh run over the same filter table.
func (c *Classifier) Reset() {
	for i := range c.vars {
		c.vars[i] = nil
	}
	c.TuplesCompared = 0
	c.FiltersScanned = 0
	c.NodeTests = 0
	c.scratch = c.scratch[:0]
}

// VarBinding returns the current binding of a variable (nil if unbound).
func (c *Classifier) VarBinding(v VarID) []byte {
	if int(v) >= len(c.vars) {
		return nil
	}
	return c.vars[v]
}

// Classify returns the first matching filter, or -1. Variable tuples
// match unconditionally while unbound and bind (engine-locally) when the
// whole filter matches AND wins first-match priority; once bound they
// require byte equality.
func (c *Classifier) Classify(fr *ether.Frame) FilterID {
	if c.Strategy == StrategyCompiled {
		return c.classifyCompiled(fr)
	}
	for i := range c.filters {
		c.FiltersScanned++
		if c.match(i, fr) {
			c.commit()
			return FilterID(i)
		}
	}
	return -1
}

func (c *Classifier) classifyCompiled(fr *ether.Frame) FilterID {
	if c.dispatch == nil {
		c.dispatch = BuildDispatch(c.filters)
	}
	d := c.dispatch
	if len(d.nodes) == 0 {
		return -1
	}
	ni := int32(0)
	for {
		n := &d.nodes[ni]
		if n.length == 0 {
			for _, i := range n.candidates {
				c.FiltersScanned++
				if c.match(int(i), fr) {
					c.commit()
					return FilterID(i)
				}
			}
			return -1
		}
		c.NodeTests++
		next := n.miss
		if end := n.off + n.length; end <= len(fr.Data) {
			if ch, ok := n.edges[packField(fr.Data[n.off:end])]; ok {
				next = ch
			}
		}
		if next < 0 {
			return -1
		}
		ni = next
	}
}

// match applies all tuples of filter i, staging any new variable bindings
// in c.scratch without committing them. The caller commits the winner's
// via commit.
func (c *Classifier) match(i int, fr *ether.Frame) bool {
	f := &c.filters[i]
	pending := c.scratch[:0]
	for ti := range f.Tuples {
		tu := &f.Tuples[ti]
		c.TuplesCompared++
		end := tu.Off + tu.Len
		if end > len(fr.Data) {
			c.scratch = pending
			return false
		}
		field := fr.Data[tu.Off:end]
		if tu.Var >= 0 {
			bound := c.vars[tu.Var]
			if bound == nil {
				// The copy still allocates, but only on the first
				// binding of a variable — never per packet.
				cp := make([]byte, len(field))
				copy(cp, field)
				pending = append(pending, binding{tu.Var, cp})
				continue
			}
			if !bytesEqualMasked(field, bound, tu.Mask) {
				c.scratch = pending
				return false
			}
			continue
		}
		if !bytesEqualMasked(field, tu.Pattern, tu.Mask) {
			c.scratch = pending
			return false
		}
	}
	c.scratch = pending
	return true
}

// commit installs the staged bindings of the filter match just returned
// by match.
func (c *Classifier) commit() {
	for _, b := range c.scratch {
		c.vars[b.v] = b.val
	}
	c.scratch = c.scratch[:0]
}

func bytesEqualMasked(got, want, mask []byte) bool {
	if mask == nil {
		return bytes.Equal(got, want)
	}
	if len(got) != len(want) {
		return false
	}
	for i := range got {
		if got[i]&mask[i] != want[i]&mask[i] {
			return false
		}
	}
	return true
}
