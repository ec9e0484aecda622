package core

import "distcount/internal/sim"

// Message-size accounting. The paper: "Note that in this way we were able
// to keep the length of messages as short as O(log n) bits." Every payload
// of the tree protocol carries a constant number of identifiers and small
// integers, so each message costs O(log n) bits; the sizes below are
// reported to the network (sim.BitSized) and the test suite asserts the
// O(log n) envelope.

// tagBits distinguishes the protocol's message kinds.
const tagBits = 3

// Bits implements sim.BitSized.
func (p incPayload[Req]) Bits() int {
	return tagBits + sim.BitsFor(p.Target) + sim.BitsFor(int(p.Origin)) + p.Req.Bits()
}

// Bits implements sim.BitSized.
func (p valuePayload[Rep]) Bits() int {
	return tagBits + p.Reply.Bits()
}

// Bits implements sim.BitSized.
func (p handoffJobPayload) Bits() int {
	return tagBits + sim.BitsFor(p.Node) + sim.BitsFor(p.Retirement) + sim.BitsFor(int(p.ParentProc))
}

// Bits implements sim.BitSized.
func (p handoffParentPayload) Bits() int {
	return tagBits + sim.BitsFor(p.Node) + sim.BitsFor(int(p.ParentProc))
}

// Bits implements sim.BitSized.
func (p handoffChildPayload) Bits() int {
	return tagBits + sim.BitsFor(p.Node) + sim.BitsFor(p.Idx) + sim.BitsFor(int(p.ChildProc))
}

// Bits implements sim.BitSized.
func (p newIDPayload) Bits() int {
	target := p.Target
	if target < 0 {
		target = 0 // leaf marker
	}
	return tagBits + sim.BitsFor(target) + sim.BitsFor(p.Changed) + sim.BitsFor(int(p.NewProc))
}

var (
	_ sim.BitSized = incPayload[inc]{}
	_ sim.BitSized = valuePayload[count]{}
	_ sim.BitSized = handoffJobPayload{}
	_ sim.BitSized = handoffParentPayload{}
	_ sim.BitSized = handoffChildPayload{}
	_ sim.BitSized = newIDPayload{}
)
