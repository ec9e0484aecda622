package core

import "distcount/internal/sim"

// The paper notes that its Hot Spot Lemma — and with it the whole lower
// bound — applies to "the family of all distributed data structures in
// which an operation depends on the operation that immediately precedes
// it. Examples for such data structures are a bit that can be accessed and
// flipped, and a priority queue."
//
// The communication tree is agnostic to what the root computes: requests
// climb to the root, the root applies them to its state and answers the
// initiator, and the retirement machinery keeps every processor's load at
// O(k) regardless. RootState captures that seam: the counter (this
// package), the flip-bit and the priority queue (internal/ext/...) are all
// instances.

// RootState is the sequential object the tree serves, typed by its request
// Req and reply Rep. Apply is invoked in the root's delivery context, once
// per operation, in operation order. Requests and replies travel in
// message payloads, so they must be immutable values, and they report
// their own size (sim.BitSized) for the O(log n)-bit message accounting.
type RootState[Req, Rep sim.BitSized] interface {
	// Apply executes one operation against the state and returns the reply
	// sent back to the initiator.
	Apply(req Req) Rep
	// CloneState returns an independent deep copy (for Network.Clone).
	CloneState() RootState[Req, Rep]
}

// inc is the counter's request: an inc needs no argument and costs no bits.
type inc struct{}

// Bits implements sim.BitSized.
func (inc) Bits() int { return 0 }

// count is the counter's reply: the value before the increment.
type count int

// Bits implements sim.BitSized.
func (v count) Bits() int { return sim.BitsFor(int(v)) }

// counterState is the paper's counter: Apply returns the current value and
// increments it.
type counterState struct {
	val count
}

var _ RootState[inc, count] = (*counterState)(nil)

func (s *counterState) Apply(inc) count {
	v := s.val
	s.val++
	return v
}

func (s *counterState) CloneState() RootState[inc, count] {
	cp := *s
	return &cp
}
