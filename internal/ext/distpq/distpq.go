// Package distpq implements the second of the paper's two extension
// examples — a distributed priority queue — on the communication tree of
// internal/core. Insert and delete-min both depend on the immediately
// preceding operation (a delete-min must observe every earlier insert), so
// the Hot Spot Lemma and with it the Ω(k) lower bound apply verbatim; the
// tree's retirement machinery again delivers the matching O(k) per-
// processor message load.
package distpq

import (
	"fmt"

	"distcount/internal/core"
	"distcount/internal/sim"
)

// request is one queue operation: insert(pri), delete-min or size.
type request struct {
	kind opKind
	pri  int // insert only
}

type opKind uint8

const (
	insert opKind = iota
	delMin
	size
)

// reply answers a request: the minimum for a delete-min (ok false when the
// queue was empty), the size for a size request, nothing for an insert.
type reply struct {
	val int
	ok  bool
}

// Bits implements sim.BitSized: requests and replies are charged one
// machine word each.
func (request) Bits() int { return 64 }

// Bits implements sim.BitSized, like request.Bits.
func (reply) Bits() int { return 64 }

// pqState is the root state: a binary min-heap of priorities.
type pqState struct {
	heap []int
}

var _ core.RootState[request, reply] = (*pqState)(nil)

// Apply implements core.RootState.
func (s *pqState) Apply(req request) reply {
	switch req.kind {
	case insert:
		s.push(req.pri)
		return reply{}
	case delMin:
		if len(s.heap) == 0 {
			return reply{}
		}
		return reply{val: s.pop(), ok: true}
	case size:
		return reply{val: len(s.heap)}
	default:
		panic(fmt.Sprintf("distpq: unexpected request kind %d", req.kind))
	}
}

// CloneState implements core.RootState.
func (s *pqState) CloneState() core.RootState[request, reply] {
	return &pqState{heap: append([]int(nil), s.heap...)}
}

func (s *pqState) push(v int) {
	s.heap = append(s.heap, v)
	i := len(s.heap) - 1
	for i > 0 {
		parent := (i - 1) / 2
		if s.heap[parent] <= s.heap[i] {
			break
		}
		s.heap[parent], s.heap[i] = s.heap[i], s.heap[parent]
		i = parent
	}
}

func (s *pqState) pop() int {
	top := s.heap[0]
	last := len(s.heap) - 1
	s.heap[0] = s.heap[last]
	s.heap = s.heap[:last]
	i := 0
	for {
		l, r := 2*i+1, 2*i+2
		smallest := i
		if l < len(s.heap) && s.heap[l] < s.heap[smallest] {
			smallest = l
		}
		if r < len(s.heap) && s.heap[r] < s.heap[smallest] {
			smallest = r
		}
		if smallest == i {
			return top
		}
		s.heap[i], s.heap[smallest] = s.heap[smallest], s.heap[i]
		i = smallest
	}
}

// Queue is a distributed priority queue with O(k) bottleneck load.
type Queue struct {
	tree *core.Tree[request, reply]
}

// New creates the queue over the communication tree of arity k.
func New(k int, opts ...core.Option) *Queue {
	return &Queue{tree: core.NewTree(k, &pqState{}, opts...)}
}

// NewForSize creates the queue for at least n processors.
func NewForSize(n int, opts ...core.Option) *Queue {
	return New(core.KForSize(n), opts...)
}

// Tree exposes the underlying communication tree.
func (q *Queue) Tree() *core.Tree[request, reply] { return q.tree }

// N returns the number of processors.
func (q *Queue) N() int { return q.tree.N() }

// Insert adds a priority to the queue on behalf of processor p.
func (q *Queue) Insert(p sim.ProcID, priority int) error {
	_, err := q.tree.Do(p, request{kind: insert, pri: priority})
	return err
}

// DelMin removes and returns the smallest priority; ok is false when the
// queue was empty.
func (q *Queue) DelMin(p sim.ProcID) (priority int, ok bool, err error) {
	r, err := q.tree.Do(p, request{kind: delMin})
	return r.val, r.ok, err
}

// Size returns the number of queued priorities as observed by p.
func (q *Queue) Size(p sim.ProcID) (int, error) {
	r, err := q.tree.Do(p, request{kind: size})
	return r.val, err
}

// Clone returns an independent deep copy.
func (q *Queue) Clone() (*Queue, error) {
	tr, err := q.tree.Clone()
	if err != nil {
		return nil, err
	}
	return &Queue{tree: tr}, nil
}
