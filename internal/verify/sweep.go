package verify

import (
	"cmp"
	"slices"

	"distcount/internal/sim"
)

// scratch holds the buffers one evaluation reuses for every history it
// checks: a single run, or each shard and each (key, epoch) segment of a
// keyed run. Nothing in it outlives the evaluation.
type scratch struct {
	seen   valueSet
	ends   []doneValue  // the order sweep's completions, ordered by end
	starts []int64      // approximate bracket: start times, sorted
	ops    []TimedValue // keyed: the segment under the order sweep
}

// doneValue is one completion of the order sweep: its time, and the
// largest value among the operations completed by then.
type doneValue struct {
	end     int64
	maxDone int
}

// orderViolation is the first operation the order sweep flags: op got
// value although an operation with value maxDone ≥ value completed before
// it started.
type orderViolation struct {
	op      sim.OpID
	start   int64
	value   int
	maxDone int
}

// orderSweep is the real-time order check of every verifier in this
// package. It counts the operations of ops whose value is not larger than
// that of some operation that completed strictly before they started, and
// returns the first of them in start order, ties broken by op id. One
// typed sort orders the completions by end and a pass turns their values
// into running maxima; each operation then looks up the completions before
// its start, O(n log n) in all and near-linear on histories that arrive
// nearly in start order. ops is left untouched; s.ends holds the
// completion times in order on return.
func (s *scratch) orderSweep(ops []TimedValue) (violations int, first orderViolation) {
	ends := slices.Grow(s.ends[:0], len(ops))
	for _, o := range ops {
		ends = append(ends, doneValue{end: o.End, maxDone: o.Value})
	}
	s.ends = ends
	// Histories are collected in completion order, so ends is usually
	// already sorted and pdqsort returns after one pass.
	slices.SortFunc(ends, func(a, b doneValue) int { return cmp.Compare(a.end, b.end) })
	maxDone := -1 // nothing completed yet: any negative value is flagged
	for i := range ends {
		maxDone = max(maxDone, ends[i].maxDone)
		ends[i].maxDone = maxDone
	}
	i := 0
	for _, b := range ops {
		i = completedBefore(ends, i, b.Start)
		maxDone = -1
		if i > 0 {
			maxDone = ends[i-1].maxDone
		}
		if maxDone < b.Value {
			continue
		}
		if violations == 0 || b.Start < first.start || b.Start == first.start && b.Op < first.op {
			first = orderViolation{op: b.Op, start: b.Start, value: b.Value, maxDone: maxDone}
		}
		violations++
	}
	return violations, first
}

// completedBefore returns how many of the sorted completions ends precede
// t, starting from guess, the answer for the previous operation. Histories
// arrive nearly in start order, so the answer is usually close: it gallops
// away from guess in doubling steps until it brackets the answer, then
// bisects the bracket, O(log d) for an answer d positions off.
func completedBefore(ends []doneValue, guess int, t int64) int {
	lo, hi := 0, len(ends)
	if guess < len(ends) && ends[guess].end < t {
		lo = guess + 1
		step := 1
		for lo+step <= len(ends) && ends[lo+step-1].end < t {
			lo += step
			step <<= 1
		}
		hi = min(lo+step-1, len(ends))
	} else {
		hi = guess
		step := 1
		for hi-step >= 0 && ends[hi-step].end >= t {
			hi -= step
			step <<= 1
		}
		lo = max(hi-step+1, 0)
	}
	for lo < hi {
		if m := int(uint(lo+hi) >> 1); ends[m].end < t {
			lo = m + 1
		} else {
			hi = m
		}
	}
	return lo
}

// valueSet is the set of values a history handed out: a dense table over
// [0, n), the range a correct history of n operations fills, and a map only
// for values outside it. Every caller empties the dense entries it marked
// before the next reset (Evaluate's gap scan, a segment's second pass), so
// one table serves every history of an evaluation without an O(n) clear.
type valueSet struct {
	n     int
	dense []bool
	other map[int]struct{}
}

// reset empties the set and makes [0, n) its dense range.
func (s *valueSet) reset(n int) {
	s.n = n
	if n > len(s.dense) {
		s.dense = make([]bool, n)
	}
	clear(s.other)
}

// add inserts v and reports whether it was not yet present.
func (s *valueSet) add(v int) bool {
	if uint(v) < uint(s.n) {
		if s.dense[v] {
			return false
		}
		s.dense[v] = true
		return true
	}
	if _, ok := s.other[v]; ok {
		return false
	}
	if s.other == nil {
		s.other = map[int]struct{}{}
	}
	s.other[v] = struct{}{}
	return true
}

// take reports whether v is in the dense range and present, and removes it
// (values outside the range are dropped by the next reset).
func (s *valueSet) take(v int) bool {
	if uint(v) >= uint(s.n) {
		return false
	}
	had := s.dense[v]
	s.dense[v] = false
	return had
}
