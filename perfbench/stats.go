package main

import (
	"cmp"
	"fmt"
	"math"
	"regexp"
	"slices"
	"strconv"
)

// span is one closed interval of host time, in nanoseconds since the
// recorder's epoch.
type span struct{ start, end int64 }

// selfTime returns the part of parent that none of the children covers:
// children are clipped to the parent and their union is subtracted, so
// nested, overlapping or out-of-range children can never drive the result
// negative. Children may be unsorted; the slice is left untouched.
func selfTime(parent span, children []span) int64 {
	if parent.end <= parent.start {
		return 0
	}
	cs := make([]span, 0, len(children))
	for _, c := range children {
		c.start, c.end = max(c.start, parent.start), min(c.end, parent.end)
		if c.end > c.start {
			cs = append(cs, c)
		}
	}
	slices.SortFunc(cs, func(a, b span) int { return cmp.Compare(a.start, b.start) })
	covered := int64(0)
	curS, curE := int64(0), int64(0)
	open := false
	for _, c := range cs {
		if open && c.start <= curE {
			curE = max(curE, c.end)
			continue
		}
		if open {
			covered += curE - curS
		}
		curS, curE, open = c.start, c.end, true
	}
	if open {
		covered += curE - curS
	}
	return parent.end - parent.start - covered
}

// quantile is the linear-interpolation (type 7) quantile of sorted data,
// the definition the engine's own percentiles use.
func quantile(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	pos := q * float64(len(sorted)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return sorted[lo] + (pos-float64(lo))*(sorted[hi]-sorted[lo])
}

// median returns the median of xs without reordering them.
func median(xs []float64) float64 {
	s := slices.Clone(xs)
	slices.Sort(s)
	return quantile(s, 0.5)
}

// tailPercentile returns the highest of the standard reporting percentiles
// (99.9, 99, 95, 90, 50) that still has at least minBeyond samples strictly
// beyond its rank, so a tail figure always rests on enough observations.
// ok is false when even the median lacks them.
func tailPercentile(n, minBeyond int) (pct float64, ok bool) {
	for _, permille := range []int{999, 990, 950, 900, 500} {
		if n*(1000-permille) >= minBeyond*1000 { // exact: no float rounding at the edge
			return float64(permille) / 10, true
		}
	}
	return 0, false
}

// failures is the failed-operation accounting shared by every workload.
// Duplicates from sequential-only protocols are a measurement, not a
// failure, exactly as in package verify.
type failures struct {
	Arrivals   int
	Dropped    int
	Wedged     int
	Unserved   int
	Missing    int
	Violations int
}

func (f failures) failed() int {
	return f.Dropped + f.Wedged + f.Unserved + f.Missing + f.Violations
}

func (f failures) frac() float64 {
	if f.Arrivals == 0 {
		return 0
	}
	return float64(f.failed()) / float64(f.Arrivals)
}

func (f *failures) add(g failures) {
	f.Arrivals += g.Arrivals
	f.Dropped += g.Dropped
	f.Wedged += g.Wedged
	f.Unserved += g.Unserved
	f.Missing += g.Missing
	f.Violations += g.Violations
}

// ladderStep is the outcome of one offered rate of the rt ladder.
type ladderStep struct {
	Rate    float64 // offered ops/s
	P99Ns   float64 // p99 latency, scheduled arrival to completion
	Dropped int
	// Backlog is the step's peak admission-queue depth, and Arrivals its
	// request count.
	Backlog  int
	Arrivals int
}

// maxBacklogFrac is the share of a step's requests that may wait in the
// admission queue at once before the backlog counts as growing: a system
// that keeps up queues only the few requests whose initiator is busy.
const maxBacklogFrac = 0.05

// passes reports whether a ladder step meets the p99 limit with no drops
// and no growing backlog.
func (s ladderStep) passes(p99LimitNs float64) bool {
	return s.Dropped == 0 && s.P99Ns <= p99LimitNs &&
		float64(s.Backlog) <= maxBacklogFrac*float64(s.Arrivals)
}

// maxPassingRate is the highest offered rate that passes, scanning the
// ladder in rising order and stopping at the first failure (a pass above a
// failed step is luck, not capacity). Zero when the first step fails.
func maxPassingRate(steps []ladderStep, p99LimitNs float64) float64 {
	best := 0.0
	for _, s := range steps {
		if !s.passes(p99LimitNs) {
			break
		}
		best = s.Rate
	}
	return best
}

var metricNameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)

// validName checks a metric or workload name against the report format:
// a letter or digit first, then at most 63 of letters, digits, '_', '.'
// and '-'.
func validName(name string) error {
	if !metricNameRE.MatchString(name) {
		return fmt.Errorf("invalid metric name %q (want [A-Za-z0-9][A-Za-z0-9_.-]{0,63})", name)
	}
	return nil
}

// ftoa renders a float in its shortest exact form.
func ftoa(x float64) string { return strconv.FormatFloat(x, 'g', -1, 64) }

// ratio is a/b, or 0 when nothing was counted.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
