package verify

import (
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"slices"
	"sort"
	"testing"

	"distcount/internal/counter"
	"distcount/internal/sim"
)

// The reference oracle: the verifiers as they stood before the shared order
// sweep, dense value sets and keyed counting sort, kept verbatim as the
// specification the optimized code is compared against. The one change is
// that both order-sweep sorts break ties by op id, as the optimized sweep
// does; the unstable sort.Slice left the tie order (and with it which tied
// operation a First message names) unspecified.

func oracleEvaluateWithFaults(g counter.Guarantee, vals []TimedValue, missing int, fc FaultContext) Report {
	level := g.Level
	exactClaim := level == counter.Quiescent || level == counter.Linearizable
	rep := Report{Property: g.String(), Ops: len(vals), Missing: missing, Wedged: fc.Wedged, FaultsFired: fc.Fired}

	// Exactly-once accounting: duplicates and gaps relative to {0..Ops-1}.
	// For approximate guarantees these stay measurements (repeated values
	// are the point of not paying for exactness), never violations.
	seen := make(map[int]bool, len(vals))
	for _, v := range vals {
		if seen[v.Value] {
			rep.Duplicates++
			if rep.First == "" && exactClaim {
				rep.First = fmt.Sprintf("value %d handed out more than once", v.Value)
			}
			continue
		}
		seen[v.Value] = true
	}
	for v := 0; v < len(vals); v++ {
		if !seen[v] {
			rep.Gaps++
			if rep.First == "" && exactClaim {
				rep.First = fmt.Sprintf("value %d never handed out", v)
			}
		}
	}

	// Real-time order: scan operations by start time, tracking the largest
	// value among operations completed strictly before each start (the same
	// sweep as Linearizable, counting instead of stopping).
	byEnd := append([]TimedValue(nil), vals...)
	sort.Slice(byEnd, func(i, j int) bool {
		if byEnd[i].End != byEnd[j].End {
			return byEnd[i].End < byEnd[j].End
		}
		return byEnd[i].Op < byEnd[j].Op
	})
	byStart := append([]TimedValue(nil), vals...)
	sort.Slice(byStart, func(i, j int) bool {
		if byStart[i].Start != byStart[j].Start {
			return byStart[i].Start < byStart[j].Start
		}
		return byStart[i].Op < byStart[j].Op
	})
	maxDone, ei := -1, 0
	for _, b := range byStart {
		for ei < len(byEnd) && byEnd[ei].End < b.Start {
			if byEnd[ei].Value > maxDone {
				maxDone = byEnd[ei].Value
			}
			ei++
		}
		if maxDone >= b.Value {
			rep.OrderViolations++
			if rep.First == "" && level == counter.Linearizable {
				rep.First = fmt.Sprintf("op %d got value %d although an operation with value >= %d completed before it started",
					b.Op, b.Value, maxDone)
			}
		}
	}

	switch level {
	case counter.Linearizable:
		rep.Violations = rep.Duplicates + rep.Gaps + rep.OrderViolations
	case counter.Quiescent:
		rep.Violations = rep.Duplicates + rep.Gaps
	case counter.Approximate:
		rep.Epsilon = g.Epsilon
		oracleApproximate(&rep, g.Epsilon, vals)
		rep.Violations = rep.OutOfBound
	}
	if fc.Fired {
		rep.Excused = rep.Violations
		rep.Violations = 0
		rep.First = ""
	}
	rep.Violations += rep.Missing
	if rep.Missing > 0 && rep.First == "" {
		rep.First = fmt.Sprintf("%d operations completed without delivering a value", rep.Missing)
	}
	return rep
}

func oracleApproximate(rep *Report, eps float64, vals []TimedValue) {
	starts := make([]int64, len(vals))
	ends := make([]int64, len(vals))
	for i, v := range vals {
		starts[i] = v.Start
		ends[i] = v.End
	}
	sort.Slice(starts, func(i, j int) bool { return starts[i] < starts[j] })
	sort.Slice(ends, func(i, j int) bool { return ends[i] < ends[j] })

	for _, v := range vals {
		// Count of operations that ended strictly before this one started.
		lo := sort.Search(len(ends), func(i int) bool { return ends[i] >= v.Start })
		// Count of operations started by the time this one ended, minus
		// the operation itself (its own start precedes its own end).
		hi := sort.Search(len(starts), func(i int) bool { return starts[i] > v.End }) - 1

		fv := float64(v.Value)
		var relErr float64
		switch {
		case fv < float64(lo):
			relErr = (float64(lo) - fv) / math.Max(float64(lo), 1)
		case fv > float64(hi):
			relErr = (fv - float64(hi)) / math.Max(float64(hi), 1)
		}
		if relErr > rep.MaxRelError {
			rep.MaxRelError = relErr
		}
		if fv < (1-eps)*float64(lo)-approxTolerance || fv > (1+eps)*float64(hi)+approxTolerance {
			rep.OutOfBound++
			if rep.First == "" {
				rep.First = fmt.Sprintf("op %d got value %d, outside ±%g of the true count bracket [%d, %d]",
					v.Op, v.Value, eps, lo, hi)
			}
		}
	}
}

func oracleEvaluateKeyed(guarantees []counter.Guarantee, algos []string, vals []KeyedValue, missing int, fc FaultContext) KeyedReport {
	rep := KeyedReport{}

	perShard := make([][]TimedValue, len(guarantees))
	for _, v := range vals {
		perShard[v.Shard] = append(perShard[v.Shard], TimedValue{Op: v.Op, Value: v.Value, Start: v.Start, End: v.End})
	}
	allSame := true
	for s, g := range guarantees {
		sr := ShardReport{Shard: s, Report: oracleEvaluateWithFaults(g, perShard[s], 0, fc)}
		if s < len(algos) {
			sr.Algorithm = algos[s]
		}
		rep.Shards = append(rep.Shards, sr)
		if g != guarantees[0] {
			allSame = false
		}
	}

	// (key, epoch) segments: group, then run the duplicate + real-time
	// order sweeps within each, at the owning shard's level.
	type segKey struct{ key, epoch int }
	segs := map[segKey][]KeyedValue{}
	keysSeen := map[int]bool{}
	epochsOf := map[int]map[int]bool{}
	for _, v := range vals {
		sk := segKey{v.Key, v.Epoch}
		segs[sk] = append(segs[sk], v)
		keysSeen[v.Key] = true
		if epochsOf[v.Key] == nil {
			epochsOf[v.Key] = map[int]bool{}
		}
		epochsOf[v.Key][v.Epoch] = true
	}
	rep.Keys = len(keysSeen)
	rep.Segments = len(segs)
	for _, es := range epochsOf {
		if len(es) > 1 {
			rep.MigratedKeys++
		}
	}
	for _, seg := range segs {
		level := guarantees[seg[0].Shard].Level
		// Sequential-only shards make no concurrent claim; approximate
		// shards legitimately repeat values within a key (the whole-shard ε
		// bracket is the claim, checked above), so neither gets the
		// exactness segment sweeps.
		if level == counter.SequentialOnly || level == counter.Approximate {
			continue
		}
		seen := make(map[int]bool, len(seg))
		for _, v := range seg {
			if seen[v.Value] {
				rep.KeyDuplicates++
			}
			seen[v.Value] = true
		}
		if level == counter.Linearizable {
			rep.KeyOrderViolations += oracleSegmentOrderViolations(seg)
		}
	}

	// Summary: shard reports aggregated into one Report so keyed results
	// render and gate through the single-counter paths unchanged.
	sum := &rep.Summary
	sum.Missing = missing
	sum.Wedged = fc.Wedged
	sum.FaultsFired = fc.Fired
	for _, sr := range rep.Shards {
		sum.Ops += sr.Ops
		sum.Duplicates += sr.Duplicates
		sum.Gaps += sr.Gaps
		sum.OrderViolations += sr.OrderViolations
		sum.Violations += sr.Violations
		sum.Excused += sr.Excused
		sum.OutOfBound += sr.OutOfBound
		if sr.MaxRelError > sum.MaxRelError {
			sum.MaxRelError = sr.MaxRelError
		}
		if sum.First == "" && sr.First != "" {
			sum.First = fmt.Sprintf("shard %d (%s): %s", sr.Shard, sr.Algorithm, sr.First)
		}
	}
	sum.Violations += missing
	if missing > 0 && sum.First == "" {
		sum.First = fmt.Sprintf("%d operations completed without delivering a value", missing)
	}
	if allSame && len(guarantees) > 0 {
		sum.Property = guarantees[0].String() + "/sharded"
		sum.Epsilon = guarantees[0].Epsilon
	} else {
		sum.Property = "mixed/sharded"
	}
	return rep
}

func oracleSegmentOrderViolations(seg []KeyedValue) int {
	byEnd := append([]KeyedValue(nil), seg...)
	sort.Slice(byEnd, func(i, j int) bool {
		if byEnd[i].End != byEnd[j].End {
			return byEnd[i].End < byEnd[j].End
		}
		return byEnd[i].Op < byEnd[j].Op
	})
	byStart := append([]KeyedValue(nil), seg...)
	sort.Slice(byStart, func(i, j int) bool {
		if byStart[i].Start != byStart[j].Start {
			return byStart[i].Start < byStart[j].Start
		}
		return byStart[i].Op < byStart[j].Op
	})
	violations, maxDone, ei := 0, -1, 0
	for _, b := range byStart {
		for ei < len(byEnd) && byEnd[ei].End < b.Start {
			if byEnd[ei].Value > maxDone {
				maxDone = byEnd[ei].Value
			}
			ei++
		}
		if maxDone >= b.Value {
			violations++
		}
	}
	return violations
}

// levels are the guarantees the randomized and fuzzed histories are
// checked at: every consistency class, two approximate bounds.
var levels = []counter.Guarantee{
	counter.Exact(counter.SequentialOnly),
	counter.Exact(counter.Quiescent),
	counter.Exact(counter.Linearizable),
	counter.Approx(0.05),
	counter.Approx(0.3),
}

// randomHistory draws n operations with clustered start and end times (so
// both tie), op ids unrelated to start order, and values that are a
// permutation of [0, n) with some replaced by duplicates, negative values
// and values ≥ n (which also leaves gaps).
func randomHistory(rng *rand.Rand, n int) []TimedValue {
	vals := make([]TimedValue, n)
	ids := rng.Perm(n)
	perm := rng.Perm(n)
	for i := range vals {
		start := int64(rng.Intn(n/2 + 2))
		v := perm[i]
		switch rng.Intn(10) {
		case 0:
			v = perm[rng.Intn(n)] // duplicate
		case 1:
			v = -1 - rng.Intn(3)
		case 2:
			v = n + rng.Intn(3)
		}
		vals[i] = TimedValue{Op: sim.OpID(ids[i] + 1), Value: v, Start: start, End: start + int64(rng.Intn(4))}
	}
	return vals
}

// checkEvaluate compares EvaluateWithFaults with the oracle on one history.
func checkEvaluate(t *testing.T, g counter.Guarantee, vals []TimedValue, missing int, fc FaultContext) {
	t.Helper()
	in := append([]TimedValue(nil), vals...)
	want := oracleEvaluateWithFaults(g, vals, missing, fc)
	got := EvaluateWithFaults(g, vals, missing, fc)
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("%s, missing %d, %+v over %v:\ngot  %+v\nwant %+v", g, missing, fc, vals, got, want)
	}
	if !slices.Equal(vals, in) {
		t.Fatalf("EvaluateWithFaults reordered its input")
	}
}

// checkKeyed compares EvaluateKeyed with the oracle on one keyed history.
func checkKeyed(t *testing.T, gs []counter.Guarantee, algos []string, vals []KeyedValue, missing int, fc FaultContext) {
	t.Helper()
	want := oracleEvaluateKeyed(gs, algos, vals, missing, fc)
	got := EvaluateKeyed(gs, algos, vals, missing, fc)
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("%v, missing %d, %+v over %v:\ngot  %+v\nwant %+v", gs, missing, fc, vals, got, want)
	}
}

// TestEvaluateMatchesOracle: on seeded random histories covering
// duplicates, gaps, out-of-range values and start/end ties, at every level
// with and without a fired fault, the whole Report (First included) equals
// the oracle's.
func TestEvaluateMatchesOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 3000; trial++ {
		vals := randomHistory(rng, rng.Intn(40))
		fc := FaultContext{Fired: rng.Intn(3) == 0, Wedged: rng.Intn(3)}
		checkEvaluate(t, levels[rng.Intn(len(levels))], vals, rng.Intn(3), fc)
	}
}

// TestEvaluateKeyedMatchesOracle: random keyed histories over mixed shard
// levels, with multi-epoch keys, keys spread too wide for the counting
// sort, and faults both fired and not, give the oracle's KeyedReport.
func TestEvaluateKeyedMatchesOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	for trial := 0; trial < 2000; trial++ {
		shards := 1 + rng.Intn(4)
		gs := make([]counter.Guarantee, shards)
		for s := range gs {
			gs[s] = levels[rng.Intn(len(levels))]
			if trial%4 == 0 {
				gs[s] = gs[0] // all shards alike: the "<level>/sharded" summary
			}
		}
		algos := []string{"a", "b", "c", "d"}[:rng.Intn(shards+1)]
		keys, wide := 1+rng.Intn(8), trial%7 == 0
		var vals []KeyedValue
		for s := 0; s < shards; s++ {
			for _, v := range randomHistory(rng, rng.Intn(30)) {
				key := rng.Intn(keys)
				if wide {
					key = key*1_000_003 - 3
				}
				vals = append(vals, KeyedValue{Op: v.Op, Shard: s, Key: key, Epoch: rng.Intn(3) / 2,
					Value: v.Value, Start: v.Start, End: v.End})
			}
		}
		rng.Shuffle(len(vals), func(i, j int) { vals[i], vals[j] = vals[j], vals[i] })
		fc := FaultContext{Fired: rng.Intn(3) == 0, Wedged: rng.Intn(2)}
		checkKeyed(t, gs, algos, vals, rng.Intn(2), fc)
	}
}

// decodeHistory turns fuzz input into a small history, stride bytes per
// operation: start, duration, value, op id. Values land in [-2, n+2) so
// most fall in the dense range and some outside it; op ids are unique but
// unrelated to start order.
func decodeHistory(data []byte, stride int) []TimedValue {
	n := len(data) / stride
	vals := make([]TimedValue, n)
	for i := range vals {
		b := data[i*stride:]
		start := int64(b[0] % 16)
		vals[i] = TimedValue{Op: sim.OpID(int(b[3])<<8 | i), Value: int(b[2])%(n+4) - 2,
			Start: start, End: start + int64(b[1]%8)}
	}
	return vals
}

// FuzzEvaluate compares EvaluateWithFaults with the oracle on decoded
// histories; the first byte picks the level, the fault context and the
// missing count.
func FuzzEvaluate(f *testing.F) {
	f.Add([]byte{2, 0, 0, 0, 0, 3, 1, 1, 0})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) == 0 {
			return
		}
		h := data[0]
		fc := FaultContext{Fired: h&0x80 != 0, Wedged: int(h>>5) & 1}
		checkEvaluate(t, levels[int(h)%len(levels)], decodeHistory(data[1:], 4), int(h>>3)&3, fc)
	})
}

// FuzzEvaluateKeyed compares EvaluateKeyed with the oracle on decoded
// keyed histories: the first byte picks the shard count, the level pattern
// and the fault context; each operation takes six bytes, the four of
// decodeHistory plus shard and (key, epoch). Key byte 0xff stands for a key
// far outside the others, which the counting sort must not size its
// buckets by.
func FuzzEvaluateKeyed(f *testing.F) {
	f.Add([]byte{0x21, 0, 0, 0, 0, 0, 0, 3, 1, 1, 1, 0, 0x10})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) == 0 {
			return
		}
		h := data[0]
		shards := 1 + int(h)%4
		gs := make([]counter.Guarantee, shards)
		for s := range gs {
			gs[s] = levels[(int(h>>2)+s*int(h>>5))%len(levels)]
		}
		hist := decodeHistory(data[1:], 6)
		vals := make([]KeyedValue, len(hist))
		for i, v := range hist {
			b := data[1+i*6:]
			key := int(b[5] % 8)
			if b[5] == 0xff {
				key = 1 << 40
			}
			vals[i] = KeyedValue{Op: v.Op, Shard: int(b[4]) % shards, Key: key, Epoch: int(b[5]>>3) % 3,
				Value: v.Value, Start: v.Start, End: v.End}
		}
		checkKeyed(t, gs, []string{"a", "b"}, vals, int(h>>6)&1, FaultContext{Fired: h&0x10 != 0})
	})
}
