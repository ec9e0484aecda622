package verify

import (
	"cmp"
	"fmt"
	"slices"

	"distcount/internal/counter"
	"distcount/internal/sim"
)

// KeyedValue is one completed operation of a keyed (multi-counter) run:
// which shard executed it, which key it addressed, and the key's routing
// epoch when it started. The drain-before-cutover migration protocol
// guarantees every operation ran entirely within one (key, epoch) segment.
type KeyedValue struct {
	Op         sim.OpID
	Shard      int
	Key        int
	Epoch      int
	Value      int
	Start, End int64
}

// ShardReport is one shard's history evaluated at its algorithm's claimed
// consistency level.
type ShardReport struct {
	Shard     int    `json:"shard"`
	Algorithm string `json:"algorithm,omitempty"`
	Report
}

// KeyedReport is the verification result of a keyed run.
//
// Histories partition two ways. By SHARD: a shard is one counter instance
// handing out its own 0,1,2,... sequence to all keys routed to it, so the
// shard history is the unit on which the claimed consistency level is
// meaningful — it gets the full Evaluate (duplicates, gaps, real-time
// order). This stays true across a migration: the migrated key's operations
// simply stop appearing in the old shard's history and start appearing in
// the new one's; both shard histories remain contiguous value spaces. By
// (KEY, EPOCH): within a segment all operations belong to one key on one
// shard, so any duplicate or real-time-order inversion among them is
// attributable to that key — the per-key counters localize which key an
// anomaly hit. Operations of the same key in different epochs ran on
// different shards with independent value sequences, which is exactly why
// they must NOT be compared against each other — the partition by epoch is
// what keeps verification clean across a migration.
//
// Summary aggregates the shard reports into one Report so the existing
// render/gate paths treat a keyed run like any other; the per-key counters
// are measurements (subsets of the shard-level counts), not added again.
type KeyedReport struct {
	Shards []ShardReport `json:"shards"`
	// Keys is the number of distinct keys observed; Segments the number of
	// (key, epoch) segments checked.
	Keys     int `json:"keys"`
	Segments int `json:"segments"`
	// KeyDuplicates and KeyOrderViolations count anomalies localized
	// within a single (key, epoch) segment, evaluated at the owning
	// shard's claimed level (0 for sequential-only shards, order included
	// only for linearizable shards).
	KeyDuplicates      int `json:"key_duplicates"`
	KeyOrderViolations int `json:"key_order_violations"`
	// MigratedKeys counts keys observed in more than one epoch.
	MigratedKeys int    `json:"migrated_keys,omitempty"`
	Summary      Report `json:"summary"`
}

// EvaluateKeyed checks a keyed run: each shard's history against its own
// claimed guarantee (guarantees and algos are indexed by shard), plus
// the per-(key, epoch) segment checks. missing is the number of completed
// operations whose value could not be read back (counted in the summary).
func EvaluateKeyed(guarantees []counter.Guarantee, algos []string, vals []KeyedValue, missing int, fc FaultContext) KeyedReport {
	rep := KeyedReport{}
	var s scratch
	s.seen.reset(len(vals)) // sizes the dense table once for every history below

	// Per-shard histories, carved out of one array sized by a counting pass.
	sizes := make([]int, len(guarantees))
	for _, v := range vals {
		sizes[v.Shard]++
	}
	perShard := make([][]TimedValue, len(guarantees))
	all := make([]TimedValue, len(vals))
	for sh, n := range sizes {
		perShard[sh], all = all[:0:n], all[n:]
	}
	for _, v := range vals {
		perShard[v.Shard] = append(perShard[v.Shard], TimedValue{Op: v.Op, Value: v.Value, Start: v.Start, End: v.End})
	}
	allSame := true
	for sh, g := range guarantees {
		sr := ShardReport{Shard: sh, Report: s.evaluate(g, perShard[sh], 0, fc)}
		if sh < len(algos) {
			sr.Algorithm = algos[sh]
		}
		rep.Shards = append(rep.Shards, sr)
		if g != guarantees[0] {
			allSame = false
		}
	}

	// (key, epoch) segments: group by key, split a migrated key's group by
	// epoch, then run the duplicate and real-time order checks within each
	// segment at the owning shard's level.
	order := groupByKey(vals)
	for i := 0; i < len(order); {
		key, migrated := vals[order[i]].Key, false
		j := i + 1
		for ; j < len(order) && vals[order[j]].Key == key; j++ {
			migrated = migrated || vals[order[j]].Epoch != vals[order[i]].Epoch
		}
		group := order[i:j]
		rep.Keys++
		if migrated {
			rep.MigratedKeys++
			slices.SortStableFunc(group, func(a, b int32) int { return cmp.Compare(vals[a].Epoch, vals[b].Epoch) })
		}
		for a := 0; a < len(group); {
			b := a + 1
			for b < len(group) && vals[group[b]].Epoch == vals[group[a]].Epoch {
				b++
			}
			rep.Segments++
			s.checkSegment(&rep, guarantees, vals, group[a:b])
			a = b
		}
		i = j
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

// groupByKey returns the indices of vals ordered by key, stably (the
// operations of one key keep their collection order). Keys a service
// routes are dense in [0, Keys), so a counting sort over the key span does
// it in linear time; keys spread much wider than the history fall back to
// a comparison sort.
func groupByKey(vals []KeyedValue) []int32 {
	order := make([]int32, len(vals))
	if len(vals) == 0 {
		return order
	}
	lo, hi := vals[0].Key, vals[0].Key
	for _, v := range vals {
		lo, hi = min(lo, v.Key), max(hi, v.Key)
	}
	if span := uint64(hi) - uint64(lo); span >= uint64(2*len(vals)+64) {
		for i := range order {
			order[i] = int32(i)
		}
		slices.SortStableFunc(order, func(a, b int32) int { return cmp.Compare(vals[a].Key, vals[b].Key) })
		return order
	}
	next := make([]int32, hi-lo+2) // next[k-lo]: the next slot of key k
	for _, v := range vals {
		next[v.Key-lo+1]++
	}
	for k := 1; k < len(next); k++ {
		next[k] += next[k-1]
	}
	for i, v := range vals {
		order[next[v.Key-lo]] = int32(i)
		next[v.Key-lo]++
	}
	return order
}

// checkSegment runs the exactness checks within one (key, epoch) segment,
// given as indices into vals: duplicate values, and for linearizable
// shards the real-time order sweep.
func (s *scratch) checkSegment(rep *KeyedReport, guarantees []counter.Guarantee, vals []KeyedValue, seg []int32) {
	level := guarantees[vals[seg[0]].Shard].Level
	// Sequential-only shards make no concurrent claim; approximate shards
	// legitimately repeat values within a key (the whole-shard ε bracket
	// is the claim, checked above), so neither gets the segment checks.
	if level == counter.SequentialOnly || level == counter.Approximate {
		return
	}
	s.seen.reset(len(vals))
	for _, i := range seg {
		if !s.seen.add(vals[i].Value) {
			rep.KeyDuplicates++
		}
	}
	for _, i := range seg {
		s.seen.take(vals[i].Value) // leave the dense table empty for the next segment
	}
	if level == counter.Linearizable {
		ops := s.ops[:0]
		for _, i := range seg {
			v := &vals[i]
			ops = append(ops, TimedValue{Op: v.Op, Value: v.Value, Start: v.Start, End: v.End})
		}
		s.ops = ops
		n, _ := s.orderSweep(ops)
		rep.KeyOrderViolations += n
	}
}
