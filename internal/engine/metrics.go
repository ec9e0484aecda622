package engine

import (
	"fmt"
	"math"
	"slices"

	"distcount/internal/loadstat"
	"distcount/internal/workload"
)

// metrics accumulates the per-completion measurements of a run and derives
// the result's aggregate fields, so every loop and substrate reports the
// same way.
type metrics struct {
	warmup             int
	completed          int
	opStarts, opDones  []int64 // activity intervals, for PeakInFlight
	lastDone           int64
	measureBegan       bool
	baseSent, baseRecv []int64 // load snapshot at the warmup boundary
	latencies          []int64
	queueDelays        []int64
	serviceLats        []int64
	keyLatSum          []int64 // measured end-to-end latency sum per key
	keyMeasured        []int
}

// newMetrics sizes the accumulation slices from the expected completion
// count (0 = grow by append), so a hinted run's metric collection performs
// no mid-run reallocation.
func newMetrics(warmup, hint, keys int) *metrics {
	// No warmup: measure from t=0 with a zero load baseline.
	m := &metrics{warmup: warmup, measureBegan: warmup == 0}
	if hint > 0 {
		m.opStarts = make([]int64, 0, hint)
		m.opDones = make([]int64, 0, hint)
		if meas := hint - warmup; meas > 0 {
			m.latencies = make([]int64, 0, meas)
			m.queueDelays = make([]int64, 0, meas)
			m.serviceLats = make([]int64, 0, meas)
		}
	}
	if keys > 0 {
		m.keyLatSum = make([]int64, keys)
		m.keyMeasured = make([]int, keys)
	}
	return m
}

// onDone records one completion: its activity interval always, and past
// the warmup boundary its end-to-end latency split into queueing delay
// (arrival to injection) and service latency (injection to completion),
// attributed to its key on a keyed run.
func (m *metrics) onDone(s substrate, res *Result, c completion, tm opTimes) {
	m.completed++
	m.opStarts = append(m.opStarts, tm.start)
	m.opDones = append(m.opDones, c.done)
	m.lastDone = max(m.lastDone, c.done)
	if m.completed <= m.warmup {
		return
	}
	if !m.measureBegan {
		// The op crossing the boundary is the first measured one.
		m.measureBegan = true
		res.MeasureStart = s.now()
		m.baseSent, m.baseRecv = s.loads()
	}
	lat := c.done - tm.arrival
	m.latencies = append(m.latencies, lat)
	m.queueDelays = append(m.queueDelays, tm.start-tm.arrival)
	m.serviceLats = append(m.serviceLats, c.done-tm.start)
	if m.keyLatSum != nil {
		m.keyLatSum[c.key] += lat
		m.keyMeasured[c.key]++
	}
}

// finalize derives the aggregate report fields once the run has drained.
func (m *metrics) finalize(s substrate, res *Result, thinAfter bool, rate float64) error {
	res.Ops = m.completed
	res.Latencies = m.latencies
	res.Measured = len(m.latencies)
	if res.Measured == 0 && res.Wedged == 0 {
		// A wedged run may legitimately complete nothing (every operation
		// stalled on a destroyed event); its zero latency digests are part
		// of the measurement. Without faults an empty measure window is a
		// configuration error.
		return fmt.Errorf("engine: warmup %d consumed all %d operations", m.warmup, m.completed)
	}
	res.SimTime = m.lastDone
	res.Messages = s.messages()
	res.PeakInFlight = peakConcurrency(m.opStarts, m.opDones)
	if thinAfter {
		res.Series = thinSeries(res.Series, 64)
	}
	// Loads inside the measure window only: final loads minus the snapshot
	// at the warmup boundary.
	sent, recv := s.loads()
	if m.baseSent != nil {
		for p := range sent {
			sent[p] -= m.baseSent[p]
			recv[p] -= m.baseRecv[p]
		}
	}
	res.Loads = loadstat.Summarize(sent, recv)
	if res.Measured > 0 {
		res.MessagesPerOp = float64(res.Loads.TotalMessages) / float64(res.Measured)
	}
	res.Arrivals = res.Ops + res.Dropped
	if res.Arrivals > 0 {
		res.DropRate = float64(res.Dropped) / float64(res.Arrivals)
	}

	window := max(res.SimTime-res.MeasureStart, 1)
	res.Throughput = float64(res.Measured) / float64(window) * rate
	res.Latency = summarizeLatencies(m.latencies) // res.Latencies keeps completion order
	// The split vectors are the run's own: sorted in place, not copied.
	slices.Sort(m.queueDelays)
	slices.Sort(m.serviceLats)
	res.QueueDelay = summarizeSorted(m.queueDelays)
	res.ServiceLatency = summarizeSorted(m.serviceLats)

	if svc := s.base().svc; svc != nil {
		res.PerKey = make([]KeyStat, svc.Keys())
		for k := range res.PerKey {
			shard, _ := svc.RouteFor(k)
			res.PerKey[k] = KeyStat{Key: k, Shard: shard, Ops: svc.KeyOps(k)}
			if m.keyMeasured[k] > 0 {
				res.PerKey[k].MeanLatency = float64(m.keyLatSum[k]) / float64(m.keyMeasured[k])
			}
		}
		if evs := svc.Migrations(); len(evs) > 0 {
			res.Migrations = slices.Clone(evs)
		}
	}
	return nil
}

// opsHint resolves the expected completion count used to size the per-op
// metric slices: Config.Ops when set, else the scenario's length hint, else
// 0 (grow-by-append).
func opsHint(cfg Config, gen workload.Generator) int {
	if cfg.Ops > 0 {
		return cfg.Ops
	}
	if sized, ok := gen.(interface{ Len() int }); ok {
		return sized.Len()
	}
	return 0
}

// resolveStride picks the bottleneck-series sampling stride: from the
// config, the scenario's length hint, or per-completion sampling thinned
// after the run.
func resolveStride(cfg Config, gen workload.Generator) (stride int, thinAfter bool) {
	if cfg.SampleEvery > 0 {
		return cfg.SampleEvery, false
	}
	if sized, ok := gen.(interface{ Len() int }); ok && sized.Len() > 0 {
		stride = sized.Len() / 64
		if stride < 1 {
			stride = 1
		}
		return stride, false
	}
	return 1, true
}

// summarizeLatencies computes the latency digest; it does not modify its
// argument. The zero digest is returned for an empty vector.
func summarizeLatencies(lats []int64) LatencyStats {
	sorted := slices.Clone(lats)
	slices.Sort(sorted)
	return summarizeSorted(sorted)
}

// summarizeSorted is summarizeLatencies over an already sorted vector.
func summarizeSorted(sorted []int64) LatencyStats {
	if len(sorted) == 0 {
		return LatencyStats{}
	}
	var sum float64
	for _, l := range sorted {
		sum += float64(l)
	}
	return LatencyStats{
		Mean: sum / float64(len(sorted)),
		P50:  percentile(sorted, 0.50),
		P90:  percentile(sorted, 0.90),
		P99:  percentile(sorted, 0.99),
		Max:  sorted[len(sorted)-1],
	}
}

// percentile interpolates the q-quantile of a sorted vector: the "type 7"
// estimator (linear interpolation between the order statistics at the two
// ranks bracketing q·(len−1), the default of R and NumPy) — not the
// nearest-rank method, which never interpolates.
func percentile(sorted []int64, q float64) float64 {
	if len(sorted) == 1 {
		return float64(sorted[0])
	}
	pos := q * float64(len(sorted)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	if lo == hi {
		return float64(sorted[lo])
	}
	frac := pos - float64(lo)
	return float64(sorted[lo])*(1-frac) + float64(sorted[hi])*frac
}

// peakConcurrency sweeps the operations' [start, done] activity intervals
// and returns the maximum overlap. An operation completing at the same
// tick another starts is not concurrent with it (the closed loop admits
// the successor from the completion); a zero-duration operation — one that
// completes within its own start event — occupies its start tick. The
// argument slices are left untouched (the caller hands over its live
// metrics arrays).
func peakConcurrency(starts, dones []int64) int {
	starts = append([]int64(nil), starts...)
	dones = append([]int64(nil), dones...)
	for i := range dones {
		if dones[i] == starts[i] {
			dones[i]++
		}
	}
	slices.Sort(starts)
	slices.Sort(dones)
	peak, cur, j := 0, 0, 0
	for _, s := range starts {
		for j < len(dones) && dones[j] <= s {
			cur--
			j++
		}
		cur++
		if cur > peak {
			peak = cur
		}
	}
	return peak
}

// thinSeries keeps at most target points, evenly spaced, always retaining
// the final point.
func thinSeries(series []Sample, target int) []Sample {
	if len(series) <= target || target < 2 {
		return series
	}
	out := make([]Sample, 0, target)
	step := float64(len(series)-1) / float64(target-1)
	for i := 0; i < target; i++ {
		out = append(out, series[int(math.Round(float64(i)*step))])
	}
	return out
}

// bucketize splits the op records (already in arrival order) into at most
// buckets consecutive equal-count groups and summarizes each. A bucket's
// span runs from its first arrival to the *next* bucket's first arrival
// (half-open), so the gap between the bucket's last arrival and its
// successor counts toward the offered-rate denominator; closing the span at
// the bucket's own last arrival instead would drop every inter-bucket gap
// and bias OfferedRate high — worst for the sparse low-rate buckets the
// scaling fit leans on. The final bucket, with no successor, ends at its
// own last arrival.
func bucketize(recs []opRec, buckets int) []RateBucket {
	if len(recs) == 0 {
		return nil
	}
	if buckets > len(recs) {
		buckets = len(recs)
	}
	out := make([]RateBucket, 0, buckets)
	// One latency buffer serves every bucket; a bucket holds at most
	// ceil(len/buckets) records.
	lats := make([]int64, 0, (len(recs)+buckets-1)/buckets)
	for i := 0; i < buckets; i++ {
		lo := i * len(recs) / buckets
		hi := (i + 1) * len(recs) / buckets
		if lo >= hi {
			continue
		}
		group := recs[lo:hi]
		end := group[len(group)-1].arrival
		if hi < len(recs) {
			end = recs[hi].arrival
		}
		b := RateBucket{
			Index:     len(out),
			StartTime: group[0].arrival,
			EndTime:   end,
			Arrivals:  len(group),
		}
		lats = lats[:0]
		for _, r := range group {
			switch {
			case r.dropped:
				b.Dropped++
			case r.done >= 0:
				b.Completed++
				lats = append(lats, r.done-r.arrival)
			}
			if r.queueDepth > b.MaxQueueDepth {
				b.MaxQueueDepth = r.queueDepth
			}
			if r.backlog > b.MaxBacklog {
				b.MaxBacklog = r.backlog
			}
		}
		span := b.EndTime - b.StartTime
		if span < 1 {
			span = 1
		}
		b.OfferedRate = float64(b.Arrivals) / float64(span)
		if len(lats) > 0 {
			slices.Sort(lats)
			s := summarizeSorted(lats)
			b.P50, b.P99 = s.P50, s.P99
		}
		out = append(out, b)
	}
	return out
}

// minKneeOps is the fewest completions a bucket needs for its p99 to count
// (as baseline or as knee evidence).
const minKneeOps = 8

// kneeFactor is the saturation threshold: a bucket whose p99 latency
// reaches kneeFactor times the baseline bucket's p99 marks the knee.
const kneeFactor = 4

// detectKnee scans the buckets for the saturation point. The baseline is
// the first bucket with at least minKneeOps completions; the knee is the
// first later bucket that drops requests (the admission queue overflowed)
// or whose p99 reaches factor times the baseline p99. Returns nil when the
// run never saturates.
func detectKnee(buckets []RateBucket, factor float64) *Knee {
	base := -1
	for i, b := range buckets {
		if b.Completed >= minKneeOps {
			base = i
			break
		}
	}
	if base < 0 {
		return nil
	}
	threshold := factor * buckets[base].P99
	if threshold < factor {
		threshold = factor // all-zero baseline: any measurable p99 blowup counts
	}
	for i := base + 1; i < len(buckets); i++ {
		b := buckets[i]
		if b.Dropped > 0 {
			return &Knee{
				Bucket:      i,
				OfferedRate: b.OfferedRate,
				SimTime:     b.StartTime,
				Reason:      "queue",
				BaselineP99: buckets[base].P99,
				P99:         b.P99,
			}
		}
		if b.Completed >= minKneeOps && b.P99 >= threshold {
			return &Knee{
				Bucket:      i,
				OfferedRate: b.OfferedRate,
				SimTime:     b.StartTime,
				Reason:      "latency",
				BaselineP99: buckets[base].P99,
				P99:         b.P99,
			}
		}
	}
	return nil
}
