package main

import (
	"fmt"
	"slices"
	"sync"
	"time"

	"distcount/internal/engine"
	"distcount/internal/registry"
	"distcount/internal/rt"
	"distcount/internal/sim"
	"distcount/internal/verify"
	"distcount/internal/workload"
)

// rt-ladder: combining on real goroutines, open loop, one fixed ladder of
// offered rates per round. The base step carries the latency figures; the
// top step offers far more than the backend can serve, with an admission
// queue large enough that nothing is dropped, so its completion rate is
// the backend's capacity.
const (
	rtAlgo      = "combining"
	rtN         = 8
	rtBaseRate  = 1000.0 // ops/s
	rtBaseDur   = 2 * time.Second
	rtStepDur   = 400 * time.Millisecond
	rtTopRate   = 100000.0
	rtTopDur    = 100 * time.Millisecond
	rtP99Limit  = 20 * time.Millisecond
	rtProbeIncs = 3000
	// setup_s: rtSetupBatches batches of rtSetupsPerBatch set-ups per pass.
	rtSetupBatches   = 10
	rtSetupsPerBatch = 20
)

// rtLadder is every step rate of a round after the base step, rising.
var rtLadder = []float64{2000, 4000, 8000, 16000}

// stepOut is one rt step's measurement.
type stepOut struct {
	rate  float64
	cpuNs int64 // process CPU over the engine call (untraced steps)
	res   *engine.Result
	rep   *verify.Report
	fail  failures
	tr    *traceTotals
}

func (s *stepOut) ladder() ladderStep {
	return ladderStep{Rate: s.rate, P99Ns: s.res.Latency.P99, Dropped: s.res.Dropped,
		Backlog: s.res.PeakQueueDepth, Arrivals: s.res.Arrivals}
}

// rtStepGen is the seeded Poisson stream of one step: uniform initiators,
// mean interarrival 1/rate (ticks are microseconds on the rt backend).
func rtStepGen(rate float64, dur time.Duration, seed uint64) (workload.Generator, int, error) {
	ops := int(rate * dur.Seconds())
	gen, err := workload.New("uniform", workload.Config{
		N: rtN, Ops: ops, Seed: seed,
		MeanGap: int64(float64(time.Second/rt.DefaultTick) / rate),
	})
	return gen, ops, err
}

// newRTStep builds one step's rt counter through the registry, and its
// request stream.
func newRTStep(rate float64, dur time.Duration, seed uint64) (*rt.Runtime, workload.Generator, int, error) {
	ctr, err := registry.NewWith(rtAlgo, rtN, registry.Config{Window: registry.DefaultWindow, Backend: "rt"})
	if err != nil {
		return nil, nil, 0, err
	}
	r := ctr.(*rt.Runtime)
	gen, ops, err := rtStepGen(rate, dur, seed)
	if err != nil {
		r.Close()
		return nil, nil, 0, err
	}
	return r, gen, ops, nil
}

// rtSetup builds and closes one base step, returning the build's thread
// CPU time.
func rtSetup(seed uint64) (int64, error) {
	c0 := threadCPU()
	r, _, _, err := newRTStep(rtBaseRate, rtBaseDur, seed)
	c1 := threadCPU()
	if err != nil {
		return 0, err
	}
	r.Close()
	return c1 - c0, nil
}

// runRTStep drives one step untraced, with engine verification on.
func runRTStep(rate float64, dur time.Duration, seed uint64) (*stepOut, error) {
	r, gen, ops, err := newRTStep(rate, dur, seed)
	if err != nil {
		return nil, err
	}
	p0 := processCPU()
	res, err := engine.RunWall(r, gen, engine.Config{Mode: engine.Open, QueueCap: ops + 1, Verify: true})
	if err != nil {
		return nil, err
	}
	s := &stepOut{rate: rate, cpuNs: processCPU() - p0, res: res, rep: res.Verification}
	s.fail = failuresOf(res, res.Verification)
	return s, nil
}

// runRTStepTraced drives one step with the Machine wrapped before rt.New:
// handler spans go to per-processor buffers, and the benchmark verifies
// the values itself. Each op's interval runs from its initiation (read on
// the processor's transport clock) to the moment the engine drained its
// value. Both ends are later than the op's true ones, so when one op's
// interval ends before another's starts, the first really completed before
// the second began: a linearizable run cannot fail this check spuriously.
func runRTStepTraced(rate float64, dur time.Duration, seed uint64) (*stepOut, error) {
	m, err := registry.NewMachine(rtAlgo, rtN, registry.Config{Window: registry.DefaultWindow})
	if err != nil {
		return nil, err
	}
	wm, mt := wrapMachine(m, true)
	var (
		r      *rt.Runtime
		mu     sync.Mutex
		drains = map[sim.OpID][2]int64{} // op -> value, drain time
	)
	value := m.Value
	wm.Value = func(id sim.OpID) (int, bool) {
		v, ok := value(id)
		if ok {
			mu.Lock()
			drains[id] = [2]int64{int64(v), r.NowNs()}
			mu.Unlock()
		}
		return v, ok
	}
	r = rt.New(wm)
	inner, ops, err := rtStepGen(rate, dur, seed)
	if err != nil {
		r.Close()
		return nil, err
	}
	gen := &tracedGen{inner: inner, keep: true}
	t1 := now()
	res, err := engine.RunWall(r, gen, engine.Config{Mode: engine.Open, QueueCap: ops + 1})
	t2 := now()
	if err != nil {
		return nil, err
	}
	vals := make([]verify.TimedValue, 0, len(drains))
	missing := 0
	for _, rec := range mt.recs {
		for _, st := range rec.starts {
			d, ok := drains[st.op]
			if !ok {
				missing++
				continue
			}
			vals = append(vals, verify.TimedValue{Op: st.op, Value: int(d[0]), Start: st.at, End: d[1]})
		}
	}
	slices.SortFunc(vals, func(a, b verify.TimedValue) int { return int(a.Op - b.Op) })
	rep := verify.Evaluate(m.Guarantee, vals, missing)
	t3 := now()

	tot := mt.total()
	children := append(mt.spans(), gen.spans...)
	tr := &traceTotals{
		ops:          res.Ops,
		engineNs:     t2 - t1,
		engineSelfNs: selfTime(span{t1, t2}, children),
		genNs:        gen.acc.ns,
		genCalls:     gen.acc.calls,
		initNs:       tot.initiate.ns,
		initCalls:    tot.initiate.calls,
		delivNs:      tot.deliver.ns,
		delivCalls:   tot.deliver.calls,
		sendNs:       tot.send.ns,
		sendCalls:    tot.send.calls,
		msgs:         tot.msgs,
		initSelfNs:   tot.initiate.ns - tot.sendInInitiate,
		delivSelfNs:  tot.deliver.ns - tot.sendInDeliver,
		verifyNs:     t3 - t2,
		algos: map[string]*algoTotals{rtAlgo: {
			ops: res.Ops, initSelfNs: tot.initiate.ns - tot.sendInInitiate,
			delivSelfNs: tot.deliver.ns - tot.sendInDeliver, delivCalls: tot.deliver.calls, msgs: tot.msgs,
		}},
	}
	s := &stepOut{rate: rate, res: res, rep: &rep, tr: tr}
	s.fail = failuresOf(res, &rep)
	return s, nil
}

// runLadder runs one pass over the ladder: the base step, the rising
// steps, then the top step.
func runLadder(seed uint64) ([]*stepOut, error) {
	rates := append(append([]float64{rtBaseRate}, rtLadder...), rtTopRate)
	var steps []*stepOut
	for i, rate := range rates {
		dur := rtStepDur
		switch i {
		case 0:
			dur = rtBaseDur
		case len(rates) - 1:
			dur = rtTopDur
		}
		s, err := runRTStep(rate, dur, seed+uint64(i))
		if err != nil {
			return nil, err
		}
		steps = append(steps, s)
	}
	return steps, nil
}

// medianOver is the median of f over the steps' engine results.
func medianOver(steps []*stepOut, f func(*engine.Result) float64) float64 {
	xs := make([]float64, len(steps))
	for i, s := range steps {
		xs[i] = f(s.res)
	}
	return median(xs)
}

// maxRate applies the ladder rule to one ladder.
func maxRate(ladder []*stepOut) float64 {
	steps := make([]ladderStep, len(ladder))
	for i, s := range ladder {
		steps[i] = s.ladder()
	}
	return maxPassingRate(steps, float64(rtP99Limit.Nanoseconds()))
}

// rtRoundTrip is the isolated round trip of one Runtime.Inc on central at
// n=8: no engine, no pacing, no merge window, median over many calls.
func rtRoundTrip() (float64, error) {
	ctr, err := registry.NewWith("central", rtN, registry.Config{Backend: "rt"})
	if err != nil {
		return 0, err
	}
	r := ctr.(*rt.Runtime)
	defer r.Close()
	lat := make([]float64, 0, rtProbeIncs)
	for i := 0; i < rtProbeIncs+rtProbeIncs/10; i++ {
		p := sim.ProcID(2 + i%(rtN-1)) // never the holder: always one message each way
		t0 := now()
		v, err := r.Inc(p)
		d := now() - t0
		if err != nil {
			return 0, err
		}
		if v != i {
			return 0, fmt.Errorf("rt probe: Inc %d returned %d", i, v)
		}
		if i >= rtProbeIncs/10 {
			lat = append(lat, float64(d))
		}
	}
	return median(lat), nil
}

func runRTLadder(rep *report, seed uint64, seconds float64, traced bool) error {
	deadline := time.Now().Add(time.Duration(seconds * float64(time.Second)))
	if traced {
		return rtLayers(rep, seed, deadline)
	}
	// One ladder, then base-rate steps for the rest of the pass. All of it
	// counts toward the CPU and allocation figures; the base steps carry the
	// latency figures.
	var (
		c      cellOut
		setups []float64
	)
	// Set-ups are timed in small batches spread over the pass: a single
	// batch of microsecond-long set-ups sees the machine only as it was in
	// that instant.
	setUp := func(i int) error {
		for j := 0; j < rtSetupsPerBatch; j++ {
			ns, err := rtSetup(seed + uint64(i*rtSetupsPerBatch+j))
			if err != nil {
				return err
			}
			setups = append(setups, float64(ns)/1e9)
		}
		return nil
	}
	if err := setUp(0); err != nil {
		return err
	}
	mem := startMem()
	ladder, err := runLadder(seed)
	if err != nil {
		return err
	}
	steps := slices.Clone(ladder)
	base := []*stepOut{ladder[0]}
	for i := 1; len(base) < 3 || time.Now().Before(deadline); i++ {
		s, err := runRTStep(rtBaseRate, rtBaseDur, seed+uint64(100+i))
		if err != nil {
			return err
		}
		steps = append(steps, s)
		base = append(base, s)
	}
	mem.into(&c)
	for i := 1; i < rtSetupBatches; i++ {
		if err := setUp(i); err != nil {
			return err
		}
	}

	var (
		lat        []float64
		ops        int
		all, bfail failures
	)
	var cpu int64
	for _, s := range steps {
		all.add(s.fail)
		ops += s.res.Ops
		cpu += s.cpuNs
		if s.fail.Violations > 0 || s.fail.Missing > 0 {
			rep.problemf("verification at %g ops/s: %d violations, %d missing values", s.rate, s.fail.Violations, s.fail.Missing)
		}
	}
	for _, s := range base {
		bfail.add(s.fail)
		for _, l := range s.res.Latencies {
			lat = append(lat, float64(l))
		}
	}
	rep.attempted, rep.failed = all.Arrivals, all.failed()
	slices.Sort(lat)
	m := rep.metrics
	m["setup_s"] = median(setups)
	m["ops_per_cpu_s"] = float64(ops) / float64(cpu) * 1e9
	m["allocs_per_op"] = float64(c.mallocs) / float64(ops)
	m["alloc_bytes_per_op"] = float64(c.bytes) / float64(ops)
	m["latency_p50_ms"] = quantile(lat, 0.5) / 1e6
	for _, d := range endToEnd {
		rep.linef("%-22s %14.6g %s", d.name, m[d.name], d.unit)
	}
	rep.linef("latency_p50_us         %14.6g us from scheduled arrival to completion at %g ops/s (%d samples pooled over %d base steps)",
		quantile(lat, 0.5)/1e3, rtBaseRate, len(lat), len(base))
	rep.linef("latency_p90_us         %14.6g us", quantile(lat, 0.9)/1e3)
	rep.linef("latency_p99_us         %14.6g us (%d samples beyond it)", quantile(lat, 0.99)/1e3, len(lat)/100)
	if p, ok := tailPercentile(len(lat), 10); ok {
		rep.linef("latency tail           p%s = %.6g us", ftoa(p), quantile(lat, p/100)/1e3)
	}
	top := ladder[len(ladder)-1]
	rep.linef("service_p50_us         %14.6g us from injection to completion, p90 %.6g us, p99 %.6g us (medians over base steps)",
		medianOver(base, func(r *engine.Result) float64 { return r.ServiceLatency.P50 })/1e3,
		medianOver(base, func(r *engine.Result) float64 { return r.ServiceLatency.P90 })/1e3,
		medianOver(base, func(r *engine.Result) float64 { return r.ServiceLatency.P99 })/1e3)
	rep.linef("max_rate_ops_s         %14.6g ops/s (p99 limit %v; ladder 1k, %v, then %g ops/s)", maxRate(ladder), rtP99Limit, rtLadder, rtTopRate)
	rep.linef("capacity_ops_s         %14.6g ops/s completed at the %g ops/s top step", top.res.Throughput, rtTopRate)
	rep.linef("failed_frac            %14.6g at the base rate (%d of %d); %d of %d over the pass",
		bfail.frac(), bfail.failed(), bfail.Arrivals, all.failed(), all.Arrivals)
	return nil
}

// rtLayers is the traced pass: untraced and traced base-rate steps
// alternate, and the isolated Runtime.Inc probe runs once.
func rtLayers(rep *report, seed uint64, deadline time.Time) error {
	m := rep.metrics
	for _, d := range perLayer {
		m[d.name] = 0
	}
	var plain, traced []*stepOut
	for i := 0; len(traced) < 2 || time.Now().Before(deadline); i++ {
		s, err := runRTStep(rtBaseRate, rtBaseDur/2, seed+uint64(i))
		if err != nil {
			return err
		}
		t, err := runRTStepTraced(rtBaseRate, rtBaseDur/2, seed+uint64(i))
		if err != nil {
			return err
		}
		for _, x := range []*stepOut{s, t} {
			rep.attempted += x.fail.Arrivals
			rep.failed += x.fail.failed()
			if x.fail.Violations > 0 || x.fail.Missing > 0 {
				rep.problemf("verification: %d violations, %d missing values", x.fail.Violations, x.fail.Missing)
			}
		}
		plain = append(plain, s)
		traced = append(traced, t)
	}
	rtt, err := rtRoundTrip()
	if err != nil {
		return err
	}
	tot := &traceTotals{}
	var svcMean []float64
	for _, s := range traced {
		tot.add(s.tr)
		svcMean = append(svcMean, s.res.ServiceLatency.Mean)
	}
	fops := float64(tot.ops)
	tickNs := float64(rt.DefaultTick.Nanoseconds())
	handlerNs := ratio(float64(tot.initNs+tot.delivNs), fops)
	m["workload.next_ns_per_req"] = ratio(float64(tot.genNs), float64(tot.genCalls))
	m["engine.self_ns_per_op"] = ratio(float64(tot.engineSelfNs), fops)
	m["engine.queue_delay_p50"] = medianOver(plain, func(r *engine.Result) float64 { return r.QueueDelay.P50 }) / tickNs
	m["engine.queue_delay_p99"] = medianOver(plain, func(r *engine.Result) float64 { return r.QueueDelay.P99 }) / tickNs
	m["engine.dropped"] = medianOver(plain, func(r *engine.Result) float64 { return float64(r.Dropped) })
	m["engine.peak_in_flight"] = medianOver(plain, func(r *engine.Result) float64 { return float64(r.PeakInFlight) })
	m["protocol.initiate_ns_per_op"] = ratio(float64(tot.initSelfNs), fops)
	m["protocol.deliver_ns_per_msg"] = ratio(float64(tot.delivSelfNs), float64(tot.delivCalls))
	m["protocol.msgs_per_op"] = ratio(float64(tot.msgs), fops)
	m["protocol.initiate_ns_per_op."+rtAlgo] = m["protocol.initiate_ns_per_op"]
	m["protocol.deliver_ns_per_msg."+rtAlgo] = m["protocol.deliver_ns_per_msg"]
	m["protocol.msgs_per_op."+rtAlgo] = m["protocol.msgs_per_op"]
	m["rt.service_p50_us"] = medianOver(plain, func(r *engine.Result) float64 { return r.ServiceLatency.P50 }) / 1e3
	m["rt.service_p99_us"] = medianOver(plain, func(r *engine.Result) float64 { return r.ServiceLatency.P99 }) / 1e3
	m["rt.handler_us_per_op"] = handlerNs / 1e3
	m["rt.wait_us_per_op"] = (median(svcMean) - handlerNs) / 1e3
	m["rt.roundtrip_ns"] = rtt
	m["verify.ns_per_op"] = ratio(float64(tot.verifyNs), fops)
	plainP50 := medianOver(plain, func(r *engine.Result) float64 { return r.ServiceLatency.P50 })
	tracedP50 := medianOver(traced, func(r *engine.Result) float64 { return r.ServiceLatency.P50 })
	m["trace.overhead_frac"] = tracedP50/plainP50 - 1
	var viol, dup int
	for _, s := range traced {
		viol += s.rep.Violations
		dup += s.rep.Duplicates
	}
	m["verify.violations"] = float64(viol)
	m["verify.duplicates"] = float64(dup)

	for _, d := range perLayer {
		if m[d.name] != 0 {
			rep.linef("%-40s %14.6g %s", d.name, m[d.name], d.unit)
		}
	}
	rep.linef("%d traced and %d untraced base-rate steps of %v at %g ops/s; trace.overhead_frac compares their p50 service latency",
		len(traced), len(plain), rtBaseDur/2, rtBaseRate)
	return nil
}
