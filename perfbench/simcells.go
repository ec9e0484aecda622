package main

import (
	"fmt"
	"runtime"

	"distcount/internal/engine"
	"distcount/internal/registry"
	"distcount/internal/verify"
	"distcount/internal/workload"
)

// simRun is one single-counter engine run of a workload cell.
type simRun struct {
	algo     string
	n        int
	scenario string
	wcfg     workload.Config
	ecfg     engine.Config
	reg      registry.Config
}

// cellOut is what one cell (a fixed set of engine runs on the workload's
// seeded inputs) measured.
type cellOut struct {
	set     int // input set index
	ops     int
	setupNs int64 // thread CPU
	runNs   int64 // engine calls, verification included (thread CPU)
	mallocs uint64
	bytes   uint64
	gc      uint32
	pauseNs uint64
	fail    failures
	// fp fingerprints every simulated statistic and verification count;
	// repeats of a cell, traced or not, must produce it byte for byte.
	fp string
	// sim summarizes the simulated results for the report.
	simTime                int64
	kneeRate, p99Ticks     float64
	qdP50, qdP99           float64
	dropped, peakInFlight  int
	violations, duplicates int
	tr                     *traceTotals // traced cells only
}

// algoTotals is one algorithm's protocol-layer share of a traced cell.
type algoTotals struct {
	ops                     int
	initSelfNs, delivSelfNs int64
	delivCalls, msgs        int64
}

// traceTotals sums a traced cell's spans. Inclusive handler times contain
// the transport calls they issued; the *Self fields exclude them.
type traceTotals struct {
	ops                 int
	engineNs            int64
	engineSelfNs        int64 // engine call minus every child span
	genNs, genCalls     int64
	schedNs             int64
	initNs, initCalls   int64
	delivNs, delivCalls int64
	sendNs, sendCalls   int64
	msgs                int64
	initSelfNs          int64
	delivSelfNs         int64
	verifyNs            int64
	svcStartNs, svcOps  int64
	svcStepNs, svcSteps int64
	svcMigrations       int
	svcMaxShare         float64
	algos               map[string]*algoTotals
}

func (t *traceTotals) add(u *traceTotals) {
	t.ops += u.ops
	t.engineNs += u.engineNs
	t.engineSelfNs += u.engineSelfNs
	t.genNs += u.genNs
	t.genCalls += u.genCalls
	t.schedNs += u.schedNs
	t.initNs += u.initNs
	t.initCalls += u.initCalls
	t.delivNs += u.delivNs
	t.delivCalls += u.delivCalls
	t.sendNs += u.sendNs
	t.sendCalls += u.sendCalls
	t.msgs += u.msgs
	t.initSelfNs += u.initSelfNs
	t.delivSelfNs += u.delivSelfNs
	t.verifyNs += u.verifyNs
	t.svcStartNs += u.svcStartNs
	t.svcOps += u.svcOps
	t.svcStepNs += u.svcStepNs
	t.svcSteps += u.svcSteps
	t.svcMigrations = max(t.svcMigrations, u.svcMigrations)
	t.svcMaxShare = max(t.svcMaxShare, u.svcMaxShare)
	if t.algos == nil {
		t.algos = map[string]*algoTotals{}
	}
	for name, a := range u.algos {
		b := t.algos[name]
		if b == nil {
			b = &algoTotals{}
			t.algos[name] = b
		}
		b.ops += a.ops
		b.initSelfNs += a.initSelfNs
		b.delivSelfNs += a.delivSelfNs
		b.delivCalls += a.delivCalls
		b.msgs += a.msgs
	}
}

// memDelta brackets a measured section with MemStats reads.
type memDelta struct{ before runtime.MemStats }

func startMem() *memDelta {
	m := &memDelta{}
	runtime.ReadMemStats(&m.before)
	return m
}

func (m *memDelta) into(c *cellOut) {
	var after runtime.MemStats
	runtime.ReadMemStats(&after)
	c.mallocs += after.Mallocs - m.before.Mallocs
	c.bytes += after.TotalAlloc - m.before.TotalAlloc
	c.gc += after.NumGC - m.before.NumGC
	c.pauseNs += after.PauseTotalNs - m.before.PauseTotalNs
}

// fingerprint renders the simulated statistics and verification counts of
// one engine result; two runs on the same inputs must agree exactly.
func fingerprint(res *engine.Result, rep *verify.Report) string {
	knee := "none"
	if res.Knee != nil {
		knee = fmt.Sprintf("%d/%v/%s", res.Knee.Bucket, res.Knee.OfferedRate, res.Knee.Reason)
	}
	s := fmt.Sprintf("%s ops=%d t=%d msgs=%d mpo=%v lat=%+v qd=%+v svc=%+v tp=%v peak=%d drop=%d knee=%s wedged=%d unserved=%d",
		res.Algorithm, res.Ops, res.SimTime, res.Messages, res.MessagesPerOp, res.Latency, res.QueueDelay,
		res.ServiceLatency, res.Throughput, res.PeakInFlight, res.Dropped, knee, res.Wedged, res.Unserved)
	if rep != nil {
		s += fmt.Sprintf(" verify=%s/%d/%d/%d/%d/%d/%d", rep.Property, rep.Ops, rep.Missing, rep.Duplicates,
			rep.Gaps, rep.OrderViolations, rep.Violations)
	}
	return s + "\n"
}

// failuresOf counts one engine run's failed operations. Arrivals the
// engine never admitted (unserved behind a wedge) count as attempted.
func failuresOf(res *engine.Result, rep *verify.Report) failures {
	f := failures{Arrivals: res.Arrivals + res.Wedged + res.Unserved,
		Dropped: res.Dropped, Wedged: res.Wedged, Unserved: res.Unserved}
	if rep != nil {
		f.Missing, f.Violations = rep.Missing, rep.Violations
	}
	return f
}

// noteResult folds one engine result and its verification into the cell.
func (c *cellOut) noteResult(res *engine.Result, rep *verify.Report) {
	c.ops += res.Ops
	c.fp += fingerprint(res, rep)
	c.fail.add(failuresOf(res, rep))
	if rep != nil {
		c.violations += rep.Violations
		c.duplicates += rep.Duplicates
	}
	c.simTime += res.SimTime
	if res.Knee != nil {
		c.kneeRate += res.Knee.OfferedRate
	}
	c.p99Ticks = max(c.p99Ticks, res.Latency.P99)
	c.qdP50 = max(c.qdP50, res.QueueDelay.P50)
	c.qdP99 = max(c.qdP99, res.QueueDelay.P99)
	c.dropped += res.Dropped
	c.peakInFlight = max(c.peakInFlight, res.PeakInFlight)
}

// runSimCell runs every simRun of a cell untraced: registry counters with
// engine verification on, exactly as the loadgen CLI drives them.
func runSimCell(runs []simRun) (*cellOut, error) {
	c := &cellOut{}
	for _, r := range runs {
		c0 := threadCPU()
		ctr, err := registry.NewWith(r.algo, r.n, r.reg)
		if err != nil {
			return nil, err
		}
		gen, err := workload.New(r.scenario, r.wcfg)
		if err != nil {
			return nil, err
		}
		ecfg := r.ecfg
		ecfg.Verify = true
		mem := startMem()
		c1 := threadCPU()
		res, err := engine.Run(ctr, gen, ecfg)
		c2 := threadCPU()
		mem.into(c)
		if err != nil {
			return nil, err
		}
		c.setupNs += c1 - c0
		c.runNs += c2 - c1
		c.noteResult(res, res.Verification)
	}
	return c, nil
}

// runSimCellTraced runs the same cell with every layer wrapped: the
// registry's Machine hosted on a fresh network behind hostedCounter,
// engine verification off, and verify.Evaluate called here on the values
// the host collected.
func runSimCellTraced(runs []simRun) (*cellOut, error) {
	c := &cellOut{tr: &traceTotals{algos: map[string]*algoTotals{}}}
	for _, r := range runs {
		c0 := threadCPU()
		m, err := registry.NewMachine(r.algo, r.n, r.reg)
		if err != nil {
			return nil, err
		}
		wm, mt := wrapMachine(m, false)
		var sched layerAcc
		h := newHostedCounter(wm, &sched, r.reg.SimOpts...)
		inner, err := workload.New(r.scenario, r.wcfg)
		if err != nil {
			return nil, err
		}
		gen := &tracedGen{inner: inner}
		ecfg := r.ecfg
		ecfg.Verify = false
		mem := startMem()
		c1 := threadCPU()
		t1 := now()
		res, err := engine.Run(h, gen, ecfg)
		t2 := now()
		rep := verify.Evaluate(h.Guarantee(), h.vals, h.missing)
		t3 := now()
		c2 := threadCPU()
		mem.into(c)
		if err != nil {
			return nil, err
		}
		c.setupNs += c1 - c0
		c.runNs += c2 - c1
		c.noteResult(res, &rep)

		tot := mt.total()
		tr := c.tr
		tr.ops += res.Ops
		tr.engineNs += t2 - t1
		tr.engineSelfNs += t2 - t1 - gen.acc.ns - sched.ns - tot.initiate.ns - tot.deliver.ns
		tr.verifyNs += t3 - t2
		tr.genNs += gen.acc.ns
		tr.genCalls += gen.acc.calls
		tr.schedNs += sched.ns
		tr.initNs += tot.initiate.ns
		tr.initCalls += tot.initiate.calls
		tr.delivNs += tot.deliver.ns
		tr.delivCalls += tot.deliver.calls
		tr.sendNs += tot.send.ns
		tr.sendCalls += tot.send.calls
		tr.msgs += tot.msgs
		tr.initSelfNs += tot.initiate.ns - tot.sendInInitiate
		tr.delivSelfNs += tot.deliver.ns - tot.sendInDeliver
		a := tr.algos[r.algo]
		if a == nil {
			a = &algoTotals{}
			tr.algos[r.algo] = a
		}
		a.ops += res.Ops
		a.initSelfNs += tot.initiate.ns - tot.sendInInitiate
		a.delivSelfNs += tot.deliver.ns - tot.sendInDeliver
		a.delivCalls += tot.deliver.calls
		a.msgs += tot.msgs
	}
	return c, nil
}
