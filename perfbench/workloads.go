package main

import (
	"runtime"
	"slices"
	"time"

	"distcount/internal/countersvc"
	"distcount/internal/engine"
	"distcount/internal/registry"
	"distcount/internal/sim"
	"distcount/internal/workload"
)

// Cell sizes. Each sim cell is a fixed set of engine runs on one input set,
// sized to 15–40 ms of CPU on the 2-vCPU x86-64 machine the first numbers
// came from, so a 15 s pass measures a few hundred cells. sim-protocol's
// three algorithms are sized to cost about the same host time each.
const (
	protoN         = 81
	protoOpsComb   = 1000
	protoOpsCnet   = 1600
	protoOpsQuorum = 150
	openN          = 64
	openOps        = 8000
	keyedKeys      = 1024
	keyedN         = 64
	keyedOps       = 12000
)

func protocolRuns(seed uint64) []simRun {
	reg := registry.Concurrent(sim.WithServiceTime(1))
	run := func(algo string, ops int) simRun {
		return simRun{
			algo: algo, n: protoN, scenario: "uniform",
			wcfg: workload.Config{N: protoN, Ops: ops, Seed: seed},
			ecfg: engine.Config{Mode: engine.Closed},
			reg:  reg,
		}
	}
	return []simRun{
		run("combining", protoOpsComb),
		run("cnet", protoOpsCnet),
		run("quorum-majority", protoOpsQuorum),
	}
}

func openRuns(seed uint64) []simRun {
	return []simRun{{
		algo: "central", n: openN, scenario: "ramprate",
		wcfg: workload.Config{N: openN, Ops: openOps, Seed: seed},
		ecfg: engine.Config{Mode: engine.Open},
		reg:  registry.Concurrent(sim.WithServiceTime(1)),
	}}
}

func keyedSpec(seed uint64) keyedRun {
	return keyedRun{
		svc: countersvc.Config{
			Keys: keyedKeys, N: keyedN, Shards: 4, Algo: "central",
			Registry:  registry.Concurrent(sim.WithServiceTime(3)),
			Migration: &countersvc.Migration{To: "cnet", HotShare: 0.25, CheckEvery: 256},
		},
		scenario: "uniform",
		wcfg: workload.Config{N: keyedN, Ops: keyedOps, Seed: seed,
			Keys: keyedKeys, KeyDist: "zipf", KeyZipfS: 1.2},
		ecfg: engine.Config{Mode: engine.Closed},
	}
}

// inputSets is how many input sets a sim pass cycles through, each derived
// from the pass's seed: a figure averaged over several input sets moves
// less from one seed to the next than the inputs of any one set do.
const inputSets = 8

// subSeeds derives the pass's input-set seeds from its --seed.
func subSeeds(seed uint64) []uint64 {
	out := make([]uint64, inputSets)
	for i := range out {
		out[i] = seed*inputSets + uint64(i)
	}
	return out
}

func runSimProtocol(rep *report, seed uint64, seconds float64, traced bool) error {
	return measureSim(rep, seconds, traced, singleCounterCell(seed, protocolRuns))
}

func runSimOpen(rep *report, seed uint64, seconds float64, traced bool) error {
	return measureSim(rep, seconds, traced, singleCounterCell(seed, openRuns))
}

func singleCounterCell(seed uint64, runs func(uint64) []simRun) func(int, bool) (*cellOut, error) {
	var sets [][]simRun
	for _, s := range subSeeds(seed) {
		sets = append(sets, runs(s))
	}
	return func(set int, traced bool) (*cellOut, error) {
		if traced {
			return runSimCellTraced(sets[set])
		}
		return runSimCell(sets[set])
	}
}

func runKeyedSkew(rep *report, seed uint64, seconds float64, traced bool) error {
	var sets []keyedRun
	for _, s := range subSeeds(seed) {
		sets = append(sets, keyedSpec(s))
	}
	return measureSim(rep, seconds, traced, func(set int, traced bool) (*cellOut, error) {
		return runKeyedCell(sets[set], traced)
	})
}

// minCells keeps a very short pass meaningful: every input set is
// measured at least twice.
const minCells = 2 * inputSets

// measureSim runs cells, cycling through the input sets, until the pass's
// time is spent. The first round over the sets is a warm-up that records
// each set's fingerprint; every later cell on the same set is a
// determinism check against it. In the traced pass, untraced and traced
// cells alternate and each traced cell must reproduce its set's
// fingerprint exactly (traced-run fidelity).
func measureSim(rep *report, seconds float64, traced bool, cell func(set int, traced bool) (*cellOut, error)) error {
	refs := make([]*cellOut, inputSets)
	check := func(set int, c *cellOut, what string) {
		if c.fp != refs[set].fp && len(rep.problems) < 4 {
			rep.problemf("%s mismatch on input set %d:\n    want %s    got  %s", what, set, refs[set].fp, c.fp)
		}
		if c.fail.Violations > 0 || c.fail.Missing > 0 {
			rep.problemf("verification: %d violations, %d missing values", c.fail.Violations, c.fail.Missing)
		}
		rep.attempted += c.fail.Arrivals
		rep.failed += c.fail.failed()
	}
	for set := range refs {
		ref, err := cell(set, false)
		if err != nil {
			return err
		}
		refs[set] = ref
		check(set, ref, "determinism")
	}
	var plain, tcells []*cellOut
	var cal calScale
	deadline := time.Now().Add(time.Duration(seconds * float64(time.Second)))
	for i := 0; i < minCells || time.Now().Before(deadline); i++ {
		set := i % inputSets
		cal.sample()
		runtime.GC() // every cell starts from the same, collected heap
		c, err := cell(set, false)
		if err != nil {
			return err
		}
		check(set, c, "determinism")
		c.set = set
		plain = append(plain, c)
		if traced {
			runtime.GC()
			t, err := cell(set, true)
			if err != nil {
				return err
			}
			check(set, t, "traced-run fidelity")
			tcells = append(tcells, t)
		}
	}
	if traced {
		simLayers(rep, refs, plain, tcells)
	} else {
		simEndToEnd(rep, refs, plain, cal.factor())
	}
	return nil
}

// perSetMean takes quantile q of f over each input set's cells, then the
// mean over the sets: the sets differ in size and shape, and a quantile of
// their mixture would jump whenever the mix shifts.
func perSetMean(cs []*cellOut, q float64, f func(*cellOut) float64) float64 {
	bySet := make([][]float64, inputSets)
	for _, c := range cs {
		bySet[c.set] = append(bySet[c.set], f(c))
	}
	sum := 0.0
	for _, xs := range bySet {
		slices.Sort(xs)
		sum += quantile(xs, q)
	}
	return sum / inputSets
}

func cellsOf(cs []*cellOut, f func(*cellOut) float64) []float64 {
	out := make([]float64, len(cs))
	for i, c := range cs {
		out[i] = f(c)
	}
	return out
}

// simEndToEnd derives the end-to-end metrics of the untraced cells. A
// cell's latency is the host time a user of the lab waits for its result.
func simEndToEnd(rep *report, refs []*cellOut, cs []*cellOut, scale float64) {
	ref := sumRefs(refs)
	var ops int
	var mallocs, bytes uint64
	var fail failures
	for _, c := range cs {
		ops += c.ops
		mallocs += c.mallocs
		bytes += c.bytes
		fail.add(c.fail)
	}
	lat := cellsOf(cs, func(c *cellOut) float64 { return float64(c.runNs) / 1e6 * scale })
	slices.Sort(lat)
	m := rep.metrics
	rawSetup := perSetMean(cs, 0.5, func(c *cellOut) float64 { return float64(c.setupNs) / 1e9 })
	rawOps := perSetMean(cs, 0.5, func(c *cellOut) float64 { return float64(c.ops) / float64(c.runNs) * 1e9 })
	rawLat := perSetMean(cs, 0.5, func(c *cellOut) float64 { return float64(c.runNs) / 1e6 })
	m["setup_s"] = rawSetup * scale
	m["ops_per_cpu_s"] = rawOps / scale
	m["allocs_per_op"] = float64(mallocs) / float64(ops)
	m["alloc_bytes_per_op"] = float64(bytes) / float64(ops)
	m["latency_p50_ms"] = rawLat * scale

	for _, d := range endToEnd {
		rep.linef("%-22s %14.6g %s", d.name, m[d.name], d.unit)
	}
	rep.linef("cpu scale              %14.6g (calibration kernel median %.6g us; unscaled: setup %.6g s, %.6g ops/s, p50 %.6g ms)",
		scale, calNominalNs/scale/1e3, rawSetup, rawOps, rawLat)
	tail := "no percentile has 10 samples beyond it"
	if p, ok := tailPercentile(len(lat), 10); ok {
		tail = "p" + ftoa(p) + " = " + ftoa(quantile(lat, p/100)) + " ms"
	}
	rep.linef("latency_p90_ms         %14.6g ms (per input set, averaged; scaled)", scale*perSetMean(cs, 0.9, func(c *cellOut) float64 { return float64(c.runNs) / 1e6 }))
	rep.linef("latency_p99_ms         %14.6g ms (all %d cells pooled, %d beyond it; scaled; tail rule: %s)", quantile(lat, 0.99), len(cs), len(cs)/100, tail)
	rep.linef("sim_ops_per_s          %14.6g ops/s (= ops_per_cpu_s)", m["ops_per_cpu_s"])
	rep.linef("sim_ops_per_tick       %14.6g ops/tick", float64(ref.ops)/float64(ref.simTime))
	rep.linef("sim_knee_ops_per_tick  %14.6g ops/tick (mean over input sets)", ref.kneeRate)
	rep.linef("sim_p99_ticks          %14.6g ticks (mean over input sets)", ref.p99Ticks)
	rep.linef("failed_frac            %14.6g (%d of %d arrivals)", fail.frac(), fail.failed(), fail.Arrivals)
	rep.linef("determinism            every cell reproduced its input set's simulated statistics: %v", len(rep.problems) == 0)
}

// simLayers derives the per-layer metrics of the traced cells.
func simLayers(rep *report, refs []*cellOut, plain, traced []*cellOut) {
	ref := sumRefs(refs)
	t := &traceTotals{}
	var ops int
	var gc uint32
	var pause uint64
	for _, c := range traced {
		t.add(c.tr)
		ops += c.ops
		gc += c.gc
		pause += c.pauseNs
	}
	m := rep.metrics
	for _, d := range perLayer {
		m[d.name] = 0
	}
	fops := float64(t.ops)
	m["workload.next_ns_per_req"] = ratio(float64(t.genNs), float64(t.genCalls))
	m["engine.self_ns_per_op"] = ratio(float64(t.engineSelfNs), fops)
	m["engine.queue_delay_p50"] = ref.qdP50
	m["engine.queue_delay_p99"] = ref.qdP99
	m["engine.dropped"] = float64(ref.dropped)
	m["engine.peak_in_flight"] = float64(ref.peakInFlight)
	m["sim.schedule_ns_per_op"] = ratio(float64(t.schedNs), fops)
	m["sim.send_ns_per_msg"] = ratio(float64(t.sendNs), float64(t.sendCalls))
	m["sim.events_per_op"] = ratio(float64(t.initCalls+t.delivCalls), fops)
	m["sim.ops_per_tick"] = ratio(float64(ref.ops), float64(ref.simTime))
	m["sim.knee_ops_per_tick"] = ref.kneeRate
	m["sim.p99_ticks"] = ref.p99Ticks
	m["protocol.initiate_ns_per_op"] = ratio(float64(t.initSelfNs), fops)
	m["protocol.deliver_ns_per_msg"] = ratio(float64(t.delivSelfNs), float64(t.delivCalls))
	m["protocol.msgs_per_op"] = ratio(float64(t.msgs), fops)
	for name, a := range t.algos {
		m["protocol.initiate_ns_per_op."+name] = ratio(float64(a.initSelfNs), float64(a.ops))
		m["protocol.deliver_ns_per_msg."+name] = ratio(float64(a.delivSelfNs), float64(a.delivCalls))
		m["protocol.msgs_per_op."+name] = ratio(float64(a.msgs), float64(a.ops))
	}
	m["countersvc.start_ns_per_op"] = ratio(float64(t.svcStartNs), float64(t.svcOps))
	m["countersvc.step_ns_per_event"] = ratio(float64(t.svcStepNs), float64(t.svcSteps))
	m["countersvc.migrations"] = float64(t.svcMigrations)
	m["countersvc.max_shard_share"] = t.svcMaxShare
	m["verify.ns_per_op"] = ratio(float64(t.verifyNs), fops)
	m["verify.violations"] = float64(ref.violations)
	m["verify.duplicates"] = float64(ref.duplicates)
	m["runtime.gc_cycles_per_kop"] = ratio(float64(gc)*1000, float64(ops))
	m["runtime.gc_pause_ns_per_op"] = ratio(float64(pause), float64(ops))
	plainNs := median(cellsOf(plain, func(c *cellOut) float64 { return float64(c.runNs) }))
	tracedNs := median(cellsOf(traced, func(c *cellOut) float64 { return float64(c.runNs) }))
	m["trace.overhead_frac"] = tracedNs/plainNs - 1

	for _, d := range perLayer {
		if m[d.name] != 0 {
			rep.linef("%-40s %14.6g %s", d.name, m[d.name], d.unit)
		}
	}
	rep.linef("traced cells %d, untraced cells %d; every traced cell reproduced the untraced simulated statistics: %v",
		len(traced), len(plain), len(rep.problems) == 0)
	if t.svcOps == 0 {
		// Single-counter cells: the spans tile the engine call exactly.
		children := t.genNs + t.schedNs + t.initSelfNs + t.delivSelfNs + t.sendNs
		rep.linef("span check: workload %d + schedule %d + initiate %d + deliver %d + send %d + engine self %d = %d ns; engine calls %d ns",
			t.genNs, t.schedNs, t.initSelfNs, t.delivSelfNs, t.sendNs, t.engineSelfNs, children+t.engineSelfNs, t.engineNs)
		if children+t.engineSelfNs != t.engineNs || t.engineSelfNs < 0 {
			rep.problemf("span check: child spans plus engine self time do not add up to the engine-call time")
		}
	}
}

// sumRefs summarizes the input sets' reference cells for the report:
// totals for ops and simulated time, means for the per-run statistics.
func sumRefs(refs []*cellOut) *cellOut {
	out := &cellOut{}
	k := float64(len(refs))
	for _, r := range refs {
		out.ops += r.ops
		out.simTime += r.simTime
		out.kneeRate += r.kneeRate / k
		out.p99Ticks += r.p99Ticks / k
		out.qdP50 += r.qdP50 / k
		out.qdP99 += r.qdP99 / k
		out.dropped += r.dropped
		out.peakInFlight = max(out.peakInFlight, r.peakInFlight)
		out.violations += r.violations
		out.duplicates += r.duplicates
	}
	return out
}
