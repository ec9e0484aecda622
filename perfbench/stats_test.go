package main

import (
	"encoding/json"
	"os"
	"strings"
	"testing"

	"distcount/internal/engine"
	"distcount/internal/registry"
	"distcount/internal/sim"
	"distcount/internal/workload"
)

func TestSelfTime(t *testing.T) {
	parent := span{100, 200}
	cases := []struct {
		name     string
		children []span
		want     int64
	}{
		{"no children", nil, 100},
		{"disjoint", []span{{110, 120}, {150, 170}}, 70},
		{"nested child inside child", []span{{110, 160}, {120, 130}}, 50},
		{"overlapping", []span{{110, 150}, {140, 180}}, 30},
		{"unsorted overlapping", []span{{140, 180}, {110, 150}, {175, 190}}, 20},
		{"touching", []span{{110, 120}, {120, 130}}, 80},
		{"clipped to parent", []span{{50, 120}, {190, 260}}, 70},
		{"outside parent", []span{{0, 50}, {250, 300}}, 100},
		{"covering parent twice", []span{{0, 300}, {100, 200}}, 0},
		{"empty and inverted", []span{{150, 150}, {180, 160}}, 100},
	}
	for _, tc := range cases {
		if got := selfTime(parent, tc.children); got != tc.want {
			t.Errorf("%s: selfTime = %d, want %d", tc.name, got, tc.want)
		}
	}
	if got := selfTime(span{10, 5}, []span{{0, 20}}); got != 0 {
		t.Errorf("inverted parent: selfTime = %d, want 0", got)
	}
	// Many concurrent children (rt handlers on several goroutines) never
	// drive self time below zero.
	var many []span
	for i := int64(0); i < 50; i++ {
		many = append(many, span{100 + i, 200 - i/2})
	}
	if got := selfTime(parent, many); got != 0 {
		t.Errorf("fully covered by overlapping children: selfTime = %d, want 0", got)
	}
}

func TestTailPercentile(t *testing.T) {
	cases := []struct {
		n    int
		want float64
		ok   bool
	}{
		{10000, 99.9, true},
		{9999, 99, true},
		{1000, 99, true},
		{999, 95, true},
		{200, 95, true},
		{199, 90, true},
		{100, 90, true},
		{99, 50, true},
		{20, 50, true},
		{19, 0, false},
		{0, 0, false},
	}
	for _, tc := range cases {
		got, ok := tailPercentile(tc.n, 10)
		if got != tc.want || ok != tc.ok {
			t.Errorf("tailPercentile(%d, 10) = %v, %v; want %v, %v", tc.n, got, ok, tc.want, tc.ok)
		}
	}
}

func TestFailures(t *testing.T) {
	var f failures
	if f.frac() != 0 {
		t.Fatalf("empty failures frac = %v", f.frac())
	}
	f.add(failures{Arrivals: 100, Dropped: 2, Wedged: 1, Unserved: 3})
	f.add(failures{Arrivals: 100, Missing: 1, Violations: 3})
	if f.failed() != 10 || f.Arrivals != 200 {
		t.Fatalf("failed = %d of %d, want 10 of 200", f.failed(), f.Arrivals)
	}
	if f.frac() != 0.05 {
		t.Fatalf("frac = %v, want 0.05", f.frac())
	}
}

func TestQuantileAndMedian(t *testing.T) {
	xs := []float64{4, 1, 3, 2}
	if m := median(xs); m != 2.5 {
		t.Errorf("median = %v, want 2.5", m)
	}
	if xs[0] != 4 {
		t.Errorf("median reordered its argument")
	}
	sorted := []float64{1, 2, 3, 4, 5}
	if q := quantile(sorted, 0.9); q != 4.6 {
		t.Errorf("quantile(0.9) = %v, want 4.6", q)
	}
	if q := quantile(nil, 0.5); q != 0 {
		t.Errorf("quantile of nothing = %v", q)
	}
}

func TestMaxPassingRate(t *testing.T) {
	limit := 20e6
	ok := func(rate float64) ladderStep {
		return ladderStep{Rate: rate, P99Ns: 5e6, Arrivals: 1000, Backlog: 10}
	}
	steps := []ladderStep{ok(1000), ok(2000), ok(4000)}
	if got := maxPassingRate(steps, limit); got != 4000 {
		t.Errorf("all pass: %v, want 4000", got)
	}
	slow := ok(8000)
	slow.P99Ns = 30e6
	if got := maxPassingRate(append(steps, slow, ok(16000)), limit); got != 4000 {
		t.Errorf("p99 over the limit, then a lucky pass: %v, want 4000", got)
	}
	dropped := ok(2000)
	dropped.Dropped = 1
	if got := maxPassingRate([]ladderStep{ok(1000), dropped, ok(4000)}, limit); got != 1000 {
		t.Errorf("drop at 2000: %v, want 1000", got)
	}
	backlog := ok(1000)
	backlog.Backlog = 51 // over 5% of 1000 arrivals
	if got := maxPassingRate([]ladderStep{backlog, ok(2000)}, limit); got != 0 {
		t.Errorf("growing backlog at the first step: %v, want 0", got)
	}
	edge := ok(1000)
	edge.P99Ns, edge.Backlog = limit, 50
	if got := maxPassingRate([]ladderStep{edge}, limit); got != 1000 {
		t.Errorf("exactly at the limits: %v, want 1000", got)
	}
}

func TestValidName(t *testing.T) {
	for _, name := range []string{"setup_s", "protocol.msgs_per_op.quorum-majority", "9lives", strings.Repeat("a", 64)} {
		if err := validName(name); err != nil {
			t.Errorf("validName(%q) = %v", name, err)
		}
	}
	for _, name := range []string{"", "_lead", ".lead", "sp ace", "slash/no", "µs", strings.Repeat("a", 65)} {
		if validName(name) == nil {
			t.Errorf("validName(%q) accepted", name)
		}
	}
	seen := map[string]bool{}
	for _, d := range append(append([]metricDef{}, endToEnd...), perLayer...) {
		if err := validName(d.name); err != nil {
			t.Error(err)
		}
		if seen[d.name] {
			t.Errorf("metric %s defined twice", d.name)
		}
		seen[d.name] = true
	}
	for _, w := range workloads {
		if err := validName(w.name); err != nil {
			t.Error(err)
		}
	}
}

func TestResultLine(t *testing.T) {
	rep := newReport("sim-open")
	for i, d := range endToEnd {
		rep.metrics[d.name] = float64(i) + 0.5
	}
	rep.attempted, rep.failed = 10, 1
	if err := checkMetrics(rep, false); err != nil {
		t.Fatal(err)
	}
	line, ok, err := resultLine([]*report{rep}, false)
	if err != nil || !ok {
		t.Fatalf("resultLine: ok=%v err=%v", ok, err)
	}
	var out struct {
		Correct   bool
		Attempted int
		Failed    int
		Metrics   map[string]struct {
			Value float64
			Unit  string
		}
	}
	if err := json.Unmarshal([]byte(line), &out); err != nil {
		t.Fatal(err)
	}
	if !out.Correct || out.Attempted != 10 || out.Failed != 1 || len(out.Metrics) != len(endToEnd) {
		t.Fatalf("unexpected result line %s", line)
	}
	rep.problemf("broken")
	if _, ok, _ := resultLine([]*report{rep}, false); ok {
		t.Fatal("a report with problems rendered as correct")
	}
	delete(rep.metrics, "setup_s")
	if checkMetrics(rep, false) == nil {
		t.Fatal("missing metric not detected")
	}
}

// TestTracedCellFidelity checks, on small inputs, that hosting a traced
// Machine reproduces the registry counter's simulated statistics exactly,
// and that the spans tile the engine call.
func TestTracedCellFidelity(t *testing.T) {
	reg := registry.Concurrent(sim.WithServiceTime(1))
	var runs []simRun
	for _, algo := range []string{"central", "combining", "cnet", "quorum-majority", "tokenring", "ctree"} {
		runs = append(runs, simRun{algo: algo, n: 16, scenario: "uniform",
			wcfg: workload.Config{N: 16, Ops: 60, Seed: 3}, ecfg: engine.Config{Mode: engine.Closed}, reg: reg})
	}
	runs = append(runs, simRun{algo: "central", n: 16, scenario: "ramprate",
		wcfg: workload.Config{N: 16, Ops: 300, Seed: 3}, ecfg: engine.Config{Mode: engine.Open}, reg: reg})
	plain, err := runSimCell(runs)
	if err != nil {
		t.Fatal(err)
	}
	traced, err := runSimCellTraced(runs)
	if err != nil {
		t.Fatal(err)
	}
	if plain.fp != traced.fp {
		t.Fatalf("traced cell diverged:\nplain  %s\ntraced %s", plain.fp, traced.fp)
	}
	tr := traced.tr
	sum := tr.engineSelfNs + tr.genNs + tr.schedNs + tr.initNs + tr.delivNs
	if sum != tr.engineNs || tr.engineSelfNs < 0 {
		t.Fatalf("spans do not tile the engine call: %d vs %d (self %d)", sum, tr.engineNs, tr.engineSelfNs)
	}
	if tr.initCalls != int64(tr.ops) || tr.msgs == 0 {
		t.Fatalf("initiations %d for %d ops, %d messages", tr.initCalls, tr.ops, tr.msgs)
	}
}

func TestKeyedCellDeterministic(t *testing.T) {
	k := keyedSpec(5)
	k.wcfg.Ops = 1500
	a, err := runKeyedCell(k, false)
	if err != nil {
		t.Fatal(err)
	}
	b, err := runKeyedCell(k, true)
	if err != nil {
		t.Fatal(err)
	}
	if a.fp != b.fp {
		t.Fatalf("keyed cells diverged:\n%s\n%s", a.fp, b.fp)
	}
	if b.tr.svcOps != 1500 || b.tr.svcMaxShare <= 0 || b.tr.svcMaxShare > 1 {
		t.Fatalf("replay: %d ops, max shard share %v", b.tr.svcOps, b.tr.svcMaxShare)
	}
}

// TestBenchmarkJSONMatchesCode keeps the repository's BENCHMARK.json and the
// metrics this program reports in step.
func TestBenchmarkJSONMatchesCode(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var b struct {
		Workloads []struct{ Name, Why string }
		EndToEnd  []struct {
			Name, Unit, Better string
			Bound              float64
		} `json:"end_to_end"`
		PerLayer []struct{ Name, Unit, Better string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &b); err != nil {
		t.Fatal(err)
	}
	if len(b.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json lists %d workloads, the program %d", len(b.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if b.Workloads[i].Name != w.name || b.Workloads[i].Why != w.why {
			t.Errorf("workload %d: BENCHMARK.json %+v, program %q: %q", i, b.Workloads[i], w.name, w.why)
		}
	}
	if len(b.EndToEnd) != len(endToEnd) || len(b.PerLayer) != len(perLayer) {
		t.Fatalf("BENCHMARK.json has %d+%d metrics, the program %d+%d",
			len(b.EndToEnd), len(b.PerLayer), len(endToEnd), len(perLayer))
	}
	for i, d := range endToEnd {
		e := b.EndToEnd[i]
		if e.Name != d.name || e.Unit != d.unit || e.Better != d.better || e.Bound <= 0 || e.Bound > 0.25 {
			t.Errorf("end_to_end %d: BENCHMARK.json %+v, program %+v", i, e, d)
		}
	}
	for i, d := range perLayer {
		e := b.PerLayer[i]
		if e.Name != d.name || e.Unit != d.unit || e.Better != d.better {
			t.Errorf("per_layer %d: BENCHMARK.json %+v, program %+v", i, e, d)
		}
	}
}
