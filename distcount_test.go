package distcount_test

import (
	"fmt"
	"strings"
	"testing"

	"distcount"
)

func TestQuickstartFlow(t *testing.T) {
	c := distcount.NewTreeCounter(2)
	if c.N() != 8 {
		t.Fatalf("n = %d, want 8", c.N())
	}
	res, err := distcount.RunSequence(c, distcount.RandomOrder(c.N(), 1))
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Values) != 8 {
		t.Fatalf("values = %v", res.Values)
	}
	sum := distcount.Loads(c)
	if sum.Bottleneck < 1 || sum.MaxLoad == 0 {
		t.Fatalf("summary wrong: %+v", sum)
	}
}

func TestNewTreeCounterForSize(t *testing.T) {
	c := distcount.NewTreeCounterForSize(100)
	if c.K() != 4 || c.N() != 1024 {
		t.Fatalf("k=%d n=%d, want 4/1024", c.K(), c.N())
	}
}

// TestTreeHostsRejectBadProcessors: every communication-tree entry point
// of the facade reports a processor outside [1,n] as an error, as the
// registry counters do, instead of panicking inside the simulator.
func TestTreeHostsRejectBadProcessors(t *testing.T) {
	const k, n = 2, 8
	ops := map[string]func(p distcount.ProcID) error{
		"TreeCounter.Inc": func(p distcount.ProcID) error {
			_, err := distcount.NewTreeCounter(k).Inc(p)
			return err
		},
		"FlipBit.Flip": func(p distcount.ProcID) error {
			_, err := distcount.NewFlipBit(k).Flip(p)
			return err
		},
		"FlipBit.Read": func(p distcount.ProcID) error {
			_, err := distcount.NewFlipBit(k).Read(p)
			return err
		},
		"PriorityQueue.Insert": func(p distcount.ProcID) error {
			return distcount.NewPriorityQueue(k).Insert(p, 1)
		},
		"PriorityQueue.DelMin": func(p distcount.ProcID) error {
			_, _, err := distcount.NewPriorityQueue(k).DelMin(p)
			return err
		},
		"PriorityQueue.Size": func(p distcount.ProcID) error {
			_, err := distcount.NewPriorityQueue(k).Size(p)
			return err
		},
	}
	for name, op := range ops {
		for _, p := range []distcount.ProcID{-1, 0, n + 1} {
			t.Run(fmt.Sprintf("%s/p=%d", name, p), func(t *testing.T) {
				defer func() {
					if r := recover(); r != nil {
						t.Fatalf("panicked: %v", r)
					}
				}()
				if err := op(p); err == nil {
					t.Fatal("no error")
				}
			})
		}
	}
}

func TestAlgorithmsAndNew(t *testing.T) {
	algos := distcount.Algorithms()
	if len(algos) != 14 {
		t.Fatalf("algorithms = %v", algos)
	}
	if got := len(distcount.ExactAlgorithms()) + len(distcount.ApproximateAlgorithms()); got != len(algos) {
		t.Fatalf("exact + approximate = %d, want %d", got, len(algos))
	}
	for _, a := range algos {
		c, err := distcount.New(a, 8)
		if err != nil {
			t.Fatalf("%s: %v", a, err)
		}
		// Approximate algorithms pass the exact sequential check too: below
		// their warmup count every operation takes the exact synchronous
		// path.
		if err := distcount.VerifyCounter(c, distcount.SequentialOrder(c.N())); err != nil {
			t.Fatalf("%s: %v", a, err)
		}
	}
	if _, err := distcount.New("bogus", 8); err == nil {
		t.Fatal("bogus algorithm accepted")
	}
}

// TestNewOptions exercises the options surface of the redesigned
// constructor: ε override and default, reported through the Guarantee
// contract.
func TestNewOptions(t *testing.T) {
	c, err := distcount.New("gxu-threshold", 8, distcount.WithEpsilon(0.2))
	if err != nil {
		t.Fatal(err)
	}
	g := c.(distcount.ValuedCounter).Guarantee()
	if g.Epsilon != 0.2 || g.String() != "approximate(0.2)" {
		t.Fatalf("guarantee = %v, want approximate(0.2)", g)
	}

	d, err := distcount.New("css-sample", 8)
	if err != nil {
		t.Fatal(err)
	}
	eps, ok := distcount.DefaultEpsilon("css-sample")
	if !ok || eps <= 0 {
		t.Fatalf("DefaultEpsilon(css-sample) = %v, %v", eps, ok)
	}
	if g := d.(distcount.ValuedCounter).Guarantee(); g.Epsilon != eps {
		t.Fatalf("default guarantee = %v, want ε=%v", g, eps)
	}

	// Exact algorithms ignore the override and keep their bare level.
	e, err := distcount.New("central", 4, distcount.WithEpsilon(0.2))
	if err != nil {
		t.Fatal(err)
	}
	if g := e.(distcount.ValuedCounter).Guarantee(); g.Epsilon != 0 || g.String() != "linearizable" {
		t.Fatalf("central guarantee = %v, want linearizable", g)
	}

	if _, ok := distcount.DefaultEpsilon("central"); ok {
		t.Fatal("central reported a default epsilon")
	}

	// Tracing arrives through the option, as the adversary requires.
	tr, err := distcount.New("central", 8, distcount.WithTracing())
	if err != nil {
		t.Fatal(err)
	}
	if !tr.Net().Tracing() {
		t.Fatal("WithTracing not forwarded")
	}
}

// TestIncOutOfRangeIsAnError: a processor outside [1, n] is caller input,
// so Inc reports it as an error on both backends instead of panicking.
func TestIncOutOfRangeIsAnError(t *testing.T) {
	for _, backend := range []string{"sim", "rt"} {
		t.Run(backend, func(t *testing.T) {
			c, err := distcount.New("central", 4, distcount.WithBackend(backend))
			if err != nil {
				t.Fatal(err)
			}
			if cl, ok := c.(interface{ Close() }); ok {
				defer cl.Close()
			}
			for _, p := range []distcount.ProcID{0, 5, 9} {
				if _, err := c.Inc(p); err == nil {
					t.Errorf("Inc(%d) on n=4 returned no error", p)
				}
			}
			if v, err := c.Inc(4); err != nil || v != 0 {
				t.Fatalf("Inc(4) after rejected calls = (%d, %v), want (0, nil)", v, err)
			}
		})
	}
}

// TestRunWorkloadOnRTBackend: RunWorkload drives the counter New builds on
// the rt backend, in real time, and reports wall-clock units.
func TestRunWorkloadOnRTBackend(t *testing.T) {
	for _, mode := range []distcount.WorkloadMode{distcount.ClosedLoop, distcount.OpenLoop} {
		t.Run(mode.String(), func(t *testing.T) {
			c, err := distcount.New("combining", 8, distcount.InConcurrentRegime(), distcount.WithBackend("rt"))
			if err != nil {
				t.Fatal(err)
			}
			sc, err := distcount.NewScenario("uniform", distcount.ScenarioConfig{N: c.N(), Ops: 100, Seed: 5})
			if err != nil {
				t.Fatal(err)
			}
			rep, err := distcount.RunWorkload(c, sc, distcount.WorkloadConfig{Mode: mode, InFlight: 4, Verify: true})
			if err != nil {
				t.Fatal(err)
			}
			if !rep.Wall || rep.TickNs <= 0 || rep.Ops != 100 {
				t.Fatalf("wall/tick/ops = %v/%d/%d, want a 100-op wall-clock report", rep.Wall, rep.TickNs, rep.Ops)
			}
			if rep.Verification == nil || rep.Verification.Violations != 0 {
				t.Fatalf("verification failed: %+v", rep.Verification)
			}
		})
	}
}

func TestBoundHelpers(t *testing.T) {
	if distcount.SolveK(81) != 3 || distcount.SizeFor(3) != 81 {
		t.Fatal("bound arithmetic broken")
	}
	if k := distcount.KReal(81); k < 2.99 || k > 3.01 {
		t.Fatalf("KReal(81) = %v", k)
	}
}

func TestAdversaryThroughFacade(t *testing.T) {
	c, err := distcount.New("central", 8, distcount.WithTracing())
	if err != nil {
		t.Fatal(err)
	}
	cl, ok := c.(distcount.Cloneable)
	if !ok {
		t.Fatal("central not cloneable")
	}
	res, err := distcount.RunAdversary(cl)
	if err != nil {
		t.Fatal(err)
	}
	if err := distcount.VerifyAdversary(res); err != nil {
		t.Fatal(err)
	}
	if res.Summary.MaxLoad < int64(res.BoundK) {
		t.Fatalf("bottleneck %d below bound %d", res.Summary.MaxLoad, res.BoundK)
	}
}

func TestExperimentFacade(t *testing.T) {
	if got := len(distcount.Experiments()); got != 14 {
		t.Fatalf("experiments = %d, want 14", got)
	}
	out, err := distcount.RunExperiment("E3", true)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "level 0") {
		t.Fatalf("E3 output unexpected:\n%s", out)
	}
	if _, err := distcount.RunExperiment("E99", true); err == nil {
		t.Fatal("unknown experiment accepted")
	}
}

func TestWorkloadFacade(t *testing.T) {
	if len(distcount.Scenarios()) == 0 {
		t.Fatal("no scenarios registered")
	}
	algos := distcount.Algorithms()
	if len(algos) < 3 {
		t.Fatalf("algorithms = %v, want at least 3", algos)
	}
	c, err := distcount.New("ctree", 27, distcount.InConcurrentRegime())
	if err != nil {
		t.Fatal(err)
	}
	sc, err := distcount.NewScenario("hotspot", distcount.ScenarioConfig{N: c.N(), Ops: 200, Seed: 11})
	if err != nil {
		t.Fatal(err)
	}
	rep, err := distcount.RunWorkload(c, sc, distcount.WorkloadConfig{InFlight: 6, Warmup: 20})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Ops != 200 || rep.Measured != 180 {
		t.Fatalf("ops/measured = %d/%d, want 200/180", rep.Ops, rep.Measured)
	}
	if rep.Throughput <= 0 || rep.Latency.P99 < rep.Latency.P50 || len(rep.Series) == 0 {
		t.Fatalf("report incoherent: %+v", rep)
	}

	// Every registered algorithm is async-capable since the per-initiator
	// op-state refactor, including the quorum counters.
	qc, err := distcount.New("quorum-majority", 9, distcount.InConcurrentRegime())
	if err != nil {
		t.Fatalf("quorum-majority must build async: %v", err)
	}
	qs, err := distcount.NewScenario("uniform", distcount.ScenarioConfig{N: qc.N(), Ops: 50, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	qrep, err := distcount.RunWorkload(qc, qs, distcount.WorkloadConfig{InFlight: 4, Verify: true})
	if err != nil {
		t.Fatal(err)
	}
	if qrep.Verification == nil || qrep.Verification.Ops != 50 {
		t.Fatalf("verification missing or incomplete: %+v", qrep.Verification)
	}
	if _, err := distcount.NewScenario("bogus", distcount.ScenarioConfig{N: 4, Ops: 4}); err == nil {
		t.Fatal("bogus scenario accepted")
	}
}
