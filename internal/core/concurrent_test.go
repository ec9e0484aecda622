package core

import (
	"testing"

	"distcount/internal/counter"
	"distcount/internal/sim"
)

// Tests of the concurrent (pipelined) mode added on top of the paper's
// sequential model: the unchecked protocol (NewMachine) on the simulator
// host, and the guard that keeps the lemma instrumentation sequential-only.

func TestConcurrentPipelinedCounting(t *testing.T) {
	c := counter.NewSim(NewMachine(8))
	n := c.N()
	ids := make([]sim.OpID, 0, n)
	for p := 1; p <= n; p++ {
		ids = append(ids, c.Start(0, sim.ProcID(p)))
	}
	if err := c.Net().Run(); err != nil {
		t.Fatal(err)
	}
	seen := make([]bool, n)
	for i, id := range ids {
		v, ok := c.OpValue(id)
		if !ok {
			t.Fatalf("processor %d got no reply", i+1)
		}
		if v < 0 || v >= n || seen[v] {
			t.Fatalf("processor %d got invalid/duplicate value %d", i+1, v)
		}
		seen[v] = true
	}
	if got := c.Net().Protocol().(ctree).root.(*counterState).val; int(got) != n {
		t.Fatalf("final value %d, want %d", got, n)
	}
}

func TestConcurrentPipelinedIsFasterThanSequential(t *testing.T) {
	seq := New(2)
	for p := 1; p <= seq.N(); p++ {
		if _, err := seq.Inc(sim.ProcID(p)); err != nil {
			t.Fatal(err)
		}
	}
	conc := counter.NewSim(NewMachine(8))
	for p := 1; p <= conc.N(); p++ {
		conc.Start(0, sim.ProcID(p))
	}
	if err := conc.Net().Run(); err != nil {
		t.Fatal(err)
	}
	if conc.Net().Now() >= seq.Net().Now() {
		t.Fatalf("pipelining not faster: %d vs %d ticks", conc.Net().Now(), seq.Net().Now())
	}
}

func TestConcurrentUnderReordering(t *testing.T) {
	for seed := uint64(1); seed <= 5; seed++ {
		c := counter.NewSim(NewMachine(8),
			sim.WithSeed(seed), sim.WithLatency(sim.UniformLatency{Min: 1, Max: 11}))
		n := c.N()
		ids := make([]sim.OpID, 0, n)
		for p := 1; p <= n; p++ {
			ids = append(ids, c.Start(int64(p), sim.ProcID(p)))
		}
		if err := c.Net().Run(); err != nil {
			t.Fatal(err)
		}
		seen := make([]bool, n)
		for i, id := range ids {
			v, ok := c.OpValue(id)
			if !ok {
				t.Fatalf("seed %d: processor %d got no reply", seed, i+1)
			}
			if v < 0 || v >= n || seen[v] {
				t.Fatalf("seed %d: invalid/duplicate value %d", seed, v)
			}
			seen[v] = true
		}
	}
}

// TestCheckedCounterRefusesOverlappingOps: the lemma windows assume the
// sequential model, so a checked counter's protocol refuses an operation
// initiated while an earlier one's messages are in flight, on every host
// path — here the Async Start the engine uses.
func TestCheckedCounterRefusesOverlappingOps(t *testing.T) {
	c := New(2)
	c.Start(0, 1)
	c.Start(0, 2)
	defer func() {
		if recover() == nil {
			t.Fatal("overlapping operations on a checked counter did not panic")
		}
	}()
	_ = c.Net().Run()
}

// TestCheckedCounterAcceptsSequentialStarts: operations started one after
// another's quiescence are the sequential model and pass the guard.
func TestCheckedCounterAcceptsSequentialStarts(t *testing.T) {
	c := New(2)
	for p := 1; p <= c.N(); p++ {
		id := c.Start(c.Net().Now(), sim.ProcID(p))
		if err := c.Net().Run(); err != nil {
			t.Fatal(err)
		}
		if v, ok := c.OpValue(id); !ok || v != p-1 {
			t.Fatalf("op %d: value %d, %v", p, v, ok)
		}
	}
	if _, count := c.Violations(); count != 0 {
		t.Fatalf("%d lemma violations", count)
	}
}

// TestLemmaWindowsCountOnce: reading the lemma metrics closes the window of
// a finished operation; reading them again, mid-sequence or at the end,
// must not evaluate that window a second time.
func TestLemmaWindowsCountOnce(t *testing.T) {
	// At threshold 1 nodes retire several times within one operation, so
	// the Retirement Lemma fails in some windows and a double-evaluated
	// window shows in the violation count.
	polled, quiet := New(2, WithRetireAge(1)), New(2, WithRetireAge(1))
	for _, p := range counter.SequentialOrder(polled.N()) {
		if _, err := polled.Inc(p); err != nil {
			t.Fatal(err)
		}
		polled.Violations()
		polled.GrowOldMax()
		polled.Violations()
		if _, err := quiet.Inc(p); err != nil {
			t.Fatal(err)
		}
	}
	_, want := quiet.Violations()
	if quiet.RetirePerOpMax() < 2 {
		t.Fatal("no window violated the Retirement Lemma; the test cannot discriminate")
	}
	for i := 0; i < 2; i++ {
		if _, got := polled.Violations(); got != want {
			t.Fatalf("read %d: %d violations with mid-sequence reads, %d without", i, got, want)
		}
		if got, w := polled.GrowOldMax(), quiet.GrowOldMax(); got != w {
			t.Fatalf("read %d: GrowOldMax %d with mid-sequence reads, %d without", i, got, w)
		}
	}
}

// TestCheckedTreeRefusesFaults: a lost message would never drain the
// checker's in-flight count, so a fault plan is refused up front.
func TestCheckedTreeRefusesFaults(t *testing.T) {
	faults := WithSimOptions(sim.WithFaults(sim.FaultPlan{Seed: 3, Loss: 0.2}))
	for name, build := range map[string]func(){
		"counter": func() { New(2, faults) },
		"tree":    func() { NewTree[junk, count](2, &junkCounter{}, faults) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: a fault plan was accepted", name)
				}
			}()
			build()
		}()
	}
}

func TestMachineRunsUnchecked(t *testing.T) {
	if NewMachine(8).Proto.(ctree).checks != nil {
		t.Fatal("NewMachine built a checked protocol")
	}
}

func TestPayloadKinds(t *testing.T) {
	kinds := map[string]sim.Payload{
		"inc-from":       incPayload[inc]{},
		"value":          valuePayload[count]{},
		"handoff-job":    handoffJobPayload{},
		"handoff-parent": handoffParentPayload{},
		"handoff-child":  handoffChildPayload{},
		"new-id":         newIDPayload{},
	}
	for want, pl := range kinds {
		if got := pl.Kind(); got != want {
			t.Errorf("Kind() = %q, want %q", got, want)
		}
	}
}

func TestNewIDBitsLeafTarget(t *testing.T) {
	// The leaf marker (-1) must not break size accounting.
	pl := newIDPayload{Target: leafTarget, Changed: 3, NewProc: 7}
	if pl.Bits() <= 0 {
		t.Fatalf("Bits() = %d", pl.Bits())
	}
}
