package combining

import (
	"testing"

	"distcount/internal/counter"
	"distcount/internal/counter/countertest"
	"distcount/internal/loadstat"
	"distcount/internal/sim"
)

func factory(n int) counter.Counter {
	return counter.NewSim(NewMachine(n), sim.WithTracing())
}

func TestConformance(t *testing.T) {
	countertest.Conformance(t, factory, 1, 2, 3, 8, 33)
}

func TestCloneIndependence(t *testing.T) {
	countertest.CloneIndependence(t, factory, 16)
}

func TestSequentialNeverCombines(t *testing.T) {
	c := newSim(16)
	if _, err := counter.RunSequence(c, counter.SequentialOrder(16)); err != nil {
		t.Fatal(err)
	}
	if Combined(c.Net().Protocol()) != 0 {
		t.Fatalf("sequential run combined %d requests", Combined(c.Net().Protocol()))
	}
}

func TestRootHostIsSequentialBottleneck(t *testing.T) {
	const n = 32
	c := newSim(n)
	if _, err := counter.RunSequence(c, counter.SequentialOrder(n)); err != nil {
		t.Fatal(err)
	}
	s := loadstat.SummarizeLoads(c.Net().Loads())
	if s.Bottleneck != int(RootHost(c.Net().Protocol())) {
		t.Fatalf("bottleneck = p%d, want root host p%d", s.Bottleneck, RootHost(c.Net().Protocol()))
	}
	// The root host sees >= 2 messages per operation it does not initiate.
	if s.MaxLoad < int64(2*(n-2)) {
		t.Fatalf("root host load = %d, want >= %d", s.MaxLoad, 2*(n-2))
	}
}

func TestConcurrentCombining(t *testing.T) {
	// All processors fire at t=0 with a combining window: requests must
	// merge, and every processor still gets a distinct value.
	const n = 16
	c := newSim(n, WithWindow(8))
	ids := make([]sim.OpID, n+1)
	for p := 1; p <= n; p++ {
		ids[p] = c.Start(0, sim.ProcID(p))
	}
	if err := c.Net().Run(); err != nil {
		t.Fatal(err)
	}
	if Combined(c.Net().Protocol()) == 0 {
		t.Fatal("no combining despite simultaneous requests and open window")
	}
	seen := make([]bool, n)
	for p := 1; p <= n; p++ {
		v, ok := c.OpValue(ids[p])
		if !ok {
			t.Fatalf("processor %d got no value", p)
		}
		if v < 0 || v >= n || seen[v] {
			t.Fatalf("processor %d got invalid/duplicate value %d", p, v)
		}
		seen[v] = true
	}
}

func TestConcurrentCombiningCutsRootTraffic(t *testing.T) {
	const n = 32
	run := func(window int64) int64 {
		c := newSim(n, WithWindow(window))
		for p := 1; p <= n; p++ {
			c.Start(0, sim.ProcID(p))
		}
		if err := c.Net().Run(); err != nil {
			t.Fatal(err)
		}
		return c.Net().Load(RootHost(c.Net().Protocol()))
	}
	without := run(0)
	with := run(16)
	if with >= without {
		t.Fatalf("combining did not cut root-host load: %d vs %d", with, without)
	}
}

// TestPipelinedBatches: a second combining window can open at a node while
// the first batch is still awaiting the root's response; batch ids keep the
// responses straight and every operation gets a distinct value.
func TestPipelinedBatches(t *testing.T) {
	const n = 16
	c := newSim(n, WithWindow(2))
	// Wave 1 at t=0, wave 2 well after wave 1's windows closed but (at
	// depth 4 with unit latency) before its responses returned.
	ids := make([]sim.OpID, n+1)
	for p := 1; p <= 8; p++ {
		ids[p] = c.Start(0, sim.ProcID(p))
	}
	for p := 9; p <= n; p++ {
		ids[p] = c.Start(5, sim.ProcID(p))
	}
	if err := c.Net().Run(); err != nil {
		t.Fatal(err)
	}
	seen := make([]bool, n)
	for p := 1; p <= n; p++ {
		v, ok := c.OpValue(ids[p])
		if !ok {
			t.Fatalf("processor %d got no value", p)
		}
		if v < 0 || v >= n || seen[v] {
			t.Fatalf("processor %d got invalid/duplicate value %d", p, v)
		}
		seen[v] = true
	}
	if Combined(c.Net().Protocol()) == 0 {
		t.Fatal("waves did not combine at all")
	}
}

func TestWindowTimerExpiresAlone(t *testing.T) {
	// A single request with a window must still complete (via the timer).
	c := newSim(8, WithWindow(5))
	v, err := c.Inc(3)
	if err != nil {
		t.Fatal(err)
	}
	if v != 0 {
		t.Fatalf("value = %d, want 0", v)
	}
}

func TestSingleProcessorLocal(t *testing.T) {
	c := newSim(1)
	for i := 0; i < 3; i++ {
		v, err := c.Inc(1)
		if err != nil {
			t.Fatal(err)
		}
		if v != i {
			t.Fatalf("value = %d, want %d", v, i)
		}
	}
	if c.Net().MessagesTotal() != 0 {
		t.Fatalf("n=1 used %d messages", c.Net().MessagesTotal())
	}
}

func TestNegativeWindowPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("no panic")
		}
	}()
	WithWindow(-1)
}

func TestName(t *testing.T) {
	if newSim(2).Name() != "combining" {
		t.Fatal("wrong name")
	}
}

func newSim(n int, opts ...Option) *counter.Sim {
	return counter.NewSim(NewMachine(n, opts...))
}
