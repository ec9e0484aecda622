package counter

import (
	"sync"
	"testing"

	"distcount/internal/sim"
)

// echoProto is a minimal protocol for exercising Ops: an operation sends
// one message to a server processor (1), which replies with a running
// value; the reply finishes the operation.
type echoProto struct {
	val int
	ops *Ops[struct{}, int]
}

type (
	echoReq  struct{ Origin sim.ProcID }
	echoResp struct{ Val int }
)

func (echoReq) Kind() string  { return "echo-req" }
func (echoResp) Kind() string { return "echo-resp" }

func (pr *echoProto) initiate(nw sim.Transport, p sim.ProcID) {
	pr.ops.Begin(nw, p)
	nw.Send(1, echoReq{Origin: p})
}

func (pr *echoProto) Deliver(nw sim.Transport, msg sim.Message) {
	switch pl := msg.Payload.(type) {
	case echoReq:
		nw.Send(pl.Origin, echoResp{Val: pr.val})
		pr.val++
	case echoResp:
		pr.ops.Finish(nw, msg.To, pl.Val)
	}
}

func newEcho(n int) (*sim.Network, *echoProto) {
	pr := &echoProto{ops: NewOps[struct{}, int]()}
	return sim.New(n, pr, sim.WithSeed(1)), pr
}

func TestOpsLifecycle(t *testing.T) {
	net, pr := newEcho(4)
	id2 := net.ScheduleOp(0, 2, pr.initiate)
	id3 := net.ScheduleOp(0, 3, pr.initiate)
	// Begin runs when the start event delivers: after two steps both
	// operations are open concurrently.
	for i := 0; i < 2; i++ {
		if _, err := net.Step(); err != nil {
			t.Fatal(err)
		}
	}
	if !pr.ops.InFlight(2) || !pr.ops.InFlight(3) {
		t.Fatal("started operations not in flight")
	}
	if err := net.Run(); err != nil {
		t.Fatal(err)
	}
	if pr.ops.InFlight(2) || pr.ops.InFlight(3) {
		t.Fatal("completed operations still in flight")
	}
	v2, ok2 := pr.ops.Take(id2)
	v3, ok3 := pr.ops.Take(id3)
	if !ok2 || !ok3 {
		t.Fatalf("values not recorded: (%v,%v) (%v,%v)", v2, ok2, v3, ok3)
	}
	if v2 == v3 {
		t.Fatalf("distinct operations got the same value %d", v2)
	}
	// Take consumes.
	if _, ok := pr.ops.Take(id2); ok {
		t.Fatal("Take did not consume the value")
	}
}

func TestOpsBeginRejectsOverlap(t *testing.T) {
	net, pr := newEcho(4)
	net.ScheduleOp(0, 2, pr.initiate)
	net.ScheduleOp(0, 2, pr.initiate) // second op by the same initiator
	defer func() {
		if recover() == nil {
			t.Fatal("overlapping operations by one initiator did not panic")
		}
	}()
	_ = net.Run()
}

func TestOpsBeginOutsideContext(t *testing.T) {
	net, pr := newEcho(2)
	defer func() {
		if recover() == nil {
			t.Fatal("Begin outside an operation context did not panic")
		}
	}()
	pr.ops.Begin(net, 1)
}

func TestOpsGetStray(t *testing.T) {
	_, pr := newEcho(2)
	defer func() {
		if recover() == nil {
			t.Fatal("Get for an idle initiator did not panic")
		}
	}()
	pr.ops.Get(2)
}

func TestOpsCloneIndependence(t *testing.T) {
	net, pr := newEcho(4)
	id := net.ScheduleOp(0, 2, pr.initiate)
	if err := net.Run(); err != nil {
		t.Fatal(err)
	}
	cp := pr.ops.Clone(nil)
	if v, ok := cp.Take(id); !ok || v != 0 {
		t.Fatalf("clone lost recorded value: (%d,%v)", v, ok)
	}
	// Consuming from the clone must not affect the original.
	if v, ok := pr.ops.Take(id); !ok || v != 0 {
		t.Fatalf("original lost value after clone consumed it: (%d,%v)", v, ok)
	}
}

// TestOpsFinishStaleDropped: under fault injection a duplicated reply
// arrives after its operation already finished; the second Finish is
// dropped and counted, never applied, and the operation's value is the
// first delivery's.
func TestOpsFinishStaleDropped(t *testing.T) {
	pr := &echoProto{ops: NewOps[struct{}, int]()}
	// Duplicate every send of the server (processor 1): the reply to the
	// initiator is delivered twice, so Finish runs twice for one operation.
	net := sim.New(4, pr, sim.WithFaults(sim.FaultPlan{
		DupNth: []sim.NthRule{{Proc: 1, Every: 1}},
	}))
	id := net.ScheduleOp(0, 2, pr.initiate)
	if err := net.Run(); err != nil {
		t.Fatal(err)
	}
	if got := pr.ops.DroppedStale(); got != 1 {
		t.Fatalf("dropped stale = %d, want 1 (the duplicated reply)", got)
	}
	if v, ok := pr.ops.Take(id); !ok || v != 0 {
		t.Fatalf("operation value = (%d,%v), want (0,true)", v, ok)
	}
	if pr.ops.InFlight(2) {
		t.Fatal("operation still in flight after its first completion")
	}
}

// getForProto is echoProto with per-operation state read through GetFor on
// the reply path — the discrimination every quorum-style protocol needs so
// a duplicated response cannot mutate the initiator's NEXT operation.
type getForProto struct {
	val   int
	ops   *Ops[int, int]
	stale int
}

func (pr *getForProto) initiate(nw sim.Transport, p sim.ProcID) {
	st := pr.ops.Begin(nw, p)
	*st = 7 // marker: live state is visible on the reply path
	nw.Send(1, echoReq{Origin: p})
}

func (pr *getForProto) Deliver(nw sim.Transport, msg sim.Message) {
	switch pl := msg.Payload.(type) {
	case echoReq:
		nw.Send(pl.Origin, echoResp{Val: pr.val})
		pr.val++
	case echoResp:
		st, ok := pr.ops.GetFor(nw, msg.To)
		if !ok {
			pr.stale++
			return
		}
		if *st != 7 {
			panic("GetFor returned another operation's state")
		}
		pr.ops.Finish(nw, msg.To, pl.Val)
	}
}

func TestOpsGetForRejectsStaleReplies(t *testing.T) {
	pr := &getForProto{ops: NewOps[int, int]()}
	net := sim.New(4, pr, sim.WithFaults(sim.FaultPlan{
		DupNth: []sim.NthRule{{Proc: 1, Every: 1}},
	}))
	id := net.ScheduleOp(0, 2, pr.initiate)
	if err := net.Run(); err != nil {
		t.Fatal(err)
	}
	if pr.stale != 1 {
		t.Fatalf("stale replies seen = %d, want 1", pr.stale)
	}
	if got := pr.ops.DroppedStale(); got != 1 {
		t.Fatalf("dropped stale = %d, want 1", got)
	}
	if v, ok := pr.ops.Take(id); !ok || v != 0 {
		t.Fatalf("operation value = (%d,%v), want (0,true)", v, ok)
	}
	// A fresh operation after the stale traffic works normally.
	id2 := net.ScheduleOp(net.Now(), 3, pr.initiate)
	if err := net.Run(); err != nil {
		t.Fatal(err)
	}
	if v, ok := pr.ops.Take(id2); !ok || v != 1 {
		t.Fatalf("follow-up operation value = (%d,%v), want (1,true)", v, ok)
	}
}

// TestRunIncSequence: the shared sequential driver produces 0, 1, 2, ...
// through a Valued wrapper.
func TestRunIncSequence(t *testing.T) {
	net, pr := newEcho(4)
	c := &echoCounter{net: net, pr: pr}
	for want := 0; want < 6; want++ {
		p := sim.ProcID(want%3 + 2)
		v, err := RunInc(c, p)
		if err != nil {
			t.Fatal(err)
		}
		if v != want {
			t.Fatalf("RunInc returned %d, want %d", v, want)
		}
	}
}

// echoCounter adapts echoProto to the Valued interface for RunInc.
type echoCounter struct {
	net *sim.Network
	pr  *echoProto
}

func (c *echoCounter) Name() string                    { return "echo" }
func (c *echoCounter) N() int                          { return c.net.N() }
func (c *echoCounter) Net() *sim.Network               { return c.net }
func (c *echoCounter) Inc(p sim.ProcID) (int, error)   { return RunInc(c, p) }
func (c *echoCounter) Guarantee() Guarantee            { return Exact(Linearizable) }
func (c *echoCounter) OpValue(id sim.OpID) (int, bool) { return c.pr.ops.Take(id) }
func (c *echoCounter) Start(at int64, p sim.ProcID) sim.OpID {
	return c.net.ScheduleOp(at, p, c.pr.initiate)
}

// opCtx is a delivery context outside any network: the Transport methods
// Ops uses reduce to CurrentOp.
type opCtx struct {
	sim.Transport
	op sim.OpID
}

func (c opCtx) CurrentOp() sim.OpID { return c.op }

// TestOpsConcurrentInitiators runs distinct initiators on distinct
// goroutines, as the rt backend does, through Begin/GetFor/Finish plus a
// stale reply and a duplicated completion per operation. Initiators start
// in ascending id order, so the slot slice keeps growing while lower
// initiators hold pointers into their own slots; run under -race.
func TestOpsConcurrentInitiators(t *testing.T) {
	const procs, rounds = 32, 200
	ops := NewOps[int, int]()
	opID := func(p sim.ProcID, r int) sim.OpID { return sim.OpID(int(p)*rounds + r + 1) }
	var wg sync.WaitGroup
	for p := sim.ProcID(1); p <= procs; p++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for r := 0; r < rounds; r++ {
				ctx := opCtx{op: opID(p, r)}
				st := ops.Begin(ctx, p)
				if *st != 0 {
					t.Errorf("%v round %d: Begin state %d, want zero", p, r, *st)
					return
				}
				*st = r + 1
				if r > 0 {
					if _, ok := ops.GetFor(opCtx{op: opID(p, r-1)}, p); ok {
						t.Errorf("%v round %d: stale reply accepted", p, r)
						return
					}
				}
				if got, ok := ops.GetFor(ctx, p); !ok || got != st || *got != r+1 {
					t.Errorf("%v round %d: GetFor = %v, %v; want Begin's state", p, r, got, ok)
					return
				}
				if !ops.Finish(ctx, p, int(ctx.op)) {
					t.Errorf("%v round %d: Finish rejected", p, r)
					return
				}
				if ops.Finish(ctx, p, -1) {
					t.Errorf("%v round %d: duplicated Finish applied", p, r)
					return
				}
			}
		}()
	}
	wg.Wait()
	for p := sim.ProcID(1); p <= procs; p++ {
		if ops.InFlight(p) {
			t.Errorf("%v still in flight", p)
		}
		for r := 0; r < rounds; r++ {
			if v, ok := ops.Take(opID(p, r)); !ok || v != int(opID(p, r)) {
				t.Fatalf("Take(%d) = %d, %v", opID(p, r), v, ok)
			}
		}
	}
	if got, want := ops.DroppedStale(), int64(procs*(2*rounds-1)); got != want {
		t.Errorf("DroppedStale = %d, want %d", got, want)
	}
}
