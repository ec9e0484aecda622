package engine

import (
	"fmt"
	"math"
	"time"

	"distcount/internal/counter"
	"distcount/internal/countersvc"
	"distcount/internal/rt"
	"distcount/internal/sim"
	"distcount/internal/verify"
)

// never is the deadline of an advance that waits for whatever comes next.
const never = math.MaxInt64

// wallStall bounds how long a wall-clock run waits for a completion before
// declaring the run stalled. The simulator detects a stalled protocol by
// running out of events; real goroutines just stay silent, so the wall
// adapters need a timeout — generous enough that scheduler hiccups under a
// loaded CI machine never trip it.
const wallStall = 30 * time.Second

// substrate is what the two admission loops drive: one counter or one
// multi-key service, on the simulator or on the rt runtime. Times are in
// the substrate's clock unit — simulated ticks, or wall-clock nanoseconds.
type substrate interface {
	// base returns the state every adapter shares with the loops.
	base() *core
	// now reads the clock.
	now() int64
	// start injects one increment of key by p at time at (not before now;
	// a wall clock starts it immediately).
	start(at int64, key int, p sim.ProcID)
	// advance delivers what happens before the deadline — the next event
	// or completion, or at never on a simulator every event up to
	// quiescence — completions reaching core.done; false means nothing
	// happened: the deadline came, or at never the substrate is quiescent
	// (simulator) or silent past its stall timeout (wall clock).
	advance(before int64) (bool, error)
	// open reports whether key admits new operations (false while the
	// service drains it for migration).
	open(key int) bool
	// loads returns per-processor sent and received message counts.
	loads() (sent, recv []int64)
	// bottleneck returns the most loaded processor, its load and the sum
	// of all loads.
	bottleneck() (proc int, load, sum int64)
	// messages returns the total message count.
	messages() int64
	// faults returns the fault events fired so far and whether a fault
	// plan is installed.
	faults() (sim.FaultStats, bool)
	// settle delivers the events left once every operation has completed
	// (stale timers and other maintenance); a no-op on a wall clock.
	settle() error
	// close detaches the loop's hooks and stops rt goroutines.
	close()
}

// completion is one finished operation as the loops see it.
type completion struct {
	p                 sim.ProcID
	id                sim.OpID
	shard, key, epoch int
	started, done     int64 // the host's own view, for verification
}

// core is the part of every adapter the loops read and write directly.
type core struct {
	// res is the result header: Algorithm, N, and for services Keys,
	// Shards and ShardAlgos, for wall clocks Wall and TickNs.
	res Result
	// scale converts the scenario's tick arrivals to clock units.
	scale int64
	// ahead reports that start accepts future times, so a closed loop may
	// admit an arrival before its time comes (the simulator).
	ahead bool
	svc   *countersvc.Service // nil for a single counter
	vals  values
	// done and reopen are the loop's hooks: a completion, and a key the
	// service reopened at a migration cutover.
	done   func(completion)
	reopen func()
}

func (c *core) base() *core { return c }

func (c *core) open(key int) bool {
	if c.svc == nil {
		return true
	}
	_, open := c.svc.RouteFor(key)
	return open
}

// values reads each completed operation's delivered value before the host
// forgets the operation. With Config.Verify it keeps the value for the
// post-run evaluation; otherwise it only drains the counter's value table,
// which holds an entry per operation until someone reads it. Reading costs
// O(1) per operation.
type values struct {
	shards  []counter.Valued // by shard; nil when the counter records no values
	keep    bool
	timed   []verify.TimedValue // a single counter's values
	keyed   []verify.KeyedValue // a service's values
	missing int
}

// reserve sizes the kept history from the expected completion count, as
// newMetrics does the metric slices, so a hinted run collects without
// reallocating.
func (v *values) reserve(hint int, keyed bool) {
	switch {
	case !v.keep || hint <= 0:
	case keyed:
		v.keyed = make([]verify.KeyedValue, 0, hint)
	default:
		v.timed = make([]verify.TimedValue, 0, hint)
	}
}

func (v *values) collect(d completion, keyed bool) {
	c := v.shards[d.shard]
	if c == nil {
		return
	}
	val, ok := c.OpValue(d.id)
	switch {
	case !v.keep:
	case !ok:
		v.missing++
	case keyed:
		v.keyed = append(v.keyed, verify.KeyedValue{Op: d.id, Shard: d.shard, Key: d.key, Epoch: d.epoch,
			Value: val, Start: d.started, End: d.done})
	default:
		v.timed = append(v.timed, verify.TimedValue{Op: d.id, Value: val, Start: d.started, End: d.done})
	}
}

// report evaluates the collected values against each counter's claimed
// consistency level, excusing fault-attributable anomalies only when a
// fault actually fired (see verify.EvaluateWithFaults). A service's full
// sharded report is attached as KeyedVerification and its summary as
// Verification, so gates and renderers treat keyed runs uniformly.
func (v *values) report(res *Result) {
	fc := verify.FaultContext{Fired: res.Faults != nil && res.Faults.Any(), Wedged: res.Wedged}
	if res.Keys == 0 {
		rep := verify.EvaluateWithFaults(v.shards[0].Guarantee(), v.timed, v.missing, fc)
		res.Verification = &rep
		return
	}
	guarantees := make([]counter.Guarantee, len(v.shards))
	for s, c := range v.shards {
		guarantees[s] = c.Guarantee()
	}
	rep := verify.EvaluateKeyed(guarantees, res.ShardAlgos, v.keyed, v.missing, fc)
	res.KeyedVerification = &rep
	res.Verification = &rep.Summary
}

// simSub is a counter on its simulated network.
type simSub struct {
	core
	c   counter.Async
	net *sim.Network
}

func newSimSub(c counter.Async) (*simSub, error) {
	net := c.Net()
	if net == nil {
		return nil, fmt.Errorf("engine: counter %q has neither a simulated network nor an rt runtime", c.Name())
	}
	if net.Now() != 0 || net.Ops() != 0 {
		return nil, fmt.Errorf("engine: counter %q has already run %d ops (t=%d); build a fresh counter per run",
			c.Name(), net.Ops(), net.Now())
	}
	s := &simSub{c: c, net: net}
	s.res = Result{Algorithm: c.Name(), N: c.N()}
	s.scale, s.ahead = 1, true
	v, _ := c.(counter.Valued)
	s.vals.shards = []counter.Valued{v}
	net.OnOpDone(func(st *sim.OpStats) {
		d := completion{p: st.Initiator, id: st.ID, started: st.StartedAt, done: st.DoneAt}
		s.vals.collect(d, false)
		net.ForgetOp(st.ID)
		s.done(d)
	})
	return s, nil
}

func (s *simSub) now() int64                          { return s.net.Now() }
func (s *simSub) start(at int64, _ int, p sim.ProcID) { s.c.Start(at, p) }
func (s *simSub) loads() (sent, recv []int64)         { return s.net.Sent(), s.net.Recv() }
func (s *simSub) messages() int64                     { return s.net.MessagesTotal() }
func (s *simSub) faults() (sim.FaultStats, bool)      { return s.net.FaultStats(), s.net.FaultsActive() }
func (s *simSub) settle() error                       { return s.net.Run() }
func (s *simSub) close()                              { s.net.OnOpDone(nil) }
func (s *simSub) advance(before int64) (bool, error)  { return step(s.net, before) }
func (s *simSub) bottleneck() (proc int, load, sum int64) {
	p, l := s.net.MaxLoad()
	return int(p), l, s.net.SumLoads()
}

// step advances a simulator: one event, if it falls before the deadline —
// an arrival at the same tick as an event is admitted first, so admission
// sees the pre-completion state of its tick — or, at never, every event up
// to quiescence, since no arrival can come between them.
func step(q interface {
	NextAt() (int64, bool)
	Step() (bool, error)
	Run() error
}, before int64) (bool, error) {
	at, ok := q.NextAt()
	switch {
	case !ok || at >= before:
		return false, nil
	case before == never:
		return true, q.Run()
	}
	return q.Step()
}

// rtSub is a counter on the rt runtime: real goroutines, wall-clock time.
type rtSub struct {
	core
	wallWait
	r    *rt.Runtime
	comp chan rt.OpDone
}

func newRTSub(r *rt.Runtime, wedgeIdle time.Duration) (*rtSub, error) {
	if r.Ops() != 0 || r.Closed() {
		return nil, fmt.Errorf("engine: runtime %q has already run %d ops or is closed; build a fresh runtime per run", r.Name(), r.Ops())
	}
	// The buffer covers every possible undrained completion (one in-flight
	// operation per initiator), so a processor goroutine never blocks
	// delivering one while the loop sleeps.
	s := &rtSub{r: r, comp: make(chan rt.OpDone, r.N()+8), wallWait: newWallWait(wedgeIdle)}
	s.res = Result{Algorithm: r.Name(), N: r.N(), Wall: true, TickNs: r.Tick().Nanoseconds()}
	s.scale = s.res.TickNs
	s.vals.shards = []counter.Valued{r}
	r.OnOpDone(func(d rt.OpDone) { s.comp <- d })
	return s, nil
}

func (s *rtSub) now() int64                         { return s.r.NowNs() }
func (s *rtSub) start(_ int64, _ int, p sim.ProcID) { s.r.StartNow(p) }
func (s *rtSub) loads() (sent, recv []int64)        { return s.r.Loads() }
func (s *rtSub) bottleneck() (int, int64, int64)    { return scanLoads(s.r.Loads()) }
func (s *rtSub) messages() int64                    { return s.r.MessagesTotal() }
func (s *rtSub) faults() (sim.FaultStats, bool)     { return s.r.FaultStats(), s.r.FaultsActive() }
func (s *rtSub) settle() error                      { return nil }
func (s *rtSub) close()                             { s.r.Close() }
func (s *rtSub) advance(before int64) (bool, error) {
	d, ok := await(&s.wallWait, s.comp, before, s.now(), before == never && s.r.FaultStats().Any())
	if ok {
		c := completion{p: d.Initiator, id: d.ID, started: d.StartNs, done: d.DoneNs}
		s.vals.collect(c, false)
		s.done(c)
	}
	return ok, nil
}

// serviceSub is a multi-key countersvc service on the simulator: its
// shards' networks merged into one deterministic event loop.
type serviceSub struct {
	core
}

// serviceRTSub is a service whose shards run on the rt runtime, its
// completions merged into one channel.
type serviceRTSub struct {
	core
	wallWait
}

// newServiceSub picks the adapter for the service's backend.
func newServiceSub(svc *countersvc.Service, wedgeIdle time.Duration) (substrate, error) {
	for i := 0; i < svc.Shards(); i++ {
		used := false
		if r := svc.RT(i); r != nil {
			used = r.Ops() != 0 || r.Closed()
		} else {
			used = svc.Net(i).Ops() != 0
		}
		if used {
			return nil, fmt.Errorf("engine: service shard %d has already run or is closed; build a fresh service per run", i)
		}
	}
	c := core{svc: svc, scale: 1}
	c.res = Result{Algorithm: serviceLabel(svc), N: svc.N(), Keys: svc.Keys(), Shards: svc.Shards(),
		ShardAlgos: make([]string, svc.Shards())}
	c.vals.shards = make([]counter.Valued, svc.Shards())
	for i := range c.vals.shards {
		c.res.ShardAlgos[i] = svc.Algo(i)
		c.vals.shards[i] = svc.Counter(i)
	}
	if svc.RT(0) != nil {
		s := &serviceRTSub{core: c, wallWait: newWallWait(wedgeIdle)}
		s.res.Wall, s.res.TickNs = true, svc.RT(0).Tick().Nanoseconds()
		s.scale = s.res.TickNs
		// Cutovers happen inside CompleteRT on the loop's goroutine, so the
		// reopen hook needs no synchronization.
		svc.OnMigrate(s.onMigrate)
		return s, nil
	}
	s := &serviceSub{core: c}
	s.ahead = true
	svc.OnMigrate(s.onMigrate)
	svc.OnOpDone(func(shard, key, epoch int, st *sim.OpStats) {
		d := completion{p: st.Initiator, id: st.ID, shard: shard, key: key, epoch: epoch, started: st.StartedAt, done: st.DoneAt}
		s.vals.collect(d, true)
		svc.Net(shard).ForgetOp(st.ID)
		s.done(d)
	})
	return s, nil
}

func (c *core) onMigrate(countersvc.MigrationEvent) {
	if c.reopen != nil {
		c.reopen()
	}
}

func (s *serviceSub) now() int64                            { return s.svc.Now() }
func (s *serviceSub) start(at int64, key int, p sim.ProcID) { s.svc.Start(at, key, p) }
func (s *serviceSub) advance(before int64) (bool, error)    { return step(s.svc, before) }
func (s *serviceSub) loads() (sent, recv []int64)           { return s.svc.Loads() }
func (s *serviceSub) bottleneck() (int, int64, int64)       { return scanLoads(s.svc.Loads()) }
func (s *serviceSub) messages() int64                       { return s.svc.MessagesTotal() }
func (s *serviceSub) faults() (sim.FaultStats, bool)        { return sim.FaultStats{}, false }
func (s *serviceSub) settle() error                         { return s.svc.Run() }
func (s *serviceSub) close() {
	s.svc.OnOpDone(nil)
	s.svc.OnMigrate(nil)
}

func (s *serviceRTSub) now() int64                           { return s.svc.NowNs() }
func (s *serviceRTSub) start(_ int64, key int, p sim.ProcID) { s.svc.Start(0, key, p) }
func (s *serviceRTSub) loads() (sent, recv []int64)          { return s.svc.Loads() }
func (s *serviceRTSub) bottleneck() (int, int64, int64)      { return scanLoads(s.svc.Loads()) }
func (s *serviceRTSub) messages() int64                      { return s.svc.MessagesTotal() }
func (s *serviceRTSub) faults() (sim.FaultStats, bool)       { return sim.FaultStats{}, false }
func (s *serviceRTSub) settle() error                        { return nil }
func (s *serviceRTSub) close() {
	s.svc.OnMigrate(nil)
	s.svc.Close()
}
func (s *serviceRTSub) advance(before int64) (bool, error) {
	d, ok := await(&s.wallWait, s.svc.Completions(), before, s.now(), false)
	if ok {
		key, epoch := s.svc.CompleteRT(d)
		c := completion{p: d.Done.Initiator, id: d.Done.ID, shard: d.Shard, key: key, epoch: epoch,
			started: d.Done.StartNs, done: d.Done.DoneNs}
		s.vals.collect(c, true)
		s.done(c)
	}
	return ok, nil
}

// scanLoads is bottleneck over a load snapshot: an O(n) scan, which the
// loops pay only at the sampling stride.
func scanLoads(sent, recv []int64) (proc int, load, sum int64) {
	for p := 1; p < len(sent); p++ {
		l := sent[p] + recv[p]
		sum += l
		if l > load {
			load, proc = l, p
		}
	}
	return proc, load, sum
}

// wallWait is the waiting half of the wall-clock adapters: one timer,
// reused across every wait of the run.
type wallWait struct {
	timer     *time.Timer
	wedgeIdle time.Duration
}

func newWallWait(wedgeIdle time.Duration) wallWait {
	t := time.NewTimer(time.Hour)
	t.Stop()
	return wallWait{timer: t, wedgeIdle: wedgeIdle}
}

// await receives the next completion from ch if one arrives before the
// deadline (a wall-clock time; at never, within the stall timeout — the
// short WedgeIdle once a fault has fired, since a wedged run is silent for
// good). A deadline already past only polls.
func await[T any](w *wallWait, ch <-chan T, before, now int64, fired bool) (T, bool) {
	var zero T
	wait := time.Duration(before - now)
	if before == never {
		wait = wallStall
		if fired {
			wait = w.wedgeIdle
		}
	}
	if wait <= 0 {
		select {
		case d := <-ch:
			return d, true
		default:
			return zero, false
		}
	}
	w.timer.Reset(wait)
	select {
	case d := <-ch:
		w.timer.Stop()
		return d, true
	case <-w.timer.C:
		return zero, false
	}
}
