package engine

import (
	"fmt"

	"distcount/internal/sim"
	"distcount/internal/workload"
)

// source pulls the request stream one ahead, so admission can stop at a
// busy initiator or a future arrival without losing the request.
type source struct {
	gen     workload.Generator
	n       int
	keys    int   // key-space bound for keyed runs; 0 = unkeyed, keys ignored
	scale   int64 // clock units per tick
	head    workload.Request
	have    bool
	arrival int64 // absolute arrival time of head, in clock units
	err     error // sticky: a malformed request stops the stream
}

func (s *source) pull() {
	req, ok := s.gen.Next()
	s.have = false
	switch {
	case !ok:
	case req.Proc < 1 || int(req.Proc) > s.n:
		s.err = fmt.Errorf("engine: scenario %q targets processor %v outside [1,%d]", s.gen.Name(), req.Proc, s.n)
	case s.keys > 0 && (req.Key < 0 || req.Key >= s.keys):
		s.err = fmt.Errorf("engine: scenario %q addresses key %d outside [0,%d)", s.gen.Name(), req.Key, s.keys)
	case req.Gap < 0:
		s.err = fmt.Errorf("engine: scenario %q yields negative gap %d (arrivals must not go back in time)", s.gen.Name(), req.Gap)
	default:
		s.arrival += req.Gap * s.scale
		s.head, s.have = req, true
	}
}

// opTimes carries an operation's arrival and injection times between
// admission and completion.
type opTimes struct {
	arrival int64 // scenario arrival time
	start   int64 // injection time (= arrival unless the op waited)
}

// opRec tracks one open-loop request through its lifecycle. Times are -1
// until reached.
type opRec struct {
	arrival    int64
	start      int64 // injection time; -1 while queued
	done       int64 // completion time; -1 while outstanding
	key        int
	queueDepth int // admission-queue depth observed at arrival
	backlog    int // in flight + queued at arrival
	dropped    bool
}

// driver is the state both admission loops share.
type driver struct {
	s        substrate
	src      *source
	res      *Result
	m        *metrics
	cfg      Config
	stride   int    // bottleneck-series sampling stride, in completions
	busy     []bool // one operation per initiator in flight
	inFlight int
	queued   int // open loop: requests waiting for their initiator or key
}

// drive runs one workload over the substrate and assembles its report.
// cfg has its defaults applied.
func drive(s substrate, gen workload.Generator, cfg Config) (*Result, error) {
	defer s.close()
	b := s.base()
	if cfg.Verify {
		for _, c := range b.vals.shards {
			if c == nil {
				return nil, fmt.Errorf("engine: verification needs per-operation values, which %q does not expose (counter.Valued)", b.res.Algorithm)
			}
		}
		b.vals.keep = true
	}
	res := new(Result)
	*res = b.res
	res.Scenario, res.Mode, res.Warmup = gen.Name(), cfg.Mode.String(), cfg.Warmup
	src := &source{gen: gen, n: res.N, keys: res.Keys, scale: b.scale}
	if src.pull(); src.err != nil {
		return nil, src.err
	}
	hint := opsHint(cfg, gen)
	b.vals.reserve(hint, res.Keys > 0)
	stride, thinAfter := resolveStride(cfg, gen)
	d := &driver{s: s, src: src, res: res, m: newMetrics(cfg.Warmup, hint, res.Keys), cfg: cfg,
		stride: stride, busy: make([]bool, res.N+1)}
	var recs []opRec
	var err error
	if cfg.Mode == Open {
		res.QueueCap = cfg.QueueCap
		recs, err = d.open(hint)
	} else {
		res.InFlight = cfg.InFlight
		err = d.closed()
	}
	if err != nil {
		return nil, err
	}
	if fs, ok := s.faults(); ok {
		res.Faults = &fs
	}
	// Rates are measured over clock-unit spans; a wall clock reports
	// operations per second.
	rate := float64(1)
	if res.Wall {
		rate = 1e9
	}
	if err := d.m.finalize(s, res, thinAfter, rate); err != nil {
		return nil, err
	}
	if cfg.Mode == Open {
		res.Buckets = bucketize(recs, cfg.KneeBuckets)
		for i := range res.Buckets {
			res.Buckets[i].OfferedRate *= rate
		}
		res.Knee = detectKnee(res.Buckets, kneeFactor)
	}
	if cfg.Verify {
		b.vals.report(res)
	}
	return res, nil
}

// advance steps the substrate, labelling a simulator error with the run.
func (d *driver) advance(before int64) (bool, error) {
	ok, err := d.s.advance(before)
	if err != nil {
		return false, fmt.Errorf("engine: %s/%s: %w", d.res.Algorithm, d.res.Scenario, err)
	}
	return ok, nil
}

// complete records one completion's measurements and, at the sampling
// stride, a bottleneck-series point.
func (d *driver) complete(c completion, tm opTimes) {
	d.inFlight--
	d.busy[c.p] = false
	d.m.onDone(d.s, d.res, c, tm)
	if d.m.completed%d.stride == 0 {
		p, load, sum := d.s.bottleneck()
		d.res.Series = append(d.res.Series, Sample{
			SimTime:        d.s.now(),
			Completed:      d.m.completed,
			Bottleneck:     p,
			BottleneckLoad: load,
			MeanLoad:       float64(sum) / float64(d.res.N),
			InFlight:       d.inFlight,
			QueueDepth:     d.queued,
		})
	}
}

// finish settles the substrate once a loop ends and accounts for the work
// left outstanding. A run that went quiet with a fault on record has the
// expected shape of a faulty run — a fault destroyed an event of every
// stuck operation — and reports it as wedged; without one it is a driver
// error.
func (d *driver) finish() error {
	if err := d.s.settle(); err != nil {
		return fmt.Errorf("engine: %s/%s: %w", d.res.Algorithm, d.res.Scenario, err)
	}
	if d.src.err != nil || (d.inFlight == 0 && d.queued == 0 && !d.src.have) {
		return d.src.err
	}
	if fs, _ := d.s.faults(); !fs.Any() {
		return fmt.Errorf("engine: %s/%s: driver stalled with %d ops in flight, %d queued",
			d.res.Algorithm, d.res.Scenario, d.inFlight, d.queued)
	}
	d.res.Wedged, d.res.Unserved = d.inFlight, d.queued
	for d.src.have {
		d.res.Unserved++
		d.src.pull()
	}
	return d.src.err
}

// closed is the closed loop: at most cfg.InFlight operations in flight,
// requests admitted in arrival order whenever a window slot is free and
// the head-of-line initiator is idle. A head whose key is frozen for
// migration drain holds the line: the freeze implies in-flight operations
// of that key, whose completions drive the drain to its cutover and
// re-trigger admission.
func (d *driver) closed() error {
	s, src := d.s, d.src
	cur := make([]opTimes, d.res.N+1) // each busy initiator's operation
	ahead := s.base().ahead
	// ready reports that only the head's arrival time can hold it back.
	ready := func() bool {
		return d.inFlight < d.cfg.InFlight && src.have && !d.busy[src.head.Proc] && s.open(src.head.Key)
	}
	// admit starts ready requests. The simulator schedules a future
	// arrival at once, so its start event takes its place in the event
	// order now; a wall clock waits for it. A request whose arrival is
	// already past starts immediately, the wait counted as queueing delay.
	admit := func() {
		for ready() {
			at, now := src.arrival, s.now()
			if at > now && !ahead {
				return
			}
			start := max(at, now)
			p := src.head.Proc
			s.start(start, src.head.Key, p)
			cur[p] = opTimes{arrival: at, start: start}
			d.busy[p] = true
			d.inFlight++
			src.pull()
		}
	}
	s.base().done = func(c completion) {
		d.complete(c, cur[c.p])
		admit()
	}
	admit()
	for src.have || d.inFlight > 0 {
		before := int64(never)
		if ready() {
			before = src.arrival
		}
		ok, err := d.advance(before)
		if err != nil {
			return err
		}
		if !ok {
			if before == never {
				break
			}
			admit()
		}
	}
	return d.finish()
}

// open is the open loop: each request's fate — inject, queue behind its
// busy initiator or frozen key, or drop at a full queue — is decided with
// the system state of its arrival instant. It returns the request records
// for the rate-bucket analysis.
func (d *driver) open(hint int) ([]opRec, error) {
	s, src, n := d.s, d.src, d.res.N
	var (
		recs   = make([]opRec, 0, hint)
		cur    = make([]int, n+1)   // each busy initiator's record
		queues = make([][]int, n+1) // records waiting per initiator, FIFO
	)
	inject := func(idx int, p sim.ProcID) {
		r := &recs[idx]
		r.start = max(r.arrival, s.now())
		s.start(r.start, r.key, p)
		cur[p] = idx
		d.busy[p] = true
		d.inFlight++
	}
	// feed hands an idle initiator its oldest queued request, unless that
	// request's key is frozen: per-initiator FIFO holds the line until the
	// cutover reopens it.
	feed := func(p sim.ProcID) {
		if q := queues[p]; !d.busy[p] && len(q) > 0 && s.open(recs[q[0]].key) {
			queues[p] = q[1:]
			d.queued--
			inject(q[0], p)
		}
	}
	// The arrival timestamp is the scheduled one, not the instant the loop
	// got around to it: offered rate is a property of the scenario, and
	// charging a wall clock's lateness to the operation's latency (rather
	// than re-timing the arrival) is what keeps an overloaded run honest —
	// the coordinated-omission rule.
	admit := func() {
		p := src.head.Proc
		recs = append(recs, opRec{arrival: src.arrival, start: -1, done: -1, key: src.head.Key,
			queueDepth: d.queued, backlog: d.inFlight + d.queued})
		idx := len(recs) - 1
		switch {
		case !d.busy[p] && s.open(src.head.Key):
			inject(idx, p)
		case d.queued >= d.cfg.QueueCap:
			recs[idx].dropped = true
			d.res.Dropped++
		default:
			queues[p] = append(queues[p], idx)
			d.queued++
			d.res.PeakQueueDepth = max(d.res.PeakQueueDepth, d.queued)
		}
	}
	b := s.base()
	b.reopen = func() {
		for p := sim.ProcID(1); int(p) <= n; p++ {
			feed(p)
		}
	}
	b.done = func(c completion) {
		r := &recs[cur[c.p]]
		r.done = c.done
		d.complete(c, opTimes{arrival: r.arrival, start: r.start})
		feed(c.p)
	}
	// Merge the arrival stream with the substrate's events in time order;
	// an arrival is admitted once nothing is left to deliver before it.
	for src.have {
		ok, err := d.advance(src.arrival)
		if err != nil {
			return nil, err
		}
		if !ok {
			admit()
			src.pull()
		}
	}
	for d.inFlight > 0 || d.queued > 0 {
		ok, err := d.advance(never)
		if err != nil {
			return nil, err
		}
		if !ok {
			break
		}
	}
	return recs, d.finish()
}
