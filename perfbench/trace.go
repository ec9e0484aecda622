package main

import (
	"syscall"
	"time"
	"unsafe"

	"distcount/internal/counter"
	"distcount/internal/sim"
	"distcount/internal/verify"
	"distcount/internal/workload"
)

// The traced pass measures each layer from outside the program: it wraps
// the interfaces the engine already accepts (workload.Generator,
// counter.Valued) and the registry's counter.Machine (Initiate,
// Proto.Deliver and the Transport handed to them). Nothing inside the
// repository's packages is instrumented.

// epoch anchors every host timestamp; time.Since on a monotonic reading
// costs one clock read.
var epoch = time.Now()

func now() int64 { return int64(time.Since(epoch)) }

// layerAcc accumulates one layer's inclusive host time and call count.
type layerAcc struct {
	ns    int64
	calls int64
}

// procRec is the span buffer of one execution context: the single
// simulator goroutine, or one rt processor goroutine. Only its owner
// writes it, so the rt handlers never contend on a lock.
type procRec struct {
	initiate, deliver, send layerAcc
	msgs                    int64 // Send and SendAs calls
	// sendInInitiate / sendInDeliver split transport time by the handler
	// that issued it, so handler self time excludes its sends.
	sendInInitiate, sendInDeliver int64
	inInitiate                    bool
	// spans keeps every handler interval (rt only), for the engine
	// self-time union; the simulator nests handlers inside the engine call
	// on one goroutine, where subtraction is exact and cheaper.
	keepSpans bool
	spans     []span
	// starts records each operation's initiation time (rt only): the
	// traced rt pass re-derives op intervals for its own verification.
	starts []opStart
}

type opStart struct {
	op sim.OpID
	at int64 // transport clock
}

// tracedTransport is the Transport a wrapped Machine's handlers see: it
// times the sending calls and forwards everything else.
type tracedTransport struct {
	sim.Transport
	rec *procRec
}

func (t *tracedTransport) timed(t0 int64) {
	d := now() - t0
	t.rec.send.ns += d
	t.rec.send.calls++
	if t.rec.inInitiate {
		t.rec.sendInInitiate += d
	} else {
		t.rec.sendInDeliver += d
	}
}

func (t *tracedTransport) Send(to sim.ProcID, pl sim.Payload) {
	t0 := now()
	t.Transport.Send(to, pl)
	t.timed(t0)
	t.rec.msgs++
}

func (t *tracedTransport) SendAs(tok sim.OpToken, to sim.ProcID, pl sim.Payload) {
	t0 := now()
	t.Transport.SendAs(tok, to, pl)
	t.timed(t0)
	t.rec.msgs++
}

func (t *tracedTransport) After(delay int64, pl sim.Payload) {
	t0 := now()
	t.Transport.After(delay, pl)
	t.timed(t0)
}

func (t *tracedTransport) AfterDetached(delay int64, pl sim.Payload) {
	t0 := now()
	t.Transport.AfterDetached(delay, pl)
	t.timed(t0)
}

// machineTrace wraps a Machine's handlers with per-context recorders:
// one shared recorder on the simulator, one per processor on rt.
type machineTrace struct {
	recs []*procRec             // index 0 on sim; 1..n on rt
	tts  []*tracedTransport     // parallel to recs
	of   func(p sim.ProcID) int // recorder index of a processor
}

type tracedProto struct {
	inner sim.Protocol
	mt    *machineTrace
}

func (tp *tracedProto) Deliver(nw sim.Transport, msg sim.Message) {
	i := tp.mt.of(msg.To)
	rec, tt := tp.mt.recs[i], tp.mt.tts[i]
	tt.Transport = nw
	t0 := now()
	tp.inner.Deliver(tt, msg)
	t1 := now()
	rec.deliver.ns += t1 - t0
	rec.deliver.calls++
	if rec.keepSpans {
		rec.spans = append(rec.spans, span{t0, t1})
	}
}

// wrapMachine returns m with its handlers traced. perProc selects one
// recorder per processor (rt) instead of one shared recorder (sim).
func wrapMachine(m counter.Machine, perProc bool) (counter.Machine, *machineTrace) {
	mt := &machineTrace{of: func(sim.ProcID) int { return 0 }}
	nrec := 1
	if perProc {
		nrec = m.N + 1
		mt.of = func(p sim.ProcID) int { return int(p) }
	}
	for i := 0; i < nrec; i++ {
		rec := &procRec{keepSpans: perProc}
		mt.recs = append(mt.recs, rec)
		mt.tts = append(mt.tts, &tracedTransport{rec: rec})
	}
	initiate := m.Initiate
	m.Initiate = func(nw sim.Transport, p sim.ProcID) {
		i := mt.of(p)
		rec, tt := mt.recs[i], mt.tts[i]
		tt.Transport = nw
		if perProc {
			rec.starts = append(rec.starts, opStart{nw.CurrentOp(), nw.Now()})
		}
		rec.inInitiate = true
		t0 := now()
		initiate(tt, p)
		t1 := now()
		rec.inInitiate = false
		rec.initiate.ns += t1 - t0
		rec.initiate.calls++
		if rec.keepSpans {
			rec.spans = append(rec.spans, span{t0, t1})
		}
	}
	m.Proto = &tracedProto{inner: m.Proto, mt: mt}
	return m, mt
}

// total sums the per-context recorders.
func (mt *machineTrace) total() procRec {
	var t procRec
	for _, r := range mt.recs {
		t.initiate.ns += r.initiate.ns
		t.initiate.calls += r.initiate.calls
		t.deliver.ns += r.deliver.ns
		t.deliver.calls += r.deliver.calls
		t.send.ns += r.send.ns
		t.send.calls += r.send.calls
		t.msgs += r.msgs
		t.sendInInitiate += r.sendInInitiate
		t.sendInDeliver += r.sendInDeliver
	}
	return t
}

func (mt *machineTrace) spans() []span {
	var all []span
	for _, r := range mt.recs {
		all = append(all, r.spans...)
	}
	return all
}

// hostedCounter hosts a (traced) Machine on a fresh simulated network
// behind counter.Valued, the way every per-package sim counter does. With
// engine verification off, the engine drains each completed op through
// OpValue; the host keeps the value with its simulated interval so the
// benchmark can run verify.Evaluate itself.
type hostedCounter struct {
	m        counter.Machine
	net      *sim.Network
	schedule *layerAcc
	vals     []verify.TimedValue
	missing  int
}

func newHostedCounter(m counter.Machine, schedule *layerAcc, opts ...sim.Option) *hostedCounter {
	return &hostedCounter{m: m, net: sim.New(m.N, m.Proto, opts...), schedule: schedule}
}

func (h *hostedCounter) Name() string                  { return h.m.Name }
func (h *hostedCounter) N() int                        { return h.m.N }
func (h *hostedCounter) Net() *sim.Network             { return h.net }
func (h *hostedCounter) Inc(p sim.ProcID) (int, error) { return counter.RunInc(h, p) }
func (h *hostedCounter) Guarantee() counter.Guarantee  { return h.m.Guarantee }

// Start times the scheduling call; the initiation itself runs later, inside
// the network's event loop, and is timed by the Machine wrapper.
func (h *hostedCounter) Start(at int64, p sim.ProcID) sim.OpID {
	t0 := now()
	id := h.net.ScheduleOp(at, p, h.m.Initiate)
	h.schedule.ns += now() - t0
	h.schedule.calls++
	return id
}

func (h *hostedCounter) OpValue(id sim.OpID) (int, bool) {
	v, ok := h.m.Value(id)
	if !ok {
		h.missing++
		return v, ok
	}
	st := h.net.OpStats(id)
	h.vals = append(h.vals, verify.TimedValue{Op: id, Value: v, Start: st.StartedAt, End: st.DoneAt})
	return v, ok
}

// tracedGen times Generator.Next and forwards the length hint the engine
// sizes its buffers and sampling stride from.
type tracedGen struct {
	inner workload.Generator
	acc   layerAcc
	spans []span // kept only when the engine call's self time needs a union
	keep  bool
}

func (g *tracedGen) Name() string { return g.inner.Name() }

func (g *tracedGen) Next() (workload.Request, bool) {
	t0 := now()
	r, ok := g.inner.Next()
	t1 := now()
	g.acc.ns += t1 - t0
	g.acc.calls++
	if g.keep {
		g.spans = append(g.spans, span{t0, t1})
	}
	return r, ok
}

func (g *tracedGen) Len() int {
	if s, ok := g.inner.(interface{ Len() int }); ok {
		return s.Len()
	}
	return 0
}

// threadCPU is the CPU time of the calling OS thread. On a virtual machine
// it excludes time the hypervisor gave to other guests, which wall time
// does not. The benchmark locks its driving goroutine to one thread, so
// this is the engine's own CPU time: its GC assists included, background
// GC workers on other threads not (allocs_per_op covers those).
func threadCPU() int64 { return clockNs(3) } // CLOCK_THREAD_CPUTIME_ID

// processCPU is the CPU time of every thread of the process, the measure
// for the rt backend's goroutines.
func processCPU() int64 { return clockNs(2) } // CLOCK_PROCESS_CPUTIME_ID

func clockNs(clock uintptr) int64 {
	var ts syscall.Timespec
	if _, _, errno := syscall.Syscall(syscall.SYS_CLOCK_GETTIME, clock, uintptr(unsafe.Pointer(&ts)), 0); errno != 0 {
		panic("clock_gettime: " + errno.Error())
	}
	return ts.Nano()
}
