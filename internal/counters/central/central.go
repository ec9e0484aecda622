// Package central implements the naive centralized distributed counter the
// paper uses as its motivating negative example (Section 1): the counter
// value is stored at a single processor, and every other processor accesses
// it with one request/reply exchange.
//
// This counter is message-optimal — two messages per operation — but the
// holder sends or receives a message in every operation, so its message load
// over the canonical workload is Θ(n): "whenever a large number of
// processors operate on the counter, the single processor handling the
// counter value will be a bottleneck."
package central

import (
	"fmt"

	"distcount/internal/counter"
	"distcount/internal/sim"
)

// payloads, sent as pointers carved from the sender's arenas
type (
	reqPayload struct{ Origin sim.ProcID }
	valPayload struct{ Val int }
)

func (reqPayload) Kind() string { return "inc-request" }
func (valPayload) Kind() string { return "value" }

// arenas holds one sending processor's payload arenas.
type arenas struct {
	req counter.Arena[reqPayload]
	val counter.Arena[valPayload]
}

// proto is the protocol: all state lives at the holder (the counter value);
// initiators keep only their in-flight operation entry in the shared op
// table.
type proto struct {
	n      int
	holder sim.ProcID
	val    int

	ops *counter.Ops[struct{}, int]
	// mem holds each processor's payload arenas.
	mem counter.PerProc[arenas]
}

func newProto(n int, holder sim.ProcID) *proto {
	return &proto{n: n, holder: holder, ops: counter.NewOps[struct{}, int](), mem: counter.NewPerProc[arenas](n)}
}

var _ sim.CloneableProtocol = (*proto)(nil)

func (pr *proto) initiate(nw sim.Transport, p sim.ProcID) {
	pr.ops.Begin(nw, p)
	if p == pr.holder {
		// The holder increments locally: accessing your own memory costs no
		// messages in the paper's model.
		pr.ops.Finish(nw, p, pr.val)
		pr.val++
		return
	}
	nw.Send(pr.holder, pr.mem.Of(p).req.New(reqPayload{Origin: p}))
}

func (pr *proto) Deliver(nw sim.Transport, msg sim.Message) {
	switch pl := msg.Payload.(type) {
	case *reqPayload:
		nw.Send(pl.Origin, pr.mem.Of(msg.To).val.New(valPayload{Val: pr.val}))
		pr.val++
	case *valPayload:
		pr.ops.Finish(nw, msg.To, pl.Val)
	default:
		panic(fmt.Sprintf("central: unexpected payload %T", msg.Payload))
	}
}

func (pr *proto) CloneProtocol() sim.Protocol {
	cp := *pr
	cp.ops = pr.ops.Clone(nil)
	cp.mem = counter.NewPerProc[arenas](pr.n)
	return &cp
}

// Counter is the centralized counter.
type Counter struct {
	net   *sim.Network
	proto *proto
	start func(sim.Transport, sim.ProcID)
}

var (
	_ counter.Cloneable = (*Counter)(nil)
	_ counter.Valued    = (*Counter)(nil)
)

// Option configures the counter.
type Option func(*config)

type config struct {
	holder  sim.ProcID
	simOpts []sim.Option
}

// WithHolder selects which processor stores the counter value (default 1).
func WithHolder(p sim.ProcID) Option {
	return func(c *config) { c.holder = p }
}

// WithSimOptions forwards options to the underlying network.
func WithSimOptions(opts ...sim.Option) Option {
	return func(c *config) { c.simOpts = append(c.simOpts, opts...) }
}

// New creates a centralized counter over n processors.
func New(n int, opts ...Option) *Counter {
	cfg := config{holder: 1}
	for _, o := range opts {
		o(&cfg)
	}
	pr := newProto(n, cfg.holder)
	return &Counter{
		net:   sim.New(n, pr, cfg.simOpts...),
		proto: pr,
	}
}

// NewMachine returns the backend-independent protocol descriptor for n
// processors, for running the algorithm on a non-simulator transport
// (internal/rt). The counter value is confined to the holder's execution
// context, so handlers may run concurrently per processor.
func NewMachine(n int, opts ...Option) counter.Machine {
	cfg := config{holder: 1}
	for _, o := range opts {
		o(&cfg)
	}
	pr := newProto(n, cfg.holder)
	return counter.Machine{
		Name:      "central",
		N:         n,
		Proto:     pr,
		Initiate:  pr.initiate,
		Value:     pr.ops.Take,
		Guarantee: counter.Exact(counter.Linearizable),
	}
}

// Name implements counter.Counter.
func (c *Counter) Name() string { return "central" }

// N implements counter.Counter.
func (c *Counter) N() int { return c.net.N() }

// Net implements counter.Counter.
func (c *Counter) Net() *sim.Network { return c.net }

// Holder returns the processor storing the counter value.
func (c *Counter) Holder() sim.ProcID { return c.proto.holder }

// Inc implements counter.Counter.
func (c *Counter) Inc(p sim.ProcID) (int, error) {
	return counter.RunInc(c, p)
}

// Start implements counter.Async: it schedules p's operation without
// running the network. The holder serves each request independently and
// assigns values atomically in request-arrival order, so the counter stays
// linearizable under concurrency.
func (c *Counter) Start(at int64, p sim.ProcID) sim.OpID {
	if c.start == nil {
		// Cache the bound method value: a fresh one per operation is a heap
		// allocation on the hot path.
		c.start = c.proto.initiate
	}
	return c.net.ScheduleOp(at, p, c.start)
}

// OpValue implements counter.Valued.
func (c *Counter) OpValue(id sim.OpID) (int, bool) { return c.proto.ops.Take(id) }

// Guarantee implements counter.Valued: the holder is a single
// serialization point, so values respect real-time order.
func (c *Counter) Guarantee() counter.Guarantee { return counter.Exact(counter.Linearizable) }

// Clone implements counter.Cloneable.
func (c *Counter) Clone() (counter.Counter, error) {
	net, err := c.net.Clone()
	if err != nil {
		return nil, err
	}
	return &Counter{net: net, proto: net.Protocol().(*proto)}, nil
}
