// Package core implements the paper's primary contribution: the distributed
// counter of Section 4 of Wattenhofer & Widmayer, "An Inherent Bottleneck in
// Distributed Counting" — a communication tree of arity k over n = k·k^k
// processors whose inner nodes retire their processor after handling Θ(k)
// messages, so that over the canonical workload (each processor increments
// exactly once) every processor sends and receives only O(k) messages. This
// matches the paper's lower bound of Ω(k) on the bottleneck message load,
// proving the bound tight.
//
// # Structure
//
// The root is on level 0, inner nodes occupy levels 0..k, and the n leaves
// on level k+1 are the processors themselves. The root stores the served
// object's state (for the counter: the value). An operation initiated by
// processor p travels leaf -> root along inner nodes ("inc from p"); the
// root applies it and replies directly to p.
//
// The tree is generic over the root state (RootState) and its request and
// reply types: the paper observes that its results extend to "a bit that
// can be accessed and flipped and a priority queue", both built on Tree in
// internal/ext. Counter is the counter instantiation, hosted like every
// other algorithm on counter.Sim.
//
// # Retirement
//
// Every inner node tracks its age — the number of messages its current
// processor has sent or received on the node's behalf. Once the age reaches
// the retirement threshold (4k by default, see below), the node hands its
// role to the next processor of its preassigned replacement pool: k+2
// handoff messages to the successor plus k+1 notifications to the parent
// and children, all of size O(log n) bits. Notifications age their
// receivers, so retirements can cascade; the paper's "proper handshaking
// protocol with a constant number of extra messages" is realized as
// successor forwarding for messages addressed through stale neighbor tables.
//
// # Reconstructed constants
//
// The source scan of the paper loses most numeric constants. This
// implementation fixes them as follows, chosen so that every lemma proof of
// Section 4 goes through (see DESIGN.md §4.2):
//
//   - retirement threshold: age >= 4k (the Retirement Lemma needs the
//     messages receivable by a fresh processor within one operation, k+3,
//     to stay below the threshold: k+3 < 4k for k >= 2);
//   - handoff: k+2 messages to the successor (job, parent id, k child ids;
//     the root replaces the parent id with the state-carrying message);
//   - notifications: k+1 messages (parent and k children; the root "saves
//     the message that would inform the parent", but gains the state
//     message, keeping totals symmetric);
//   - replacement pools: node j on level i >= 1 owns the k^(k-i)
//     consecutive processors starting at (i-1)·k^k + j·k^(k-i) + 1; the
//     root owns 1..k^k.
//
// With these constants the Number of Retirements Lemma holds with room to
// spare: a level-i node accumulates at most 3·k^(k+1-i) + k^(k-i) age over
// the whole workload and therefore retires fewer than k^(k-i) times, so its
// pool never empties; level-k nodes never retire at all, and leaves handle
// exactly 2 messages.
package core

import (
	"fmt"

	"distcount/internal/counter"
	"distcount/internal/sim"
)

// Option configures a Counter or a Tree.
type Option func(*config)

type config struct {
	retireAge int // -1: default 4k; 0: retirement disabled
	simOpts   []sim.Option
}

// WithRetireAge overrides the retirement threshold (default 4k). Used by
// the threshold-ablation experiment. A value of 0 disables retirement
// entirely, degenerating the tree into a static root bottleneck.
func WithRetireAge(age int) Option {
	if age < 0 {
		panic(fmt.Sprintf("core: negative retirement age %d", age))
	}
	return func(c *config) { c.retireAge = age }
}

// WithSimOptions forwards options to the underlying network.
func WithSimOptions(opts ...sim.Option) Option {
	return func(c *config) { c.simOpts = append(c.simOpts, opts...) }
}

func configure(k int, opts []Option) config {
	cfg := config{retireAge: -1}
	for _, o := range opts {
		o(&cfg)
	}
	if cfg.retireAge == -1 {
		cfg.retireAge = 4 * k
	}
	return cfg
}

// Counter is the paper's communication-tree distributed counter on the
// simulator host (counter.Sim), plus a read-only view of the Section 4
// lemma instrumentation. Every Counter is checked: the lemmas assume the
// paper's sequential model, so its protocol refuses an operation initiated
// while an earlier one's messages are still in flight. NewMachine is the
// unchecked protocol the registry, the engine and the rt backend host.
type Counter struct {
	*counter.Sim
	view[inc, count]
}

// New creates the counter for the tree of arity k over exactly n = k^(k+1)
// processors.
func New(k int, opts ...Option) *Counter {
	cfg := configure(k, opts)
	pr := ctree{newProto(k, cfg.retireAge, &counterState{}, true)}
	c := &Counter{Sim: counter.NewSim(pr.Machine(), cfg.simOpts...), view: view[inc, count]{pr.proto}}
	refuseFaults(c.Net())
	return c
}

// NewForSize creates the counter for at least n processors, rounding n up
// to the next admissible size k·k^k as the paper prescribes. The network
// size is Counter.N(), which may exceed the request.
func NewForSize(n int, opts ...Option) *Counter {
	return New(KForSize(n), opts...)
}

// NewMachine returns the paper's counter as a backend-independent protocol
// descriptor for at least n processors (the size rounds up to k^(k+1);
// lemma instrumentation stays off — its windows assume the sequential
// model).
func NewMachine(n int) counter.Machine {
	k := KForSize(n)
	return ctree{newProto(k, 4*k, &counterState{}, false)}.Machine()
}

// Value returns the root's current counter value (= operations completed).
func (c *Counter) Value() int { return int(c.pr.root.(*counterState).val) }

// ctree is the tree protocol serving the paper's counter. Unlike the
// generic tree it describes itself as a counter.Machine, also after a
// clone, so counter.Sim can host and clone it.
type ctree struct{ *proto[inc, count] }

var _ counter.Describer = ctree{}

// CloneProtocol implements sim.CloneableProtocol.
func (c ctree) CloneProtocol() sim.Protocol { return ctree{c.clone()} }

// Machine implements counter.Describer. Serial: retirement rewrites a
// node's current processor and the forwarding table that every receiver's
// ensureRole consults, so the rt backend must serialize all protocol
// callbacks rather than run receivers concurrently. The root applies
// operations in arrival order and replies directly to initiators, so
// values respect real-time order under every schedule (experiment E13).
func (c ctree) Machine() counter.Machine {
	pr := c.proto
	return counter.Machine{
		Name:  "ctree",
		N:     pr.g.n,
		Proto: c,
		Initiate: func(nw sim.Transport, p sim.ProcID) {
			pr.initiate(nw, p, inc{})
		},
		Value: func(id sim.OpID) (int, bool) {
			v, ok := pr.ops.Take(id)
			return int(v), ok
		},
		Guarantee: counter.Exact(counter.Linearizable),
		Serial:    true,
	}
}

// Tree is the communication tree serving an arbitrary sequential object
// (RootState) with O(k) per-processor message load. Operations are
// submitted with Do and run to quiescence (the paper's sequential model).
type Tree[Req, Rep sim.BitSized] struct {
	view[Req, Rep]
	net *sim.Network
}

// NewTree creates a communication tree of arity k (n = k^(k+1) processors)
// serving the given root state, with lemma instrumentation on.
func NewTree[Req, Rep sim.BitSized](k int, state RootState[Req, Rep], opts ...Option) *Tree[Req, Rep] {
	cfg := configure(k, opts)
	pr := newProto(k, cfg.retireAge, state, true)
	t := &Tree[Req, Rep]{view: view[Req, Rep]{pr}, net: sim.New(pr.g.n, pr, cfg.simOpts...)}
	refuseFaults(t.net)
	return t
}

// refuseFaults panics when net injects faults. A checked protocol finds
// quiescence by counting its messages in flight, and a lost or duplicated
// message would leave that count wrong for the rest of the run.
func refuseFaults(net *sim.Network) {
	if net.FaultsActive() {
		panic("core: a checked tree needs a fault-free network; inject faults into NewMachine's protocol instead")
	}
}

// Do executes one operation initiated by processor p against the root
// state, running the network to quiescence, and returns the root's reply.
// A processor outside [1,n] is an error.
func (t *Tree[Req, Rep]) Do(p sim.ProcID, req Req) (Rep, error) {
	var zero Rep
	if p < 1 || int(p) > t.N() {
		return zero, fmt.Errorf("core: processor %v outside [1,%d]", p, t.N())
	}
	id := t.net.StartOp(p, func(nw sim.Transport, p sim.ProcID) { t.pr.initiate(nw, p, req) })
	if err := t.net.Run(); err != nil {
		return zero, err
	}
	reply, ok := t.pr.ops.Take(id)
	if !ok {
		return zero, fmt.Errorf("core: operation by %v terminated without a reply", p)
	}
	return reply, nil
}

// N returns the number of processors, n = k^(k+1).
func (t *Tree[Req, Rep]) N() int { return t.net.N() }

// Net exposes the underlying network.
func (t *Tree[Req, Rep]) Net() *sim.Network { return t.net }

// Clone returns an independent deep copy of the tree and its network.
func (t *Tree[Req, Rep]) Clone() (*Tree[Req, Rep], error) {
	net, err := t.net.Clone()
	if err != nil {
		return nil, err
	}
	return &Tree[Req, Rep]{view: view[Req, Rep]{net.Protocol().(*proto[Req, Rep])}, net: net}, nil
}

// view is the read-only lemma view of one tree protocol, shared by Counter
// and Tree. Reading a lemma metric closes the window of an operation that
// has run to quiescence, so the metrics cover every finished operation.
type view[Req, Rep sim.BitSized] struct {
	pr *proto[Req, Rep]
}

// K returns the arity of the communication tree.
func (v view[Req, Rep]) K() int { return v.pr.g.k }

// RetireAge returns the retirement threshold in effect (0 = disabled).
func (v view[Req, Rep]) RetireAge() int { return v.pr.retireAge }

// Stats returns protocol-level counters.
func (v view[Req, Rep]) Stats() Stats { return v.pr.stats }

// checks returns the checker with every quiescent window closed.
func (v view[Req, Rep]) checks() *checker {
	v.pr.checks.close()
	return v.pr.checks
}

// Violations returns the lemma violations recorded so far (at most the
// first 64) and the total violation count. Both are zero for the default
// configuration — the test suite asserts this; ablation configurations
// use them as measurements.
func (v view[Req, Rep]) Violations() ([]string, int64) {
	c := v.checks()
	return append([]string(nil), c.violations...), c.violationCount
}

// GrowOldMax returns the largest per-operation message count observed at an
// inner node that did not retire during that operation (the Grow Old Lemma
// bounds it by 4).
func (v view[Req, Rep]) GrowOldMax() int { return v.checks().growOldMax }

// RetirePerOpMax returns the largest number of retirements of a single node
// within one operation (the Retirement Lemma bounds it by 1).
func (v view[Req, Rep]) RetirePerOpMax() int { return v.checks().retirePerOpMax }

// LeafLoad returns the number of messages processor p sent or received in
// its role as a leaf: its own requests and replies plus one notification
// per retirement of its level-k parent. The Leaf Node Work Lemma bounds
// this by a small constant.
func (v view[Req, Rep]) LeafLoad(p sim.ProcID) int64 { return v.pr.leafLoad[p] }

// NodeInfo is a read-only snapshot of one inner node, exposed for the
// structure visualizer (Figure 4) and the lemma tests.
type NodeInfo struct {
	Level, Pos int
	Cur        sim.ProcID
	PoolStart  sim.ProcID
	PoolSize   int
	Retired    int
	Age        int
}

// Nodes returns snapshots of all inner nodes in level order.
func (v view[Req, Rep]) Nodes() []NodeInfo {
	out := make([]NodeInfo, len(v.pr.nodes))
	for i := range v.pr.nodes {
		nd := &v.pr.nodes[i]
		out[i] = NodeInfo{
			Level:     nd.level,
			Pos:       nd.pos,
			Cur:       nd.cur,
			PoolStart: nd.poolStart,
			PoolSize:  nd.poolSize,
			Retired:   nd.retired,
			Age:       nd.age,
		}
	}
	return out
}

// HostedInner reports whether processor p ever worked for an inner node
// during the run so far (used by the Leaf Node Work Lemma test: processors
// that never hosted an inner node must have load exactly 2 after the
// canonical workload).
func (v view[Req, Rep]) HostedInner(p sim.ProcID) bool {
	for i := range v.pr.nodes {
		nd := &v.pr.nodes[i]
		if p >= nd.poolStart && int(p-nd.poolStart) <= nd.retired {
			return true
		}
	}
	return false
}
