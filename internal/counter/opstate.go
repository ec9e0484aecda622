package counter

import (
	"fmt"
	"sync"

	"distcount/internal/sim"
)

// Ops is the per-initiator operation bookkeeping shared by every counter
// implementation: each initiating processor owns at most one in-flight
// operation with protocol-specific state S (a quorum probe, a traversal, or
// nothing at all), and every completed operation's delivered value V is
// recorded under its simulator operation id.
//
// The type replaces the ad-hoc single-op result slots (result/resultReady)
// and per-processor delivery arrays (valueOf/delivered) the implementations
// grew independently, and it is what makes all of them concurrency-capable
// in the same way: state is keyed by initiator, never global, so operations
// from distinct initiators cannot clobber each other. Begin enforces the
// Async contract — at most one operation per initiator in flight — by
// panicking on overlap instead of silently corrupting state.
//
// Finish, by contrast, tolerates staleness: under fault injection a
// duplicated or crash-deferred reply legitimately arrives after its
// operation already finished (or after the initiator moved on to its next
// operation), so a Finish whose entry is missing or whose in-flight
// operation is not the current delivery context is dropped and counted
// (DroppedStale) rather than treated as fatal. Protocols that read state on
// a reply path use GetFor, which makes the same discrimination explicit. In
// fault-free runs a dropped Finish still surfaces — the operation completes
// without a value and verification reports it as missing — so the bug class
// the old panic caught remains visible, just as data instead of a crash.
//
// Values are read per operation with Take (the engine's verification path
// and the shared sequential driver RunInc). Take consumes the value so long
// workload runs do not accumulate per-op state.
//
// The table is dense: initiator p owns slot p of a slice, a record created
// at p's first Begin and reused by every later operation of p, so opening
// and finishing an operation allocates nothing. Only delivered values live
// in a map keyed by operation id, because Take may come arbitrarily later
// than Finish. Slots are stable pointers: the *S Begin hands out stays
// valid while the slice grows to admit a higher initiator id.
type Ops[S, V any] struct {
	// mu guards the slot slice, the slots' bookkeeping fields and the
	// value map. On the simulator every access runs on one goroutine and
	// the lock is uncontended; on the rt backend distinct initiators'
	// operations live on distinct goroutines, and the table is the one
	// piece of protocol state they all touch. The *S returned by Begin/Get
	// stays confined to its own operation's delivery contexts, so locking
	// the table operations suffices.
	mu sync.Mutex
	// slots[p] is initiator p's record (nil until p's first Begin).
	slots []*opSlot[S]
	// values holds delivered values of completed operations until consumed.
	values map[sim.OpID]V
	// droppedStale counts Finish calls discarded because their operation
	// was no longer the initiator's current one (duplicated or late
	// replies under fault injection).
	droppedStale int64
}

// opSlot is one initiator's record: its open operation's id and protocol
// state.
type opSlot[S any] struct {
	// op is the in-flight operation, 0 when the initiator is idle (ids
	// start at 1). Finish asserts it completes in its own delivery context.
	op sim.OpID
	st S
}

// NewOps creates an empty operation table.
func NewOps[S, V any]() *Ops[S, V] {
	return &Ops[S, V]{values: make(map[sim.OpID]V)}
}

// slot returns initiator p's record, nil when p never began an operation.
// The caller holds mu.
func (o *Ops[S, V]) slot(p sim.ProcID) *opSlot[S] {
	if int(p) < len(o.slots) {
		return o.slots[p]
	}
	return nil
}

// inFlight returns p's record when p has an operation open, else nil. The
// caller holds mu.
func (o *Ops[S, V]) inFlight(p sim.ProcID) *opSlot[S] {
	if e := o.slot(p); e != nil && e.op != 0 {
		return e
	}
	return nil
}

// Begin opens initiator p's operation and returns its zero-valued state for
// the protocol to fill. It must run inside the operation's start callback
// (it captures the current operation id) and panics if p already has an
// operation in flight: callers — the workload engine, the sequential driver
// — are required to keep at most one operation per initiator open, and a
// violation would corrupt per-initiator state in ways that only surface as
// wrong values much later.
func (o *Ops[S, V]) Begin(nw sim.Transport, p sim.ProcID) *S {
	id := nw.CurrentOp()
	if id == 0 {
		panic("counter: Begin called outside an operation context")
	}
	o.mu.Lock()
	defer o.mu.Unlock()
	e := o.slot(p)
	if e == nil {
		if int(p) >= len(o.slots) {
			o.slots = append(o.slots, make([]*opSlot[S], int(p)+1-len(o.slots))...)
		}
		e = new(opSlot[S])
		o.slots[p] = e
	}
	if e.op != 0 {
		panic(fmt.Sprintf("counter: initiator %v already has operation %d in flight (starting %d)", p, e.op, id))
	}
	var zero S
	e.op, e.st = id, zero
	return &e.st
}

// Get returns initiator p's in-flight operation state. It panics when p has
// none — receiving a protocol message for an idle initiator means the
// message was stray or the state was dropped early, both protocol bugs.
func (o *Ops[S, V]) Get(p sim.ProcID) *S {
	o.mu.Lock()
	defer o.mu.Unlock()
	e := o.inFlight(p)
	if e == nil {
		panic(fmt.Sprintf("counter: initiator %v has no operation in flight", p))
	}
	return &e.st
}

// InFlight reports whether initiator p currently has an open operation.
func (o *Ops[S, V]) InFlight(p sim.ProcID) bool {
	o.mu.Lock()
	defer o.mu.Unlock()
	return o.inFlight(p) != nil
}

// Finish completes initiator p's operation with the delivered value v,
// recording it under the operation's id, and frees p for its next
// operation. It must run in the completing operation's
// own delivery context: when p has no operation in flight, or the in-flight
// operation differs from the current delivery context, the call is a stale
// completion — a duplicated or crash-deferred reply outliving its
// operation — and is dropped and counted rather than applied, so a late
// copy can never overwrite a newer operation's state. It reports whether
// the completion was applied.
func (o *Ops[S, V]) Finish(nw sim.Transport, p sim.ProcID, v V) bool {
	o.mu.Lock()
	defer o.mu.Unlock()
	e := o.inFlight(p)
	if e == nil || nw.CurrentOp() != e.op {
		o.droppedStale++
		return false
	}
	o.values[e.op] = v
	e.op = 0
	return true
}

// GetFor returns initiator p's in-flight operation state only when that
// operation is the one the current delivery belongs to. Reply-path handlers
// use it instead of Get so a duplicated or late message — whose delivery
// context is its original operation — cannot touch the state of the
// initiator's NEXT operation, and is instead recognized as stale (ok
// false, counted) and ignored.
func (o *Ops[S, V]) GetFor(nw sim.Transport, p sim.ProcID) (*S, bool) {
	o.mu.Lock()
	defer o.mu.Unlock()
	e := o.inFlight(p)
	if e == nil || nw.CurrentOp() != e.op {
		o.droppedStale++
		return nil, false
	}
	return &e.st, true
}

// DroppedStale returns the number of stale Finish/GetFor calls discarded so
// far.
func (o *Ops[S, V]) DroppedStale() int64 {
	o.mu.Lock()
	defer o.mu.Unlock()
	return o.droppedStale
}

// Take returns the value delivered to the completed operation id and
// forgets it, so drivers running unbounded operation streams do not
// accumulate per-op state. ok is false when the operation is unknown, still
// in flight, or already consumed.
func (o *Ops[S, V]) Take(id sim.OpID) (V, bool) {
	o.mu.Lock()
	defer o.mu.Unlock()
	v, ok := o.values[id]
	if ok {
		delete(o.values, id)
	}
	return v, ok
}

// Clone returns an independent deep copy. deepState, when non-nil, deep-
// copies one in-flight operation's protocol state (needed when S holds
// slices or maps); nil keeps the shallow copy, sufficient for value-only
// states. An idle slot's state is dead — the next Begin zeroes it — so it
// is copied shallowly either way.
func (o *Ops[S, V]) Clone(deepState func(*S) S) *Ops[S, V] {
	o.mu.Lock()
	defer o.mu.Unlock()
	cp := NewOps[S, V]()
	cp.slots = make([]*opSlot[S], len(o.slots))
	for p, e := range o.slots {
		if e == nil {
			continue
		}
		ne := *e
		if e.op != 0 && deepState != nil {
			ne.st = deepState(&e.st)
		}
		cp.slots[p] = &ne
	}
	for id, v := range o.values {
		cp.values[id] = v
	}
	cp.droppedStale = o.droppedStale
	return cp
}

// RunInc drives one increment by p through the concurrent Start path and
// runs the network to quiescence: the sequential Inc of the simulator host
// (the paper's execution model: "enough time elapses in between any two
// inc requests"). A processor outside the network is an error, as on the
// rt backend.
func RunInc(c Valued, p sim.ProcID) (int, error) {
	if p < 1 || int(p) > c.N() {
		return 0, fmt.Errorf("%s: processor %v outside [1,%d]", c.Name(), p, c.N())
	}
	net := c.Net()
	id := c.Start(net.Now(), p)
	if err := net.Run(); err != nil {
		return 0, err
	}
	v, ok := c.OpValue(id)
	if !ok {
		return 0, fmt.Errorf("%s: operation by %v terminated without a value", c.Name(), p)
	}
	return v, nil
}
