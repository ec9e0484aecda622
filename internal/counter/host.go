package counter

import (
	"fmt"

	"distcount/internal/sim"
)

// Describer is a protocol that can describe itself as a Machine bound to
// its own state. Every algorithm's protocol implements it: its NewMachine
// builds the protocol and returns proto.Machine(), and Sim.Clone calls it
// on the cloned protocol so Initiate and Value read the clone, not the
// original.
type Describer interface {
	sim.CloneableProtocol
	Machine() Machine
}

// Sim hosts a Machine on a discrete-event simulated network: the simulator
// counterpart of the rt backend's rt.New. Both hosts run the identical
// protocol state machine; Sim adds simulated time, determinism and cloning.
type Sim struct {
	m   Machine
	net *sim.Network
}

var (
	_ Valued    = (*Sim)(nil)
	_ Cloneable = (*Sim)(nil)
)

// NewSim builds a simulated network of m.N processors running m.Proto.
func NewSim(m Machine, opts ...sim.Option) *Sim {
	return &Sim{m: m, net: sim.New(m.N, m.Proto, opts...)}
}

// Name implements Counter.
func (s *Sim) Name() string { return s.m.Name }

// N implements Counter.
func (s *Sim) N() int { return s.net.N() }

// Net implements Counter.
func (s *Sim) Net() *sim.Network { return s.net }

// Inc implements Counter: one operation by p, run to quiescence.
func (s *Sim) Inc(p sim.ProcID) (int, error) { return RunInc(s, p) }

// Start implements Async: it schedules p's operation at simulated time at
// without running the network. The Machine's Initiate is one func value
// built with the Machine, so scheduling allocates nothing per operation.
func (s *Sim) Start(at int64, p sim.ProcID) sim.OpID {
	return s.net.ScheduleOp(at, p, s.m.Initiate)
}

// OpValue implements Valued.
func (s *Sim) OpValue(id sim.OpID) (int, bool) { return s.m.Value(id) }

// Guarantee implements Valued.
func (s *Sim) Guarantee() Guarantee { return s.m.Guarantee }

// Clone implements Cloneable: the network and protocol are deep-copied,
// and the Machine is rebuilt from the cloned protocol.
func (s *Sim) Clone() (Counter, error) {
	net, err := s.net.Clone()
	if err != nil {
		return nil, err
	}
	d, ok := net.Protocol().(Describer)
	if !ok {
		return nil, fmt.Errorf("counter: %s protocol %T cannot describe its clone", s.m.Name, net.Protocol())
	}
	return &Sim{m: d.Machine(), net: net}, nil
}
