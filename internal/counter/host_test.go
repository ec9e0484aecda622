package counter_test

import (
	"testing"

	"distcount/internal/counter"
	"distcount/internal/sim"
)

// opaqueProto is cloneable but cannot describe itself as a Machine.
type opaqueProto struct{}

func (opaqueProto) Deliver(sim.Transport, sim.Message) {}
func (opaqueProto) CloneProtocol() sim.Protocol        { return opaqueProto{} }

// TestSimCloneRequiresDescriber: a host whose protocol cannot rebuild its
// Machine refuses to clone rather than return a clone bound to the
// original's Initiate and Value.
func TestSimCloneRequiresDescriber(t *testing.T) {
	c := counter.NewSim(counter.Machine{Name: "opaque", N: 2, Proto: opaqueProto{}})
	if _, err := c.Clone(); err == nil {
		t.Fatal("Clone of a protocol without Machine() returned no error")
	}
}
