package core

import (
	"fmt"

	"distcount/internal/sim"
)

// checker instruments a run of the communication-tree counter with the
// paper's lemmas, recording violations instead of failing so that ablation
// configurations (which deliberately break the lemma preconditions) can be
// measured. With the default retirement threshold the test suite asserts
// that no violation is ever recorded.
//
// Checked per operation:
//
//   - Retirement Lemma: "No node retires more than once during any single
//     inc operation."
//   - Grow Old Lemma: "If an inner node does not retire during an inc
//     operation it sends and receives at most four messages."
//
// An operation's window opens when it is initiated and closes at
// quiescence: when the next operation begins, or when a lemma metric is
// read, whichever comes first. The lemmas assume the paper's sequential
// model, so the checker refuses an operation initiated while messages of
// an earlier one are still in flight.
//
// Checked continuously:
//
//   - Identifier uniqueness: no two inner nodes on levels 1..k ever share a
//     current processor (the paper: "We will make sure that no two inner
//     nodes on levels 1 through k ever have the same identifiers").
//   - Pool bounds: a successor processor always lies inside the node's
//     preassigned replacement pool (Number of Retirements Lemma).
type checker struct {
	g         geometry
	retireAge int

	opSeq int32
	// open marks a window whose per-operation lemmas are not yet evaluated.
	open bool
	// inFlight counts the protocol's messages sent but not yet delivered.
	inFlight int

	msgStamp []int32
	msgCount []int32
	retStamp []int32
	retCount []int32
	touched  []int

	// occupied maps a processor to the inner node (level >= 1) it currently
	// works for.
	occupied map[sim.ProcID]int

	violations     []string
	violationCount int64

	// GrowOldMax is the largest per-operation message count observed at an
	// inner node that did not retire during that operation (paper bound: 4).
	growOldMax int
	// retirePerOpMax is the largest number of retirements of a single node
	// within one operation (paper bound: 1).
	retirePerOpMax int
}

const maxRecordedViolations = 64

func newChecker(g geometry, retireAge int, nodes []node) *checker {
	c := &checker{
		g:         g,
		retireAge: retireAge,
		msgStamp:  make([]int32, len(nodes)),
		msgCount:  make([]int32, len(nodes)),
		retStamp:  make([]int32, len(nodes)),
		retCount:  make([]int32, len(nodes)),
		occupied:  make(map[sim.ProcID]int),
	}
	for id := range nodes {
		if nodes[id].level == 0 {
			continue
		}
		if prev, ok := c.occupied[nodes[id].cur]; ok {
			c.violate("initial identifiers collide: nodes %d and %d both at %v", prev, id, nodes[id].cur)
		}
		c.occupied[nodes[id].cur] = id
	}
	return c
}

func (c *checker) violate(format string, args ...any) {
	c.violationCount++
	if len(c.violations) < maxRecordedViolations {
		c.violations = append(c.violations, fmt.Sprintf(format, args...))
	}
}

// beginOp closes the previous operation's window and opens one for the
// operation p initiates. It panics when messages are still in flight:
// overlapping operations would share a window and void the per-operation
// lemmas, so a checked tree runs one operation at a time.
func (c *checker) beginOp(p sim.ProcID) {
	if c.inFlight != 0 {
		panic(fmt.Sprintf("core: operation by %v initiated with %d messages of an earlier operation in flight (a checked tree runs one operation at a time)", p, c.inFlight))
	}
	c.close()
	c.opSeq++
	c.touched = c.touched[:0]
	c.open = true
}

// close evaluates the per-operation lemmas for the open window, once the
// operation is quiescent. It is idempotent: a closed window, or one whose
// messages are still in flight, is left as it is.
func (c *checker) close() {
	if !c.open || c.inFlight != 0 {
		return
	}
	c.open = false
	for _, id := range c.touched {
		msgs, rets := 0, 0
		if c.msgStamp[id] == c.opSeq {
			msgs = int(c.msgCount[id])
		}
		if c.retStamp[id] == c.opSeq {
			rets = int(c.retCount[id])
		}
		if rets > c.retirePerOpMax {
			c.retirePerOpMax = rets
		}
		if rets > 1 {
			c.violate("retirement lemma: node %d retired %d times in op %d", id, rets, c.opSeq)
		}
		if rets == 0 && msgs > 4 {
			c.violate("grow old lemma: non-retiring node %d handled %d messages in op %d", id, msgs, c.opSeq)
		}
		if rets == 0 && msgs > c.growOldMax {
			c.growOldMax = msgs
		}
	}
}

// nodeMsgs records delta messages handled by node id in the current op.
func (c *checker) nodeMsgs(id, delta int) {
	if c.msgStamp[id] != c.opSeq {
		c.msgStamp[id] = c.opSeq
		c.msgCount[id] = 0
		if c.retStamp[id] != c.opSeq {
			c.touched = append(c.touched, id)
		}
	}
	c.msgCount[id] += int32(delta)
}

// retirement records a retirement of node id and checks pool bounds and
// identifier uniqueness.
func (c *checker) retirement(id, level int, old, succ, poolStart sim.ProcID, poolSize int) {
	if c.retStamp[id] != c.opSeq {
		c.retStamp[id] = c.opSeq
		c.retCount[id] = 0
		if c.msgStamp[id] != c.opSeq {
			c.touched = append(c.touched, id)
		}
	}
	c.retCount[id]++

	if succ < poolStart || int(succ-poolStart) >= poolSize {
		c.violate("pool bound: node %d successor %v outside pool [%v,%v)", id, succ, poolStart, poolStart+sim.ProcID(poolSize))
	}
	if level == 0 {
		return
	}
	if cur, ok := c.occupied[old]; !ok || cur != id {
		c.violate("occupancy: node %d retiring from %v which is not recorded as its processor", id, old)
	} else {
		delete(c.occupied, old)
	}
	if prev, ok := c.occupied[succ]; ok {
		c.violate("identifier collision: node %d moved to %v already serving node %d", id, succ, prev)
	}
	c.occupied[succ] = id
}

// poolExhausted records a retirement that could not happen.
func (c *checker) poolExhausted(id int) {
	c.violate("pool exhausted: node %d needed a successor beyond its pool", id)
}

func (c *checker) clone() *checker {
	cp := &checker{
		g:              c.g,
		retireAge:      c.retireAge,
		opSeq:          c.opSeq,
		open:           c.open,
		inFlight:       c.inFlight,
		msgStamp:       append([]int32(nil), c.msgStamp...),
		msgCount:       append([]int32(nil), c.msgCount...),
		retStamp:       append([]int32(nil), c.retStamp...),
		retCount:       append([]int32(nil), c.retCount...),
		touched:        append([]int(nil), c.touched...),
		occupied:       make(map[sim.ProcID]int, len(c.occupied)),
		violations:     append([]string(nil), c.violations...),
		violationCount: c.violationCount,
		growOldMax:     c.growOldMax,
		retirePerOpMax: c.retirePerOpMax,
	}
	for k, v := range c.occupied {
		cp.occupied[k] = v
	}
	return cp
}
