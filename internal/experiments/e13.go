package experiments

import (
	"fmt"
	"strings"

	"distcount/internal/core"
	"distcount/internal/counter"
	"distcount/internal/counters/cnet"
	"distcount/internal/sim"
	"distcount/internal/verify"
)

// E13 steps outside the paper's sequential model to probe its related work
// [HSW]: Herlihy, Shavit & Waarts, "Linearizable counting networks". Under
// concurrent operations, a counting network remains quiescently consistent
// (each value handed out exactly once) but is NOT linearizable: a token can
// stall between its final balancer and the output-wire counter, and a much
// later operation can slip past it and take a smaller value than operations
// that have long completed. The paper's tree counter, by contrast, is
// linearizable under every schedule — the root applies operations in
// arrival order and replies directly — a property it gets "for free" from
// the same structure that yields the O(k) bound.
//
// Part 1 reconstructs HSW's stalled-token scenario deterministically with a
// scripted latency (sim.StallKindLatency): five operations A..E on a
// width-2 network; A's and C's exit messages stall, B and D complete with
// values 1 and 3, then E starts afresh and receives value 0 — smaller than
// both completed operations. The same script leaves the tree counter
// linearizable. Part 2 sweeps random schedules as a control: both counters
// stay quiescently consistent throughout.
func E13(cfg Config) (string, error) {
	var b strings.Builder

	// Part 1: the deterministic HSW scenario.
	cviol, cvals, err := E13ScriptedCNet()
	if err != nil {
		return "", err
	}
	tviol, tvals, err := E13ScriptedTree()
	if err != nil {
		return "", err
	}
	b.WriteString("part 1 — scripted stalled-token schedule (5 ops A..E, exits of A and C stalled):\n")
	fmt.Fprintf(&b, "  cnet  values A..E: %v -> linearizable: %v\n", cvals, !cviol)
	fmt.Fprintf(&b, "  ctree values A..E: %v -> linearizable: %v\n", tvals, !tviol)
	b.WriteString("  the counting network hands E a smaller value than completed ops B and D [HSW];\n")
	b.WriteString("  the tree counter's root serialization is immune to the same schedule.\n\n")

	// Part 2: randomized control sweep.
	n := 32
	seeds := 12
	if cfg.Quick {
		n = 16
		seeds = 6
	}
	treeViol, treeQuiesce, err := e13Sweep(func() counter.Machine { return core.NewMachine(n) }, n, seeds)
	if err != nil {
		return "", err
	}
	cnetViol, cnetQuiesce, err := e13Sweep(func() counter.Machine { return cnet.NewMachine(n, cnet.WithWidth(8)) }, n, seeds)
	if err != nil {
		return "", err
	}
	fmt.Fprintf(&b, "part 2 — randomized sweep: %d staggered increments, UniformLatency[1,9], %d seeds:\n", n, seeds)
	fmt.Fprintf(&b, "  %-6s quiescent-consistent %d/%d seeds, linearizability violations %d/%d\n", "ctree", treeQuiesce, seeds, treeViol, seeds)
	fmt.Fprintf(&b, "  %-6s quiescent-consistent %d/%d seeds, linearizability violations %d/%d\n", "cnet", cnetQuiesce, seeds, cnetViol, seeds)

	if !cviol {
		return b.String(), fmt.Errorf("E13: scripted schedule failed to break counting-network linearizability")
	}
	if tviol || treeViol != 0 {
		return b.String(), fmt.Errorf("E13: tree counter violated linearizability")
	}
	if treeQuiesce != seeds || cnetQuiesce != seeds {
		return b.String(), fmt.Errorf("E13: quiescent consistency broken")
	}
	return b.String(), nil
}

// E13ScriptedCNet runs the deterministic HSW schedule against a width-2
// counting network over 5 processors and reports whether linearizability
// was violated, along with the values of operations A..E. The exit
// messages of the 1st and 3rd tokens (A and C) stall, so their wire-counter
// reads happen long after E completes.
func E13ScriptedCNet() (violated bool, values []int, err error) {
	return e13Scripted(cnet.NewMachine(5, cnet.WithWidth(2)), map[string][]int{"exit": {0, 2}})
}

// E13ScriptedTree runs the analogous stalled schedule against the tree
// counter (stalling its value replies instead — the only message kind whose
// delay could plausibly reorder completions).
func E13ScriptedTree() (violated bool, values []int, err error) {
	return e13Scripted(core.NewMachine(5), map[string][]int{"value": {0, 2}})
}

// e13Scripted runs scheduleABCDE on m with the given message kinds stalled
// and reports whether linearizability was violated, along with the values
// of operations A..E. The history must stay quiescently consistent.
func e13Scripted(m counter.Machine, stalls map[string][]int) (violated bool, values []int, err error) {
	c := counter.NewSim(m, sim.WithLatency(sim.NewStallKindLatency(100, stalls)))
	ops := scheduleABCDE(c.Start)
	tv, err := e13Run(c, ops)
	if err != nil {
		return false, nil, fmt.Errorf("%s scripted: %w", m.Name, err)
	}
	values = make([]int, len(tv))
	for i := range tv {
		values[i] = tv[i].Value
	}
	if err := verify.QuiescentConsistent(tv); err != nil {
		return false, values, fmt.Errorf("%s scripted: quiescent consistency broken: %w", m.Name, err)
	}
	return verify.Linearizable(tv) != nil, values, nil
}

// e13Run runs c to quiescence and collects the timed values of ops.
func e13Run(c *counter.Sim, ops []sim.OpID) ([]verify.TimedValue, error) {
	if err := c.Net().Run(); err != nil {
		return nil, err
	}
	values := make([]int, len(ops))
	for i, id := range ops {
		v, ok := c.OpValue(id)
		if !ok {
			return nil, fmt.Errorf("operation %d got no value", id)
		}
		values[i] = v
	}
	return verify.CollectTimedValues(c.Net(), ops, values)
}

// scheduleABCDE starts five operations: A..D in quick succession, E well
// after D completed.
func scheduleABCDE(start func(at int64, p sim.ProcID) sim.OpID) []sim.OpID {
	starts := []int64{0, 4, 8, 12, 30}
	ops := make([]sim.OpID, 0, len(starts))
	for i, at := range starts {
		ops = append(ops, start(at, sim.ProcID(i+1)))
	}
	return ops
}

// e13Sweep runs the randomized concurrent workload — n increments, one
// every 3 ticks, under UniformLatency[1,9] — on a fresh counter from
// newMachine per seed, and returns (linearizability violations, quiescent
// seeds).
func e13Sweep(newMachine func() counter.Machine, n, seeds int) (violations, quiescent int, err error) {
	for seed := uint64(1); seed <= uint64(seeds); seed++ {
		m := newMachine()
		c := counter.NewSim(m, sim.WithSeed(seed), sim.WithLatency(sim.UniformLatency{Min: 1, Max: 9}))
		ops := make([]sim.OpID, 0, n)
		for p := 1; p <= n; p++ {
			ops = append(ops, c.Start(int64(p-1)*3, sim.ProcID(p)))
		}
		tv, err := e13Run(c, ops)
		if err != nil {
			return 0, 0, fmt.Errorf("%s (seed %d): %w", m.Name, seed, err)
		}
		if verify.QuiescentConsistent(tv) == nil {
			quiescent++
		}
		if verify.Linearizable(tv) != nil {
			violations++
		}
	}
	return violations, quiescent, nil
}
