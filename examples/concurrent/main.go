// Concurrent demonstrates the tree counter beyond the paper's sequential
// model: operations pipeline up the communication tree concurrently, the
// root serializes them, and the whole history stays linearizable — while a
// counting network under an adversarial schedule does not (see experiment
// E13). It also shows the throughput angle: n pipelined operations finish
// in far less simulated time than n sequential ones.
package main

import (
	"fmt"
	"log"

	"distcount"
	"distcount/internal/core"
	"distcount/internal/counter"
	"distcount/internal/sim"
	"distcount/internal/verify"
)

func main() {
	const k = 3
	n := distcount.SizeFor(k)

	// Sequential baseline: n ops, each running to quiescence.
	seq := distcount.NewTreeCounter(k)
	if _, err := distcount.RunSequence(seq, distcount.SequentialOrder(n)); err != nil {
		log.Fatal(err)
	}
	seqTime := seq.Net().Now()

	// Concurrent: all n operations start at t=0 and pipeline, on the
	// unchecked protocol (the lemma checks assume one operation at a time).
	tree := counter.NewSim(core.NewMachine(n))
	ops := make([]sim.OpID, 0, n)
	for p := 1; p <= n; p++ {
		ops = append(ops, tree.Start(0, sim.ProcID(p)))
	}
	if err := tree.Net().Run(); err != nil {
		log.Fatal(err)
	}
	concTime := tree.Net().Now()

	values := make([]int, n)
	for i, id := range ops {
		v, ok := tree.OpValue(id)
		if !ok {
			log.Fatalf("processor %d got no value", i+1)
		}
		values[i] = v
	}
	timed, err := verify.CollectTimedValues(tree.Net(), ops, values)
	if err != nil {
		log.Fatal(err)
	}

	fmt.Printf("tree counter, k=%d, n=%d\n", k, n)
	fmt.Printf("sequential makespan: %d ticks\n", seqTime)
	fmt.Printf("pipelined  makespan: %d ticks (%.1fx faster)\n",
		concTime, float64(seqTime)/float64(concTime))
	fmt.Printf("quiescent-consistent: %v\n", verify.QuiescentConsistent(timed) == nil)
	fmt.Printf("linearizable:         %v (the root serializes every operation)\n",
		verify.Linearizable(timed) == nil)
}
