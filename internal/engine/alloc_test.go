package engine

import (
	"testing"

	"distcount/internal/countersvc"
	"distcount/internal/registry"
	"distcount/internal/workload"
)

// TestRunWorkloadAllocCeiling pins an allocation budget on a small
// closed-loop run, counter construction included. Unlike the simulator's
// Send/Step guard (exactly zero), a workload run legitimately allocates:
// the counter and network are built fresh, the per-op metric slices are
// preallocated once, the result and its digests are assembled, and the
// counter's value table records one entry per operation. The ceiling is set
// with ~2× headroom over the measured cost (~290 objects for 200 ops at
// n=16, i.e. ~1.5 objects per op, nearly all of it construction); a
// regression that reintroduces per-op allocation in the hot path (boxed
// payloads, per-op op-table entries, per-send map inserts, per-quantile
// sort copies, append-growth of the metric slices) blows through it at
// once.
func TestRunWorkloadAllocCeiling(t *testing.T) {
	const (
		ops     = 200
		ceiling = 600 // objects per whole run (3 per op), measured ~290
	)
	run := func() {
		c := mustAsync(t, "central", 16)
		gen := mustScenario(t, "uniform", workload.Config{N: 16, Ops: ops, Seed: 1})
		if _, err := Run(c, gen, Config{InFlight: 8, Ops: ops}); err != nil {
			t.Fatal(err)
		}
	}
	run() // warm lazy runtime state out of the measurement
	if avg := testing.AllocsPerRun(10, run); avg > ceiling {
		t.Fatalf("RunWorkload allocates %.0f objects per %d-op run, ceiling %d", avg, ops, ceiling)
	}
}

// TestAlgorithmAllocCeilings pins every registered algorithm's marginal
// allocation cost per operation in a closed-loop engine run at n=81: the
// difference between a 500-op and a 250-op run, so counter construction and
// report assembly cancel out and what remains is the protocol layer's
// per-message and per-op cost. Payloads come from per-processor arenas and
// op records are reused, so the exact and approximate counters stay below
// one object per op; the quorum counters pay for a fresh quorum slice per
// op. Each ceiling is about twice the measured cost, low enough that
// reintroducing one boxed payload per message fails at once.
func TestAlgorithmAllocCeilings(t *testing.T) {
	const n, short, long = 81, 250, 500
	ceilings := map[string]float64{ // allocs/op, measured cost in the comment
		"central":          0.5, // 0.24
		"cnet":             1,   // 0.44
		"cnet-periodic":    1,   // 0.51
		"combining":        1.5, // 0.76
		"css-sample":       0.5, // 0.24
		"ctree":            0.6, // 0.29
		"difftree":         0.6, // 0.27
		"gxu-threshold":    0.5, // 0.24
		"quorum-grid":      6,   // 3.01
		"quorum-majority":  4.5, // 2.15
		"quorum-singleton": 2.6, // 1.29
		"quorum-tree":      12,  // 5.94
		"quorum-wall":      7.2, // 3.61
		"tokenring":        0.4, // 0.19
	}
	for _, algo := range registry.Names() {
		t.Run(algo, func(t *testing.T) {
			ceiling, ok := ceilings[algo]
			if !ok {
				t.Fatalf("no allocation ceiling for %s", algo)
			}
			allocs := func(ops int) float64 {
				run := func() {
					c := mustAsync(t, algo, n)
					gen := mustScenario(t, "uniform", workload.Config{N: c.N(), Ops: ops, Seed: 1})
					if _, err := Run(c, gen, Config{InFlight: 8, Ops: ops}); err != nil {
						t.Fatal(err)
					}
				}
				return testing.AllocsPerRun(2, run) // after one warm-up run
			}
			if got := (allocs(long) - allocs(short)) / (long - short); got > ceiling {
				t.Errorf("%s allocates %.2f objects per op, ceiling %.2f", algo, got, ceiling)
			}
		})
	}
}

// TestVerifiedRunAllocCeilings pins the marginal allocation cost per
// operation of verified runs: value collection plus the post-run
// verification, on top of the protocol and engine cost that
// TestAlgorithmAllocCeilings bounds. The closed run is a single central
// counter; the keyed run spreads uniform keys over 1024 keys on four
// central shards, so the longer run touches more keys and more
// (key, epoch) segments than the shorter one, and a verifier that
// allocates per key or per segment shows up in the difference. Both
// ceilings are about twice the measured cost.
func TestVerifiedRunAllocCeilings(t *testing.T) {
	const short, long = 512, 2048
	cases := []struct {
		name    string
		ceiling float64 // allocs/op, measured cost in the comment
		run     func(ops int)
	}{
		{"closed", 0.2, func(ops int) { // 0.09
			c := mustAsync(t, "central", 81)
			gen := mustScenario(t, "uniform", workload.Config{N: c.N(), Ops: ops, Seed: 1})
			if _, err := Run(c, gen, Config{InFlight: 8, Ops: ops, Verify: true}); err != nil {
				t.Fatal(err)
			}
		}},
		{"keyed", 0.35, func(ops int) { // 0.18; 4.3 with a map of per-segment slices
			svc := keyedSvc(t, countersvc.Config{Keys: 1024, N: 16, Shards: 4})
			gen := keyedGen(t, workload.Config{N: 16, Ops: ops, Seed: 1, Keys: 1024, KeyDist: "uniform", MeanGap: 1}, "uniform")
			if _, err := RunKeyed(svc, gen, Config{InFlight: 8, Ops: ops, Verify: true}); err != nil {
				t.Fatal(err)
			}
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			allocs := func(ops int) float64 {
				return testing.AllocsPerRun(2, func() { tc.run(ops) }) // after one warm-up run
			}
			got := (allocs(long) - allocs(short)) / (long - short)
			if got > tc.ceiling {
				t.Errorf("verified %s run allocates %.2f objects per op, ceiling %.2f", tc.name, got, tc.ceiling)
			}
		})
	}
}
