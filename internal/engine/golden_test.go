package engine

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"testing"

	"distcount/internal/countersvc"
	"distcount/internal/registry"
	"distcount/internal/sim"
	"distcount/internal/workload"
)

// TestGoldenResultDigests pins the complete JSON Result of fixed-seed
// simulator runs: closed and open loop with verification on three
// algorithms (the open runs overflow a small admission queue), a single
// counter under a loss+crash fault plan in both modes, and keyed closed and
// open runs that migrate a hot key mid-run. Any change to admission order,
// event interleaving, sampling or reporting moves at least one digest; when
// a change is meant to alter results, re-record the digests and say why in
// the change description.
func TestGoldenResultDigests(t *testing.T) {
	want := map[string]string{
		"closed/central":   "f37caa43fba525ff",
		"closed/combining": "965d41c3dff5d9d8",
		"closed/cnet":      "07b213210f9502e8",
		"open/central":     "58384124c0223835",
		"open/combining":   "1baba92ada1e4a24",
		"open/cnet":        "4f402f417bd54e21",
		"faults/closed":    "ad1f21963c8b6e0e",
		"faults/open":      "ea68262af391291e",
		"keyed/closed":     "aee8f0bf8d12f7e5",
		"keyed/open":       "99f6c44dc3774fc3",
	}
	check := func(t *testing.T, name string, res *Result) {
		t.Helper()
		b, err := json.Marshal(res)
		if err != nil {
			t.Fatal(err)
		}
		sum := sha256.Sum256(b)
		if got := hex.EncodeToString(sum[:8]); got != want[name] {
			t.Errorf("%s: digest %s, want %s", name, got, want[name])
		}
	}

	for _, algo := range []string{"central", "combining", "cnet"} {
		for _, mode := range []Mode{Closed, Open} {
			name := mode.String() + "/" + algo
			t.Run(name, func(t *testing.T) {
				c := mustAsyncService(t, algo, 16, 1)
				gen := mustScenario(t, "ramprate", workload.Config{N: c.N(), Ops: 600, Seed: 5})
				res, err := Run(c, gen, Config{Mode: mode, InFlight: 8, QueueCap: 64, Warmup: 60, Verify: true})
				if err != nil {
					t.Fatal(err)
				}
				check(t, name, res)
			})
		}
	}

	plan := sim.FaultPlan{Seed: 3, Loss: 0.01, Crashes: []sim.Downtime{{Proc: 2, From: 200, To: 500}}}
	for _, mode := range []Mode{Closed, Open} {
		name := "faults/" + mode.String()
		t.Run(name, func(t *testing.T) {
			cfg := registry.Concurrent(sim.WithServiceTime(1))
			cfg.Faults = &plan
			c, err := registry.NewWith("combining", 16, cfg)
			if err != nil {
				t.Fatal(err)
			}
			gen := mustScenario(t, "uniform", workload.Config{N: c.N(), Ops: 600, Seed: 9, MeanGap: 2})
			res, err := Run(c, gen, Config{Mode: mode, InFlight: 8, Warmup: 10, Verify: true})
			if err != nil {
				t.Fatal(err)
			}
			if res.Faults == nil || !res.Faults.Any() || res.Wedged == 0 || res.Measured == 0 {
				t.Fatalf("fault plan did not wedge a measured run: %+v, wedged %d, measured %d", res.Faults, res.Wedged, res.Measured)
			}
			check(t, name, res)
		})
	}

	for _, mode := range []Mode{Closed, Open} {
		name := "keyed/" + mode.String()
		t.Run(name, func(t *testing.T) {
			svc := keyedSvc(t, countersvc.Config{Keys: 16, N: 16, Shards: 3,
				Registry:  registry.Concurrent(sim.WithServiceTime(1)),
				Migration: &countersvc.Migration{To: "combining", HotShare: 0.2, CheckEvery: 128}})
			gen := keyedGen(t, workload.Config{N: 16, Ops: 1200, Seed: 4, Keys: 16, KeyDist: "zipf", KeyZipfS: 1.2}, "zipf")
			res, err := RunKeyed(svc, gen, Config{Mode: mode, InFlight: 8, Warmup: 120, Verify: true})
			if err != nil {
				t.Fatal(err)
			}
			if len(res.Migrations) == 0 {
				t.Fatal("no hot key migrated")
			}
			check(t, name, res)
		})
	}
}
