package registry_test

import (
	"hash/fnv"
	"testing"

	"distcount/internal/counter"
	"distcount/internal/registry"
	"distcount/internal/sim"
)

const cloneN = 27

// startWave starts one operation per initiator, staggered over spread
// ticks so requests overlap and combining windows merge them.
func startWave(c counter.Valued, spread int) []sim.OpID {
	now := c.Net().Now()
	ids := make([]sim.OpID, 0, c.N())
	for p := 1; p <= c.N(); p++ {
		ids = append(ids, c.Start(now+int64(p%spread), sim.ProcID(p)))
	}
	return ids
}

// fingerprint is what a run must reproduce exactly: the values delivered
// per operation, the message counts and the faults fired.
type fingerprint struct {
	values  int    // operations that delivered a value
	digest  uint64 // FNV-1a over (op id, value) in op order
	msgs    int64
	maxLoad int64
	lost    int64
	dups    int64
}

func fingerprintOf(c counter.Valued, ids []sim.OpID) fingerprint {
	h := fnv.New64a()
	var fp fingerprint
	for _, id := range ids {
		v, ok := c.OpValue(id)
		if !ok {
			continue
		}
		fp.values++
		var b [16]byte
		for i := 0; i < 8; i++ {
			b[i] = byte(uint64(id) >> (8 * i))
			b[8+i] = byte(uint64(v) >> (8 * i))
		}
		h.Write(b[:])
	}
	fp.digest = h.Sum64()
	nw := c.Net()
	fp.msgs = nw.MessagesTotal()
	_, fp.maxLoad = nw.MaxLoad()
	fs := nw.FaultStats()
	fp.lost, fp.dups = fs.Lost, fs.Duplicated
	return fp
}

func mustValued(t *testing.T, algo string, cfg registry.Config) counter.Valued {
	t.Helper()
	c, err := registry.NewWith(algo, cloneN, cfg)
	if err != nil {
		t.Fatal(err)
	}
	return c.(counter.Valued)
}

func mustRun(t *testing.T, c counter.Valued) {
	t.Helper()
	if err := c.Net().Run(); err != nil {
		t.Fatal(err)
	}
}

// TestCloneIndependence clones a network whose protocol has already
// filled its payload arenas, batch free lists and op records, then drives
// the original and the clone through different second waves of operations
// with their events interleaved one by one — the schedule in which any
// state the two share would overwrite the other's messages in flight (the
// waves differ so that a shared slot cannot be rewritten with the value it
// already held). Network.Clone requires quiescence, so the clone is taken
// between the waves; the second waves are in flight on both networks at
// once. Each network must reproduce an uncloned reference run exactly.
// Every algorithm runs: payload arenas, batch free lists and op records
// are per-processor state a clone must not share, and the simulator host
// must rebind Initiate and Value to the cloned protocol.
func TestCloneIndependence(t *testing.T) {
	for _, algo := range registry.Names() {
		t.Run(algo, func(t *testing.T) {
			cfg := registry.Concurrent()
			reference := func(spread int) fingerprint {
				c := mustValued(t, algo, cfg)
				ids := startWave(c, 5)
				mustRun(t, c)
				ids = append(ids, startWave(c, spread)...)
				mustRun(t, c)
				return fingerprintOf(c, ids)
			}
			wantOrig, wantClone := reference(5), reference(3)
			if wantOrig == wantClone {
				t.Fatal("the two waves run identically; the test cannot see shared state")
			}

			orig := mustValued(t, algo, cfg)
			ids := startWave(orig, 5)
			mustRun(t, orig)
			cl, err := orig.(counter.Cloneable).Clone()
			if err != nil {
				t.Fatal(err)
			}
			clone := cl.(counter.Valued)
			// The clone keeps the original's op id counter, so both
			// networks number their second waves alike.
			ids = append(ids, startWave(orig, 5)...)
			startWave(clone, 3)
			for {
				a, err := orig.Net().Step()
				if err != nil {
					t.Fatal(err)
				}
				b, err := clone.Net().Step()
				if err != nil {
					t.Fatal(err)
				}
				if !a && !b {
					break
				}
			}
			if got := fingerprintOf(orig, ids); got != wantOrig {
				t.Errorf("original after clone: %+v, want %+v", got, wantOrig)
			}
			if got := fingerprintOf(clone, ids); got != wantClone {
				t.Errorf("clone: %+v, want %+v", got, wantClone)
			}
		})
	}
}

// TestLossDupFingerprint pins one wave under message loss and duplication:
// a duplicated delivery hands the receiver the same payload twice, and a
// dropped one wedges its operation. The figures were recorded before
// payloads moved into per-processor arenas, when every message carried its
// own boxed copy, so they also prove the arenas change no delivered value,
// message count or fault decision.
func TestLossDupFingerprint(t *testing.T) {
	want := map[string]fingerprint{
		"combining":       {values: 27, digest: 0xdd523bf6ab32b44c, msgs: 120, maxLoad: 40, lost: 1, dups: 4},
		"cnet":            {values: 26, digest: 0x5eeb8d0e4b95e7a3, msgs: 445, maxLoad: 39, lost: 3, dups: 25},
		"quorum-majority": {values: 25, digest: 0xcbbcffcc2b7e2876, msgs: 1485, maxLoad: 118, lost: 13, dups: 76},
	}
	for _, algo := range []string{"combining", "cnet", "quorum-majority"} {
		t.Run(algo, func(t *testing.T) {
			cfg := registry.Concurrent(sim.WithFaults(sim.FaultPlan{Seed: 7, Loss: 0.01, Dup: 0.05}))
			c := mustValued(t, algo, cfg)
			// One wave: a wedged operation keeps its initiator busy, so
			// a second wave could not start on it.
			ids := startWave(c, 5)
			mustRun(t, c)
			if got := fingerprintOf(c, ids); got != want[algo] {
				t.Errorf("%+v, want %+v", got, want[algo])
			}
		})
	}
}
