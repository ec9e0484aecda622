package verify

import (
	"strings"
	"testing"
	"testing/quick"

	"distcount/internal/counter"
	"distcount/internal/counters/central"
	"distcount/internal/rng"
	"distcount/internal/sim"
)

func tv(value int, start, end int64) TimedValue {
	return TimedValue{Value: value, Start: start, End: end}
}

func TestQuiescentConsistentAccepts(t *testing.T) {
	vals := []TimedValue{tv(2, 0, 1), tv(0, 0, 2), tv(1, 0, 3)}
	if err := QuiescentConsistent(vals); err != nil {
		t.Fatal(err)
	}
}

func TestQuiescentConsistentRejectsDuplicate(t *testing.T) {
	vals := []TimedValue{tv(0, 0, 1), tv(0, 0, 2)}
	if err := QuiescentConsistent(vals); err == nil {
		t.Fatal("duplicate accepted")
	}
}

func TestQuiescentConsistentRejectsOutOfRange(t *testing.T) {
	vals := []TimedValue{tv(0, 0, 1), tv(5, 0, 2)}
	if err := QuiescentConsistent(vals); err == nil {
		t.Fatal("gap accepted")
	}
	if err := QuiescentConsistent([]TimedValue{tv(-1, 0, 1)}); err == nil {
		t.Fatal("negative accepted")
	}
}

func TestLinearizableAcceptsSequentialRun(t *testing.T) {
	// Ops strictly one after another, values in order.
	vals := []TimedValue{tv(0, 0, 10), tv(1, 20, 30), tv(2, 40, 50)}
	if err := Linearizable(vals); err != nil {
		t.Fatal(err)
	}
}

func TestLinearizableAcceptsOverlapAnyOrder(t *testing.T) {
	// Fully overlapping ops may take values in any order.
	vals := []TimedValue{tv(2, 0, 100), tv(0, 0, 100), tv(1, 0, 100)}
	if err := Linearizable(vals); err != nil {
		t.Fatal(err)
	}
}

func TestLinearizableRejectsRealTimeInversion(t *testing.T) {
	// Op with value 1 completed (end 10) before the op with value 0
	// started (start 20): the classic violation.
	vals := []TimedValue{tv(1, 0, 10), tv(0, 20, 30)}
	err := Linearizable(vals)
	if err == nil {
		t.Fatal("inversion accepted")
	}
	if !strings.Contains(err.Error(), "linearizability violation") {
		t.Fatalf("unhelpful error: %v", err)
	}
}

func TestLinearizableHSWPattern(t *testing.T) {
	// The E13 scripted outcome: A=2, B=1, C=4, D=3, E=0 with E starting
	// after B and D completed.
	vals := []TimedValue{
		tv(2, 0, 102), // A (stalled)
		tv(1, 4, 7),   // B
		tv(4, 8, 110), // C (stalled)
		tv(3, 12, 15), // D
		tv(0, 30, 33), // E
	}
	if err := QuiescentConsistent(vals); err != nil {
		t.Fatal(err)
	}
	if err := Linearizable(vals); err == nil {
		t.Fatal("HSW pattern accepted as linearizable")
	}
}

func TestLinearizableBoundaryTies(t *testing.T) {
	// end == start is NOT "completed before started" (simultaneous at the
	// boundary): no constraint, any values allowed.
	vals := []TimedValue{tv(1, 0, 10), tv(0, 10, 20)}
	if err := Linearizable(vals); err != nil {
		t.Fatalf("boundary tie rejected: %v", err)
	}
}

// TestLinearizableMatchesBruteForce cross-checks the O(n log n) scan
// against the quadratic definition on random histories.
func TestLinearizableMatchesBruteForce(t *testing.T) {
	brute := func(vals []TimedValue) bool {
		if QuiescentConsistent(vals) != nil {
			return false
		}
		for _, a := range vals {
			for _, b := range vals {
				if a.End < b.Start && a.Value >= b.Value {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(func(seed uint64, nRaw uint8) bool {
		n := int(nRaw%8) + 2
		r := rng.New(seed)
		perm := r.Perm(n)
		vals := make([]TimedValue, n)
		for i := 0; i < n; i++ {
			start := int64(r.Intn(50))
			vals[i] = tv(perm[i], start, start+int64(r.Intn(50)))
		}
		return brute(vals) == (Linearizable(vals) == nil)
	}, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestCollectTimedValues(t *testing.T) {
	c := counter.NewSim(central.NewMachine(4))
	ids := make([]sim.OpID, 0, 2)
	values := make([]int, 0, 2)
	for _, p := range []sim.ProcID{2, 3} {
		before := c.Net().Ops()
		v, err := c.Inc(p)
		if err != nil {
			t.Fatal(err)
		}
		ids = append(ids, sim.OpID(before+1))
		values = append(values, v)
	}
	tvs, err := CollectTimedValues(c.Net(), ids, values)
	if err != nil {
		t.Fatal(err)
	}
	if len(tvs) != 2 || tvs[0].Value != 0 || tvs[1].Value != 1 {
		t.Fatalf("collected %+v", tvs)
	}
	if tvs[0].End < tvs[0].Start {
		t.Fatalf("negative duration: %+v", tvs[0])
	}
	if err := Linearizable(tvs); err != nil {
		t.Fatal(err)
	}
}

func TestCollectTimedValuesErrors(t *testing.T) {
	c := counter.NewSim(central.NewMachine(4))
	if _, err := CollectTimedValues(c.Net(), []sim.OpID{1}, []int{0, 1}); err == nil {
		t.Fatal("length mismatch accepted")
	}
	if _, err := CollectTimedValues(c.Net(), []sim.OpID{99}, []int{0}); err == nil {
		t.Fatal("unknown op accepted")
	}
}
