package core

import (
	"testing"

	"distcount/internal/counter"
	"distcount/internal/sim"
)

// TestMessagesAreLogarithmic verifies the paper's size claim: "we were able
// to keep the length of messages as short as O(log n) bits". Every payload
// carries at most three identifiers plus a tag and a value, so the largest
// message over a full run must stay within a small multiple of log2(n).
func TestMessagesAreLogarithmic(t *testing.T) {
	for _, k := range []int{2, 3, 4} {
		c := New(k)
		if _, err := counter.RunSequence(c, counter.SequentialOrder(c.N())); err != nil {
			t.Fatal(err)
		}
		logN := sim.BitsFor(c.N())
		got := c.Net().MaxMessageBits()
		if got == 0 {
			t.Fatalf("k=%d: no size accounting", k)
		}
		// 3 identifiers + value + tag, each identifier <= logN + slack for
		// node indices (there are ~n/(k-1) inner nodes).
		budget := 4*logN + tagBits + 8
		if got > budget {
			t.Fatalf("k=%d: max message %d bits exceeds O(log n) budget %d (log2 n = %d)",
				k, got, budget, logN)
		}
		t.Logf("k=%d n=%d: max message %d bits (log2 n = %d), total %d bits",
			k, c.N(), got, logN, c.Net().BitsTotal())
	}
}

// TestBitsGrowLogarithmically: the max message size across k=2..4 grows
// like log n, not like n.
func TestBitsGrowLogarithmically(t *testing.T) {
	maxBits := make([]int, 0, 3)
	ns := make([]int, 0, 3)
	for _, k := range []int{2, 3, 4} {
		c := New(k)
		if _, err := counter.RunSequence(c, counter.SequentialOrder(c.N())); err != nil {
			t.Fatal(err)
		}
		maxBits = append(maxBits, c.Net().MaxMessageBits())
		ns = append(ns, c.N())
	}
	for i := 1; i < len(maxBits); i++ {
		nGrowth := float64(ns[i]) / float64(ns[i-1])
		bitGrowth := float64(maxBits[i]) / float64(maxBits[i-1])
		if bitGrowth > nGrowth/2 {
			t.Fatalf("message size grew %vx while n grew %vx: not logarithmic (%v for %v)",
				bitGrowth, nGrowth, maxBits, ns)
		}
	}
}

func TestBitsFor(t *testing.T) {
	cases := []struct{ v, want int }{
		{0, 1}, {1, 1}, {2, 2}, {3, 2}, {4, 3}, {7, 3}, {8, 4}, {1023, 10}, {1024, 11},
	}
	for _, c := range cases {
		if got := sim.BitsFor(c.v); got != c.want {
			t.Errorf("BitsFor(%d) = %d, want %d", c.v, got, c.want)
		}
	}
}

func TestBitsForPanicsOnNegative(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("no panic")
		}
	}()
	sim.BitsFor(-1)
}

func TestValueBits(t *testing.T) {
	if got := (inc{}).Bits(); got != 0 {
		t.Errorf("inc = %d", got)
	}
	if got := count(7).Bits(); got != 3 {
		t.Errorf("count 7 = %d", got)
	}
	if got := (incPayload[inc]{Target: 1, Origin: 1}).Bits(); got != tagBits+2 {
		t.Errorf("inc payload = %d, want %d", got, tagBits+2)
	}
	if got := (valuePayload[count]{Reply: 7}).Bits(); got != tagBits+3 {
		t.Errorf("value payload = %d, want %d", got, tagBits+3)
	}
}
