package distpq

import (
	"sort"
	"testing"
	"testing/quick"

	"distcount/internal/loadstat"
	"distcount/internal/rng"
	"distcount/internal/sim"
)

func TestInsertDelMinSorted(t *testing.T) {
	q := New(2)
	pris := []int{5, 1, 4, 1, 3}
	for i, pri := range pris {
		if err := q.Insert(sim.ProcID(i%q.N()+1), pri); err != nil {
			t.Fatal(err)
		}
	}
	want := append([]int(nil), pris...)
	sort.Ints(want)
	for i, w := range want {
		got, ok, err := q.DelMin(sim.ProcID((i+3)%q.N() + 1))
		if err != nil {
			t.Fatal(err)
		}
		if !ok || got != w {
			t.Fatalf("delmin %d = (%d,%v), want (%d,true)", i, got, ok, w)
		}
	}
	if _, ok, err := q.DelMin(1); err != nil || ok {
		t.Fatalf("delmin on empty = ok=%v err=%v", ok, err)
	}
}

func TestSize(t *testing.T) {
	q := New(2)
	for i := 0; i < 5; i++ {
		if err := q.Insert(1, i); err != nil {
			t.Fatal(err)
		}
	}
	n, err := q.Size(8)
	if err != nil {
		t.Fatal(err)
	}
	if n != 5 {
		t.Fatalf("size = %d, want 5", n)
	}
}

// TestMatchesReferenceHeap property-tests the distributed queue against a
// simple sorted-slice reference under random operation sequences.
func TestMatchesReferenceHeap(t *testing.T) {
	if err := quick.Check(func(seed uint64, opsRaw uint8) bool {
		q := New(2)
		r := rng.New(seed)
		ops := int(opsRaw%40) + 5
		var ref []int
		for i := 0; i < ops; i++ {
			p := sim.ProcID(r.Intn(q.N()) + 1)
			if r.Intn(3) > 0 { // 2/3 inserts
				pri := r.Intn(100)
				if err := q.Insert(p, pri); err != nil {
					return false
				}
				ref = append(ref, pri)
				sort.Ints(ref)
				continue
			}
			got, ok, err := q.DelMin(p)
			if err != nil {
				return false
			}
			if len(ref) == 0 {
				if ok {
					return false
				}
				continue
			}
			if !ok || got != ref[0] {
				return false
			}
			ref = ref[1:]
		}
		n, err := q.Size(1)
		return err == nil && n == len(ref)
	}, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}

// TestCanonicalWorkloadLoad: each processor performs one operation (mixed
// insert/delete-min); the bottleneck stays within the counter's O(k)
// budget, and all Section 4 lemmas hold — the paper's extension claim.
func TestCanonicalWorkloadLoad(t *testing.T) {
	for _, k := range []int{2, 3} {
		q := New(k)
		for p := 1; p <= q.N(); p++ {
			var err error
			if p%2 == 1 {
				err = q.Insert(sim.ProcID(p), p)
			} else {
				_, _, err = q.DelMin(sim.ProcID(p))
			}
			if err != nil {
				t.Fatal(err)
			}
		}
		s := loadstat.SummarizeLoads(q.Tree().Net().Loads())
		budget := int64(2*(8*k+10) + 2)
		if s.MaxLoad > budget {
			t.Fatalf("k=%d: bottleneck %d exceeds O(k) budget %d", k, s.MaxLoad, budget)
		}
		if _, violations := q.Tree().Violations(); violations != 0 {
			v, _ := q.Tree().Violations()
			t.Fatalf("k=%d: lemma violations: %v", k, v)
		}
	}
}

func TestCloneIndependence(t *testing.T) {
	q := New(2)
	if err := q.Insert(1, 7); err != nil {
		t.Fatal(err)
	}
	cp, err := q.Clone()
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := cp.DelMin(2); err != nil {
		t.Fatal(err)
	}
	n, err := q.Size(3)
	if err != nil {
		t.Fatal(err)
	}
	if n != 1 {
		t.Fatalf("original size = %d after clone's delmin, want 1", n)
	}
}

func TestHeapProperty(t *testing.T) {
	// Direct unit test of the root-state heap.
	s := &pqState{}
	for _, v := range []int{9, 3, 7, 1, 8, 2} {
		s.push(v)
	}
	prev := -1
	for len(s.heap) > 0 {
		v := s.pop()
		if v < prev {
			t.Fatalf("heap popped %d after %d", v, prev)
		}
		prev = v
	}
}

func TestNewForSize(t *testing.T) {
	if NewForSize(9).N() != 81 {
		t.Fatal("size rounding broken")
	}
}

func TestUnexpectedRequestPanics(t *testing.T) {
	s := &pqState{}
	defer func() {
		if recover() == nil {
			t.Fatal("no panic")
		}
	}()
	s.Apply(request{kind: 99})
}
