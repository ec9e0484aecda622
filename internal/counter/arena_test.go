package counter

import (
	"testing"

	"distcount/internal/sim"
)

// TestArenaStablePointers hands out more values than several chunks hold
// and checks every earlier pointer still reads the value it was given:
// slots are never reused, only abandoned with their chunk.
func TestArenaStablePointers(t *testing.T) {
	var a Arena[[2]int]
	ptrs := make([]*[2]int, 3000)
	for i := range ptrs {
		ptrs[i] = a.New([2]int{i, -i})
	}
	for i, p := range ptrs {
		if *p != [2]int{i, -i} {
			t.Fatalf("slot %d reads %v", i, *p)
		}
	}
}

// TestArenaChunkGrowth pins the geometric chunk schedule: 8, 16, ... up to
// 512 values, then 512 per chunk from there on.
func TestArenaChunkGrowth(t *testing.T) {
	var a Arena[int]
	var caps []int
	for i := 0; i < 8+16+32+64+128+256+512+512+1; i++ {
		a.New(i)
		if len(a.chunk) == 1 {
			caps = append(caps, cap(a.chunk))
		}
	}
	want := []int{8, 16, 32, 64, 128, 256, 512, 512, 512}
	if len(caps) != len(want) {
		t.Fatalf("chunk capacities %v, want %v", caps, want)
	}
	for i := range want {
		if caps[i] != want[i] {
			t.Fatalf("chunk capacities %v, want %v", caps, want)
		}
	}
}

// TestArenaAmortizedAllocs checks a warm arena allocates one chunk per 512
// values.
func TestArenaAmortizedAllocs(t *testing.T) {
	var a Arena[int]
	for i := 0; i < 2048; i++ {
		a.New(i)
	}
	if avg := testing.AllocsPerRun(5, func() {
		for i := 0; i < 512; i++ {
			a.New(i)
		}
	}); avg != 1 {
		t.Fatalf("%v allocations per 512 values, want 1", avg)
	}
}

func TestPerProcLazy(t *testing.T) {
	tab := NewPerProc[Arena[int]](4)
	if len(tab) != 5 {
		t.Fatalf("table has %d entries, want n+1 = 5", len(tab))
	}
	for p := range tab {
		if tab[p] != nil {
			t.Fatalf("entry %d created before first use", p)
		}
	}
	a := tab.Of(sim.ProcID(3))
	if a == nil || tab.Of(sim.ProcID(3)) != a {
		t.Fatal("Of does not return one stable entry per processor")
	}
	if tab[1] != nil || tab[2] != nil || tab[4] != nil {
		t.Fatal("Of created entries for other processors")
	}
}
