package main

// The machine this benchmark runs on is a shared virtual machine: over a
// few minutes the same code's CPU time drifts by 20% or more as neighbours
// load the host's cores and caches. Wall time also includes stolen time.
// Each sim pass therefore times a fixed calibration kernel on its own
// thread, between cells, and scales every CPU-time figure by
// calNominalNs / (median kernel time). A figure then reads as CPU time on a
// machine where the kernel takes calNominalNs. The kernel is pure Go: no
// repository code, and no allocation, so it can't share a GC cycle with
// the code under test. It only tracks the machine's speed. A change to the
// program moves the scaled figures exactly as much as the raw ones.

// calNominalNs is about the kernel's median thread CPU time on the machine
// the first numbers were recorded on (see README.md). It only sets the
// scale.
const calNominalNs = 2.5e6

const (
	calIters   = 15000
	calHeapCap = 1 << 15   // 256 KiB of int64, like the sim's event heap
	calTabMask = 1<<19 - 1 // 4 MiB of scattered reads and writes, past the L2 cache
)

var (
	calHeap [calHeapCap]int64
	calTab  [calTabMask + 1]uint64
	calSink uint64
)

// calibrate runs the kernel once and returns its thread CPU time. It must
// run on the locked benchmark thread.
func calibrate() int64 {
	c0 := threadCPU()
	x := uint64(0x9E3779B97F4A7C15)
	n := 0
	var acc uint64
	for i := 0; i < calIters; i++ {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		// Binary-heap push, and a pop every other iteration: the same
		// compare-and-swap walk the simulator's event queue does.
		if n < calHeapCap {
			j := n
			calHeap[j] = int64(x % 1e9)
			n++
			for j > 0 {
				p := (j - 1) / 2
				if calHeap[p] <= calHeap[j] {
					break
				}
				calHeap[p], calHeap[j] = calHeap[j], calHeap[p]
				j = p
			}
		}
		if i%2 == 1 {
			acc += uint64(calHeap[0])
			n--
			calHeap[0] = calHeap[n]
			for j := 0; ; {
				l, r, m := 2*j+1, 2*j+2, j
				if l < n && calHeap[l] < calHeap[m] {
					m = l
				}
				if r < n && calHeap[r] < calHeap[m] {
					m = r
				}
				if m == j {
					break
				}
				calHeap[m], calHeap[j] = calHeap[j], calHeap[m]
				j = m
			}
		}
		// Scattered table reads and writes, like per-op bookkeeping maps.
		k := x & calTabMask
		calTab[k] += x
		acc += calTab[(k*7919)&calTabMask]
	}
	calSink += acc
	return threadCPU() - c0
}

// calScale collects kernel timings over a pass and turns them into the
// factor that scales the pass's CPU-time figures to the reference speed.
type calScale struct{ ns []float64 }

func (c *calScale) sample() { c.ns = append(c.ns, float64(calibrate())) }

func (c *calScale) factor() float64 {
	return calNominalNs / median(c.ns)
}
