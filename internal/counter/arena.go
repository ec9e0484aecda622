package counter

import "distcount/internal/sim"

// Chunk sizes of an Arena: the first chunk is small so a processor that
// sends a handful of messages does not pin a large block, and chunks
// double up to a cap so a busy sender amortizes one allocation over
// hundreds of values without holding much memory per chunk.
const (
	arenaMinChunk = 8
	arenaMaxChunk = 512
)

// Arena hands out stable pointers to values carved from chunks, so a
// protocol can send pointer payloads without one heap allocation per
// message. A slot is never reused: New copies its argument into the next
// free slot of the current chunk and starts a fresh chunk when the current
// one is full, leaving the old chunk to the garbage collector once nothing
// points into it. Payloads handed out therefore stay valid and unchanged
// for as long as any message, clone or duplicate refers to them.
//
// An Arena is not safe for concurrent use. Protocols keep one per sending
// processor (see PerProc) and call New only from that processor's own
// execution context. The zero value is ready to use.
type Arena[T any] struct {
	chunk []T
}

// New copies v into the arena and returns a pointer to the copy.
func (a *Arena[T]) New(v T) *T {
	if len(a.chunk) == cap(a.chunk) {
		a.chunk = make([]T, 0, min(max(2*cap(a.chunk), arenaMinChunk), arenaMaxChunk))
	}
	a.chunk = append(a.chunk, v)
	return &a.chunk[len(a.chunk)-1]
}

// PerProc is a table of per-processor values indexed by processor id
// 1..n, each created on first use. Protocols keep their payload arenas in
// one: processor p's entry is created and used only from p's own execution
// context, so on the rt backend distinct processors never touch the same
// entry and no lock is needed. A clone of a protocol takes a fresh table
// (NewPerProc), never a copy: a shared chunk would let the clone overwrite
// the original's in-flight payloads.
type PerProc[A any] []*A

// NewPerProc returns an empty table for processors 1..n.
func NewPerProc[A any](n int) PerProc[A] { return make(PerProc[A], n+1) }

// Of returns processor p's entry, creating it on first use.
func (t PerProc[A]) Of(p sim.ProcID) *A {
	a := t[p]
	if a == nil {
		a = new(A)
		t[p] = a
	}
	return a
}
