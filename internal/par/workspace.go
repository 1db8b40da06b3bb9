package par

// Workspace is a per-worker scratch arena: one lazily-constructed *T per
// worker slot, kept across parallel passes so a stage allocates
// per-worker-once, not per-item. For(workers) returns the first `workers`
// slots; worker i owns slot i for the duration of one pass (Do's
// ownership contract). The zero value is ready to use; Workspace itself is
// not safe for concurrent use — callers size it sequentially before the
// fan-out.
type Workspace[T any] struct {
	slots []*T
}

// For returns per-worker slots [0, workers), creating missing ones.
func (ws *Workspace[T]) For(workers int) []*T {
	for len(ws.slots) < workers {
		ws.slots = append(ws.slots, new(T))
	}
	return ws.slots[:workers]
}

// Slots is a reusable value-slot slice for worker-indexed accumulators
// (counters) and item-indexed flags and stamps: For(n) returns a zeroed
// length-n slice backed by a buffer grown once and reused across passes.
// The zero value is ready to use; not safe for concurrent resizing (call
// For before the fan-out, then index freely).
type Slots[T any] struct {
	buf []T
}

// For returns a zero-filled slice of length n backed by the reusable
// buffer.
func (s *Slots[T]) For(n int) []T {
	if cap(s.buf) < n {
		s.buf = make([]T, n)
	}
	s.buf = s.buf[:n]
	var zero T
	for i := range s.buf {
		s.buf[i] = zero
	}
	return s.buf
}
