package flightrec

// ring is a fixed-capacity buffer that overwrites its oldest entry when
// full and counts every overwrite. It is not synchronized: each ring
// lives under its owner's mutex.
type ring[T any] struct {
	buf     []T
	next    int   // write cursor
	n       int   // live entries
	total   int64 // pushes ever
	evicted int64 // pushes that overwrote a live entry
}

func newRing[T any](size int) ring[T] { return ring[T]{buf: make([]T, size)} }

func (r *ring[T]) push(v T) {
	if r.n == len(r.buf) {
		r.evicted++
	} else {
		r.n++
	}
	r.buf[r.next] = v
	r.next = (r.next + 1) % len(r.buf)
	r.total++
}

// snapshot copies the live entries, oldest first.
func (r *ring[T]) snapshot() []T {
	out := make([]T, 0, r.n)
	start := (r.next - r.n + len(r.buf)) % len(r.buf)
	for i := 0; i < r.n; i++ {
		out = append(out, r.buf[(start+i)%len(r.buf)])
	}
	return out
}
