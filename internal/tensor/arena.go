package tensor

// Arena is a bump allocator for layer-transient float32 scratch: the tile
// decode buffers, compact SpMM partials and merge scratch that the epoch
// loop previously re-allocated every layer. One goroutine owns an Arena;
// Reset reclaims everything at once, so after the first epoch warms the
// slab up, steady-state layer compute performs zero heap allocations.
//
// Ownership rule (DESIGN.md §15): only values that die before the next
// Reset may come from an Arena. Anything retained across the reset point —
// published H/G matrices, last-good degraded rows, packed payloads kept for
// fallback — must be heap-allocated.
type Arena struct {
	slab []float32
	off  int
	// overflow counts floats that did not fit this cycle; Reset grows the
	// slab by the shortfall so the next cycle is allocation-free.
	overflow int
	// hdrs recycles Matrix headers across cycles so Matrix() is
	// allocation-free once warm; hused counts the headers handed out since
	// the last Reset.
	hdrs  []*Matrix
	hused int
}

// NewArena returns an arena with an initial slab of the given capacity
// (in float32 elements; 0 is fine — the slab grows on first Reset).
func NewArena(capacity int) *Arena {
	return &Arena{slab: make([]float32, capacity)}
}

// Floats returns a zeroed length-n slice carved from the slab. When the
// slab is exhausted the slice is heap-allocated and the shortfall recorded,
// so the next Reset sizes the slab to fit the whole cycle.
func (a *Arena) Floats(n int) []float32 {
	if a.off+n <= len(a.slab) {
		s := a.slab[a.off : a.off+n : a.off+n]
		a.off += n
		clear(s)
		return s
	}
	a.overflow += n
	return make([]float32, n)
}

// Matrix returns a zeroed rows×cols matrix backed by the slab (same
// lifetime rules as Floats — the header itself is arena-owned too and is
// recycled at Reset).
func (a *Arena) Matrix(rows, cols int) *Matrix {
	var m *Matrix
	if a.hused < len(a.hdrs) {
		m = a.hdrs[a.hused]
	} else {
		m = new(Matrix)
		a.hdrs = append(a.hdrs, m)
	}
	a.hused++
	m.Rows, m.Cols, m.Data = rows, cols, a.Floats(rows*cols)
	return m
}

// Reset reclaims every allocation made since the previous Reset. Slices
// handed out before the call must no longer be referenced. If the previous
// cycle overflowed the slab, the slab is regrown once here — off the hot
// path — so steady-state cycles never allocate.
func (a *Arena) Reset() {
	if a.overflow > 0 {
		a.slab = make([]float32, len(a.slab)+a.overflow)
		a.overflow = 0
	}
	a.off = 0
	a.hused = 0
}
