package cache

// FIFO is a bounded first-in-first-out buffer used for the first- and
// second-level write buffers (FLWB/SLWB). The paper's buffers hold memory
// requests in issue order; capacity limits are what make small-buffer
// sensitivity studies (paper §5.4) meaningful. It is a fixed ring allocated
// at construction, so pushing and popping never allocate.
type FIFO[T any] struct {
	ring []T
	head int // index of the oldest item
	n    int // occupancy
	// HighWater tracks the deepest occupancy reached, for reports.
	HighWater int
}

// NewFIFO returns a buffer holding at most capacity items.
func NewFIFO[T any](capacity int) *FIFO[T] {
	return &FIFO[T]{ring: make([]T, capacity)}
}

// Cap returns the capacity.
func (f *FIFO[T]) Cap() int { return len(f.ring) }

// Len returns the current occupancy.
func (f *FIFO[T]) Len() int { return f.n }

// Full reports whether no more items fit.
func (f *FIFO[T]) Full() bool { return f.n >= len(f.ring) }

// Empty reports whether the buffer holds nothing.
func (f *FIFO[T]) Empty() bool { return f.n == 0 }

// Push appends v. It panics if the buffer is full; callers must check Full
// first — overflowing a hardware queue is a controller bug.
func (f *FIFO[T]) Push(v T) {
	if f.Full() {
		panic("cache: push to full FIFO")
	}
	i := f.head + f.n
	if i >= len(f.ring) {
		i -= len(f.ring)
	}
	f.ring[i] = v
	f.n++
	if f.n > f.HighWater {
		f.HighWater = f.n
	}
}

// Pop removes and returns the oldest item. ok is false when empty.
func (f *FIFO[T]) Pop() (v T, ok bool) {
	if f.n == 0 {
		return v, false
	}
	v = f.ring[f.head]
	var zero T
	f.ring[f.head] = zero // drop references the item held
	f.head++
	if f.head == len(f.ring) {
		f.head = 0
	}
	f.n--
	return v, true
}

// Peek returns the oldest item without removing it.
func (f *FIFO[T]) Peek() (v T, ok bool) {
	if f.n == 0 {
		return v, false
	}
	return f.ring[f.head], true
}
