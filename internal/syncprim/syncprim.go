// Package syncprim implements the synchronization primitives of the
// simulated machine as pure state machines: the DASH-style queue-based lock
// kept at the memory of the lock variable's home node (one lock variable per
// memory block, paper §4), and a centralized barrier. The home controller
// drives these with messages; keeping them free of simulator dependencies
// makes them directly unit-testable.
package syncprim

// Lock is a queue-based lock held at its home memory module. Waiters queue
// in FIFO order and are granted the lock directly on release, so a release
// costs a single node-to-node transfer to the next waiter.
type Lock struct {
	held   bool
	holder int
	queue  []int
}

// Acquire requests the lock for processor p. It returns true if the lock
// was free and is now granted to p; otherwise p is appended to the wait
// queue and false is returned.
func (l *Lock) Acquire(p int) bool {
	if !l.held {
		l.held = true
		l.holder = p
		return true
	}
	l.queue = append(l.queue, p)
	return false
}

// Release releases the lock held by p. If a waiter is queued, the lock
// passes to it and (next, true) is returned so the caller can send the
// grant; otherwise the lock becomes free and ok is false.
// Releasing a lock not held by p panics: it indicates a protocol bug.
func (l *Lock) Release(p int) (next int, ok bool) {
	if !l.held || l.holder != p {
		panic("syncprim: release of lock not held by releaser")
	}
	if len(l.queue) == 0 {
		l.held = false
		return 0, false
	}
	next = l.queue[0]
	l.queue = l.queue[1:]
	l.holder = next
	return next, true
}

// Held reports whether the lock is currently held.
func (l *Lock) Held() bool { return l.held }

// Holder returns the current holder; only meaningful when Held.
func (l *Lock) Holder() int { return l.holder }

// QueueLen returns the number of queued waiters.
func (l *Lock) QueueLen() int { return len(l.queue) }

// Barrier is a centralized N-party barrier: processors send an arrive
// message to the barrier's home; when the N-th arrives, the home releases
// everyone. It is reusable (episodes are implicit).
type Barrier struct {
	n       int
	arrived []int
}

// NewBarrier returns a barrier for n parties.
func NewBarrier(n int) *Barrier { return &Barrier{n: n} }

// Arrive records processor p's arrival. When p completes the party, the
// list of all waiting processors (including p) is returned with done=true
// and the barrier resets for the next episode. Arriving twice in one
// episode panics: a processor cannot pass a barrier it is blocked on.
func (b *Barrier) Arrive(p int) (release []int, done bool) {
	for _, q := range b.arrived {
		if q == p {
			panic("syncprim: processor arrived twice at barrier")
		}
	}
	if b.arrived == nil {
		b.arrived = make([]int, 0, b.n) // one allocation per episode
	}
	b.arrived = append(b.arrived, p)
	if len(b.arrived) < b.n {
		return nil, false
	}
	release = b.arrived
	b.arrived = nil
	return release, true
}

// Waiting returns how many processors are blocked at the barrier.
func (b *Barrier) Waiting() int { return len(b.arrived) }

// Parties returns the number of processors the barrier synchronizes.
func (b *Barrier) Parties() int { return b.n }
