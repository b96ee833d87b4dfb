package resilience

import (
	"context"
	"sync"
)

// Admission is the bounded front door of a worker pool: at most
// `limit` requests execute at once, at most `queue` more wait, and
// everything beyond that is shed immediately (ErrShed — the HTTP layer
// turns it into a 429). Close flips the door shut for graceful drain:
// new arrivals get ErrDraining, waiters are rejected, and Drain blocks
// until every admitted request has released its slot — the "no
// in-flight request lost" half of a clean shutdown.
//
// Both bounds are fixed at construction. The adaptive overload
// controller (AIMD) runs only in the virtual-time soaks, which resize
// their replay's own worker count; the live server never resizes.
type Admission struct {
	mu      sync.Mutex
	limit   int       // worker slots
	queue   int       // max queued waiters
	active  int       // admitted, not yet released
	waiters []*waiter // FIFO; grant order is arrival order

	closed    bool
	drainOnce sync.Once
	drained   chan struct{} // closed when closed && active == 0
}

// waiter is one goroutine blocked in Acquire. Exactly one of the
// outcomes is published under the mutex before done is closed:
// granted (err == nil) or rejected (err != nil).
type waiter struct {
	done    chan struct{}
	granted bool
	err     error
}

// NewAdmission returns an admission gate for a pool of the given
// width and waiting-queue depth (both clamped to >= their minimum:
// one worker, zero queue slots).
func NewAdmission(workers, queue int) *Admission {
	if workers < 1 {
		workers = 1
	}
	if queue < 0 {
		queue = 0
	}
	return &Admission{
		limit:   workers,
		queue:   queue,
		drained: make(chan struct{}),
	}
}

// Acquire admits one request: immediately when a worker slot is free,
// after queueing when the pool is busy but the queue has room. It
// returns ErrShed when the queue is full, ErrDraining once Close has
// been called, and ctx.Err() if the caller's deadline expires while
// queued. A nil return must be paired with exactly one Release.
//
// The uncontended path (free slot) takes one mutex and allocates
// nothing; only a request that actually queues pays for a waiter.
func (a *Admission) Acquire(ctx context.Context) error {
	a.mu.Lock()
	if a.closed {
		a.mu.Unlock()
		return ErrDraining
	}
	if a.active < a.limit {
		a.active++
		a.mu.Unlock()
		return nil
	}
	if len(a.waiters) >= a.queue {
		a.mu.Unlock()
		return ErrShed
	}
	w := &waiter{done: make(chan struct{})}
	a.waiters = append(a.waiters, w)
	a.mu.Unlock()

	select {
	case <-w.done:
		return w.err
	case <-ctx.Done():
		a.mu.Lock()
		switch {
		case w.granted:
			// Lost the race: the grant landed just as the deadline
			// fired. The slot is ours, so hand it straight on.
			a.releaseLocked()
		case w.err == nil:
			// Still queued: withdraw.
			for i, q := range a.waiters {
				if q == w {
					a.waiters = append(a.waiters[:i], a.waiters[i+1:]...)
					break
				}
			}
		}
		a.mu.Unlock()
		return ctx.Err()
	}
}

// Release frees the slot of one admitted request.
func (a *Admission) Release() {
	a.mu.Lock()
	a.releaseLocked()
	a.mu.Unlock()
}

func (a *Admission) releaseLocked() {
	a.active--
	if a.closed {
		if a.active == 0 {
			a.drainOnce.Do(func() { close(a.drained) })
		}
		return
	}
	// Hand the freed slot to the oldest waiter.
	if len(a.waiters) > 0 {
		w := a.waiters[0]
		a.waiters = a.waiters[1:]
		w.granted = true
		a.active++
		close(w.done)
	}
}

// InFlight returns how many admitted requests have not yet released.
func (a *Admission) InFlight() int {
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.active
}

// Queued returns the current queue occupancy.
func (a *Admission) Queued() int {
	a.mu.Lock()
	defer a.mu.Unlock()
	return len(a.waiters)
}

// Close stops admitting: subsequent Acquires (and queued waiters)
// fail with ErrDraining. Admitted requests are unaffected.
func (a *Admission) Close() {
	a.mu.Lock()
	if !a.closed {
		a.closed = true
		for _, w := range a.waiters {
			w.err = ErrDraining
			close(w.done)
		}
		a.waiters = nil
		if a.active == 0 {
			a.drainOnce.Do(func() { close(a.drained) })
		}
	}
	a.mu.Unlock()
}

// Closing reports whether Close has been called.
func (a *Admission) Closing() bool {
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.closed
}

// Drain closes admission and blocks until every in-flight request has
// released (or ctx expires). It is idempotent and safe to call from
// the shutdown path while handlers are still running.
func (a *Admission) Drain(ctx context.Context) error {
	a.Close()
	select {
	case <-a.drained:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}
