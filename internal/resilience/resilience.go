// Package resilience is the graceful-degradation toolkit of the
// serving layer (internal/serve, cmd/pacstack-serve): the pieces a
// long-running daemon needs so that overload, partial failure and
// injected faults degrade service instead of killing it.
//
// The components are deliberately small, explicit state machines:
//
//   - Backoff: seeded exponential backoff with jitter. Deterministic —
//     one seed fixes the whole delay sequence — so retry schedules can
//     be replayed exactly in the soak simulator.
//   - Breaker: a per-backend circuit breaker (closed → open →
//     half-open). It takes the current time as an argument instead of
//     reading a clock, so the same breaker runs under wall-clock time
//     in the daemon and under virtual time in the deterministic soak.
//   - Admission: a bounded admission queue with load shedding and
//     graceful drain — the front door of the worker pool.
//   - Protect: per-request panic isolation, converting a panicking
//     handler into a typed error instead of process death.
//
// Nothing here knows about PACStack; the package is plain Go so the
// state machines are reusable and independently testable.
package resilience

import (
	"errors"
	"fmt"
	"runtime/debug"
)

// Typed admission-control errors. The HTTP layer maps these onto
// status codes (429 for sheds, 503 for drain and open breakers).
var (
	// ErrShed reports that the admission queue was full: the request
	// was load-shed without being started.
	ErrShed = errors.New("resilience: overloaded, request shed")
	// ErrDraining reports that the server is shutting down and admits
	// no new work.
	ErrDraining = errors.New("resilience: draining, not admitting new work")
	// ErrBreakerOpen reports that the backend's circuit breaker is
	// open and the request was failed fast.
	ErrBreakerOpen = errors.New("resilience: circuit breaker open")
)

// PanicError wraps a recovered panic value as an error, preserving the
// goroutine stack at the point of the panic.
type PanicError struct {
	Value any
	Stack []byte
}

func (e *PanicError) Error() string {
	return fmt.Sprintf("resilience: recovered panic: %v", e.Value)
}

// Protect runs fn with panic isolation: a panic inside fn is recovered
// and returned as a *PanicError instead of unwinding into the caller.
// The serving layer wraps every request handler in Protect so one bad
// request cannot take the daemon down.
func Protect(fn func() error) (err error) {
	defer func() {
		if v := recover(); v != nil {
			err = &PanicError{Value: v, Stack: debug.Stack()}
		}
	}()
	return fn()
}
