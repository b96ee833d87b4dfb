package resilience

import (
	"context"
	"errors"
	"sync"
	"testing"
	"time"
)

func TestBackoffDeterministicAndClamped(t *testing.T) {
	a := NewBackoff(100, 10_000, 42)
	b := NewBackoff(100, 10_000, 42)
	for n := 0; n < 200; n++ {
		da, db := a.Delay(n), b.Delay(n)
		if da != db {
			t.Fatalf("attempt %d: same seed diverged: %d vs %d", n, da, db)
		}
		if da < 50 || da > 10_000 {
			t.Fatalf("attempt %d: delay %d outside [base/2, cap]", n, da)
		}
	}
	// Attempt numbers far past 63 must not shift-overflow back to tiny
	// delays — with no cap the delay saturates instead of wrapping.
	uncapped := NewBackoff(3, 0, 1)
	if d := uncapped.Delay(200); d < 1<<62 {
		t.Fatalf("attempt 200 uncapped delay %d collapsed (shift overflow)", d)
	}
}

func TestBackoffZeroBase(t *testing.T) {
	b := NewBackoff(0, 0, 1)
	for n := 0; n < 5; n++ {
		if d := b.Delay(n); d != 0 {
			t.Fatalf("zero-base delay = %d, want 0", d)
		}
	}
}

func TestBreakerLifecycle(t *testing.T) {
	br := NewBreaker(BreakerConfig{Threshold: 3, Cooldown: 100})
	now := uint64(1000)
	for i := 0; i < 3; i++ {
		if !br.Allow(now) {
			t.Fatalf("closed breaker denied request %d", i)
		}
		br.Record(now, false)
	}
	if br.Opens() != 1 {
		t.Fatalf("opens = %d, want 1", br.Opens())
	}
	if br.Allow(now + 50) {
		t.Fatal("open breaker admitted during cooldown")
	}
	// Cooldown expiry: exactly one probe goes through half-open.
	if !br.Allow(now + 100) {
		t.Fatal("half-open breaker denied the probe")
	}
	if br.Allow(now + 100) {
		t.Fatal("half-open breaker admitted a second probe")
	}
	// Probe failure re-opens; probe success closes.
	br.Record(now+100, false)
	if br.Opens() != 2 || br.Allow(now+150) {
		t.Fatalf("failed probe did not re-open (opens=%d)", br.Opens())
	}
	if !br.Allow(now + 300) {
		t.Fatal("second half-open probe denied")
	}
	br.Record(now+300, true)
	if st := br.State(now + 300); st != BreakerClosed {
		t.Fatalf("state after successful probe = %v, want closed", st)
	}
	for i := 0; i < 10; i++ {
		if !br.Allow(now + 301) {
			t.Fatal("closed breaker denied after recovery")
		}
		br.Record(now+301, true)
	}
}

// TestBreakerReleaseProbe: a probe grant handed back unused leaves a
// half-open breaker half-open with its probe free again, and changes
// nothing in a closed breaker's failure run.
func TestBreakerReleaseProbe(t *testing.T) {
	br := NewBreaker(BreakerConfig{Threshold: 2, Cooldown: 100})
	br.Record(0, false)
	br.ReleaseProbe()
	br.Record(0, false)
	if br.Opens() != 1 {
		t.Fatal("a released grant on a closed breaker reset its failure run")
	}
	if !br.Allow(100) {
		t.Fatal("half-open breaker denied the probe")
	}
	br.ReleaseProbe()
	if st := br.State(100); st != BreakerHalfOpen {
		t.Fatalf("state after a released probe = %v, want half-open", st)
	}
	if !br.Allow(100) || br.Allow(100) {
		t.Fatal("a released probe did not go to exactly one next candidate")
	}
}

func TestAdmissionShedsBeyondQueue(t *testing.T) {
	a := NewAdmission(1, 1)
	if err := a.Acquire(context.Background()); err != nil {
		t.Fatal(err)
	}
	// Pool busy: one waiter fits the queue, the next is shed.
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	queued := make(chan error, 1)
	go func() { queued <- a.Acquire(ctx) }()
	for a.Queued() != 1 {
		time.Sleep(time.Millisecond)
	}
	if err := a.Acquire(ctx); !errors.Is(err, ErrShed) {
		t.Fatalf("overflow Acquire = %v, want ErrShed", err)
	}
	// Releasing hands the slot to the waiter.
	a.Release()
	if err := <-queued; err != nil {
		t.Fatalf("queued Acquire = %v, want nil", err)
	}
	a.Release()
	if a.InFlight() != 0 {
		t.Fatalf("inflight = %d, want 0", a.InFlight())
	}
}

func TestAdmissionDrain(t *testing.T) {
	a := NewAdmission(2, 4)
	if err := a.Acquire(context.Background()); err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	wg.Add(1)
	drained := make(chan error, 1)
	go func() {
		defer wg.Done()
		drained <- a.Drain(context.Background())
	}()
	for !a.Closing() {
		time.Sleep(time.Millisecond)
	}
	// Draining: new arrivals are refused, not shed.
	if err := a.Acquire(context.Background()); !errors.Is(err, ErrDraining) {
		t.Fatalf("Acquire while draining = %v, want ErrDraining", err)
	}
	select {
	case err := <-drained:
		t.Fatalf("Drain returned %v with a request in flight", err)
	case <-time.After(10 * time.Millisecond):
	}
	a.Release()
	wg.Wait()
	if err := <-drained; err != nil {
		t.Fatalf("Drain = %v", err)
	}
	if a.InFlight() != 0 {
		t.Fatalf("inflight after drain = %d", a.InFlight())
	}
}

func TestAdmissionQueuedWaiterRespectsDeadline(t *testing.T) {
	a := NewAdmission(1, 2)
	if err := a.Acquire(context.Background()); err != nil {
		t.Fatal(err)
	}
	defer a.Release()
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Millisecond)
	defer cancel()
	if err := a.Acquire(ctx); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("queued Acquire = %v, want deadline exceeded", err)
	}
}

func TestProtectIsolatesPanics(t *testing.T) {
	err := Protect(func() error { panic("request handler exploded") })
	var pe *PanicError
	if !errors.As(err, &pe) {
		t.Fatalf("err = %v, want *PanicError", err)
	}
	if len(pe.Stack) == 0 {
		t.Error("panic stack not captured")
	}
	if err := Protect(func() error { return nil }); err != nil {
		t.Fatalf("clean fn returned %v", err)
	}
}

func TestAdmissionAcquireIsFIFO(t *testing.T) {
	a := NewAdmission(1, 8)
	if err := a.Acquire(context.Background()); err != nil {
		t.Fatalf("acquire: %v", err)
	}
	const n = 4
	order := make(chan int, n)
	for i := 0; i < n; i++ {
		i := i
		for a.Queued() != i { // enqueue one at a time to pin arrival order
			time.Sleep(time.Millisecond)
		}
		go func() {
			if err := a.Acquire(context.Background()); err != nil {
				t.Errorf("waiter %d: %v", i, err)
			}
			order <- i
			a.Release()
		}()
	}
	for a.Queued() != n {
		time.Sleep(time.Millisecond)
	}
	a.Release()
	for want := 0; want < n; want++ {
		if got := <-order; got != want {
			t.Fatalf("grant order: got waiter %d, want %d", got, want)
		}
	}
}

func TestAIMDMonotoneUnderStepLoad(t *testing.T) {
	// Step up: a saturated pool with healthy latency must probe upward
	// monotonically until it hits Max.
	c := NewAIMD(AIMDConfig{Start: 4, Min: 2, Max: 16, LatencyTarget: 1000})
	prev := c.Limit()
	for i := 0; i < 40; i++ {
		c.ObserveBusy(prev)   // pool at the limit
		c.ObserveLatency(500) // under target
		got := c.Tick()
		if got < prev {
			t.Fatalf("tick %d: limit decreased %d -> %d under healthy saturated load", i, prev, got)
		}
		prev = got
	}
	if prev != 16 {
		t.Fatalf("limit after sustained saturation = %d, want Max 16", prev)
	}

	// Step down: sustained congestion must back off monotonically to Min.
	for i := 0; i < 40; i++ {
		for j := 0; j < 10; j++ {
			c.ObserveLatency(5000) // every sample over target
		}
		got := c.Tick()
		if got > prev {
			t.Fatalf("tick %d: limit increased %d -> %d under congestion", i, prev, got)
		}
		prev = got
	}
	if prev != 2 {
		t.Fatalf("limit after sustained congestion = %d, want Min 2", prev)
	}
	st := c.Stats()
	if st.Increases == 0 || st.Decreases == 0 || st.LimitMax != 16 || st.LimitMin != 2 || st.Limit != 2 {
		t.Fatalf("stats = %+v", st)
	}
}

func TestAIMDIdleHoldsAndOutliersTolerated(t *testing.T) {
	c := NewAIMD(AIMDConfig{Start: 8, Min: 1, Max: 32, LatencyTarget: 1000})
	// Idle window: no samples, no saturation — hold, don't probe to Max.
	if got := c.Tick(); got != 8 {
		t.Fatalf("idle tick moved limit to %d", got)
	}
	// One heavy-tail outlier among many healthy samples must not halve
	// the pool (congestion is fraction-based, default >10%).
	c.ObserveBusy(8)
	c.ObserveLatency(1 << 40)
	for i := 0; i < 20; i++ {
		c.ObserveLatency(100)
	}
	if got := c.Tick(); got < 8 {
		t.Fatalf("single outlier shrank limit to %d", got)
	}
}
