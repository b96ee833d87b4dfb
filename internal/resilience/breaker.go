package resilience

import (
	"fmt"
	"sort"
	"sync"
)

// BreakerState is the circuit-breaker state machine position.
type BreakerState int

const (
	// BreakerClosed: traffic flows; consecutive failures are counted.
	BreakerClosed BreakerState = iota
	// BreakerOpen: traffic is failed fast until the cooldown expires.
	BreakerOpen
	// BreakerHalfOpen: one probe request is let through; its success
	// closes the breaker, its failure re-opens it.
	BreakerHalfOpen
)

// String names the state.
func (s BreakerState) String() string {
	switch s {
	case BreakerClosed:
		return "closed"
	case BreakerOpen:
		return "open"
	case BreakerHalfOpen:
		return "half-open"
	}
	return fmt.Sprintf("BreakerState(%d)", int(s))
}

// BreakerConfig parameterises a Breaker.
type BreakerConfig struct {
	// Threshold is the number of consecutive failures that opens the
	// breaker. Values < 1 are treated as 1.
	Threshold int
	// Cooldown is how long the breaker stays open before letting
	// probes through, in the caller's time units (nanoseconds under
	// wall clock, simulated cycles in the soak).
	Cooldown uint64
	// OnTransition, when non-nil, is called on every state change with
	// the driving timestamp and the states either side. It runs with
	// the breaker's lock held: it must be fast and must not call back
	// into the breaker. The telemetry layer hangs its gauge updates and
	// event records here.
	OnTransition func(now uint64, from, to BreakerState)
	// Seed fixes the probe-grant tie-break used by GrantProbes when
	// several candidates race for a half-open breaker at the same
	// instant. Zero is a valid seed (the ordering is still
	// deterministic, just the zero-seeded one).
	Seed int64
	// OnProbe, when non-nil, is called whenever GrantProbes resolves a
	// batch against a half-open breaker, with the candidate ids in the
	// chosen (seeded) grant order — granted ids first, refused ids
	// after, so the exported order is the full contention verdict. Like
	// OnTransition it runs under the breaker's lock.
	OnProbe func(now uint64, order []uint64, granted int)
}

// Breaker is a per-backend circuit breaker. It holds no clock: every
// transition is driven by the `now` argument of Allow and Record, so
// the identical state machine serves wall-clock traffic in the daemon
// and virtual-time traffic in the deterministic soak simulator.
// All methods are safe for concurrent use.
type Breaker struct {
	mu      sync.Mutex
	cfg     BreakerConfig
	state   BreakerState
	fails   int    // consecutive failures while closed
	until   uint64 // when the open cooldown expires
	probing bool   // half-open has granted its one probe
	opens   uint64 // cumulative closed/half-open -> open transitions
}

// NewBreaker returns a closed breaker.
func NewBreaker(cfg BreakerConfig) *Breaker {
	if cfg.Threshold < 1 {
		cfg.Threshold = 1
	}
	return &Breaker{cfg: cfg}
}

// Allow reports whether a request may proceed at time now. In the
// open state it transitions to half-open once the cooldown has
// expired; in half-open it grants one probe.
func (b *Breaker) Allow(now uint64) bool {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.allowLocked(now)
}

// allowLocked is Allow's state machine. Callers hold b.mu.
func (b *Breaker) allowLocked(now uint64) bool {
	switch b.state {
	case BreakerClosed:
		return true
	case BreakerOpen:
		if now < b.until {
			return false
		}
		b.state = BreakerHalfOpen
		b.probing = false
		if b.cfg.OnTransition != nil {
			b.cfg.OnTransition(now, BreakerOpen, BreakerHalfOpen)
		}
		fallthrough
	default: // half-open
		if b.probing {
			return false
		}
		b.probing = true
		return true
	}
}

// probeRank is the seeded tie-break priority of one candidate id for
// one open episode (splitmix64 finalizer over seed, episode, id).
// Distinct episodes reshuffle the order; one episode's order is fixed.
func (b *Breaker) probeRank(id uint64) uint64 {
	z := uint64(b.cfg.Seed)*0x9e3779b97f4a7c15 + b.opens*0xbf58476d1ce4e5b9 + id
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// GrantProbes resolves a batch of candidates that race for the breaker
// at the same instant — the situation Allow cannot arbitrate fairly,
// because first-come-first-served among simultaneous callers is
// scheduling noise. The candidates are ordered deterministically by a
// seeded tie-break (Seed, open episode, id; equal hashes fall back to
// the smaller id) and then admitted in that order through the same
// state machine Allow runs: a closed breaker grants all of them, an
// open one none, a half-open one the first of the chosen order. It
// returns the granted ids, in grant order; when the batch met a
// half-open breaker, OnProbe exports the full chosen order and the
// grant count — the deterministic record of who won the race.
//
// A nil or empty batch returns nil. The deterministic soak feeds every
// same-virtual-instant arrival batch through here, which is what makes
// probe outcomes independent of event-heap insertion order.
func (b *Breaker) GrantProbes(now uint64, ids []uint64) []uint64 {
	if len(ids) == 0 {
		return nil
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	order := append([]uint64(nil), ids...)
	sort.SliceStable(order, func(i, j int) bool {
		ri, rj := b.probeRank(order[i]), b.probeRank(order[j])
		if ri != rj {
			return ri < rj
		}
		return order[i] < order[j]
	})
	granted := make([]uint64, 0, len(order))
	contended := false
	for _, id := range order {
		wasHalfOpen := b.state == BreakerHalfOpen ||
			(b.state == BreakerOpen && now >= b.until)
		if b.allowLocked(now) {
			granted = append(granted, id)
		}
		contended = contended || wasHalfOpen
	}
	if contended && b.cfg.OnProbe != nil {
		b.cfg.OnProbe(now, order, len(granted))
	}
	return granted
}

// ReleaseProbe hands back a grant that no request used: the caller was
// granted passage and then refused before anything ran (a shed, a
// draining backend, a bad request). A half-open breaker stays
// half-open and grants its probe to the next candidate. In any other
// state there is nothing to hand back. Record must not follow: the
// refusal proved nothing about the backend's health.
func (b *Breaker) ReleaseProbe() {
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.state == BreakerHalfOpen {
		b.probing = false
	}
}

// Record reports the outcome of a request that Allow admitted. A
// failure while closed counts toward Threshold; any failure while
// half-open re-opens immediately. A success closes a half-open breaker
// and resets the failure run.
func (b *Breaker) Record(now uint64, ok bool) {
	b.mu.Lock()
	defer b.mu.Unlock()
	if ok {
		if from := b.state; from != BreakerClosed {
			b.state = BreakerClosed
			if b.cfg.OnTransition != nil {
				b.cfg.OnTransition(now, from, BreakerClosed)
			}
		}
		b.fails = 0
		return
	}
	switch b.state {
	case BreakerClosed:
		b.fails++
		if b.fails >= b.cfg.Threshold {
			b.open(now)
		}
	case BreakerHalfOpen:
		b.open(now)
	case BreakerOpen:
		// A straggler from before the breaker opened; nothing to do.
	}
}

// open transitions to the open state. Callers hold b.mu.
func (b *Breaker) open(now uint64) {
	from := b.state
	b.state = BreakerOpen
	b.until = now + b.cfg.Cooldown
	b.fails = 0
	b.opens++
	if b.cfg.OnTransition != nil {
		b.cfg.OnTransition(now, from, BreakerOpen)
	}
}

// State returns the current state as of time now (an open breaker
// whose cooldown has expired reads as half-open).
func (b *Breaker) State(now uint64) BreakerState {
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.state == BreakerOpen && now >= b.until {
		return BreakerHalfOpen
	}
	return b.state
}

// Opens returns how many times the breaker has opened.
func (b *Breaker) Opens() uint64 {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.opens
}
