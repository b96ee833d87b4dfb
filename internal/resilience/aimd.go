package resilience

import "sync"

// AIMD is a clock-free additive-increase / multiplicative-decrease
// controller for a concurrency limit — the classic TCP congestion
// shape applied to an admission gate. The caller owns the clock: it
// feeds the controller per-request signals (completion latency,
// sheds, pool occupancy) and closes a control window by calling Tick,
// typically every Interval units of whatever time it runs under —
// virtual cycles in the soak DES, wall time in a live daemon. Nothing
// in here reads a clock, so the same controller state machine runs
// bit-identically in both worlds.
//
// Decision rule per window, evaluated at Tick:
//
//   - congested — more than BadNum/BadDen of the window's completions
//     exceeded LatencyTarget: multiplicative decrease (the limit
//     halves, clamped to Min).
//   - else saturated — the pool hit the limit or shed at least once:
//     additive increase (limit += Step, clamped to Max). Saturation
//     gates the probe so an idle pool does not drift to Max.
//   - else: hold.
//
// The fraction-based congestion signal is deliberate: heavy-tailed
// traffic (slow clients, poison requests) produces individual
// latencies orders of magnitude over any sane target, and a single
// outlier must not halve the pool. Monotonicity invariant: within one
// window the limit moves only in the direction of the observed
// signal, so a sustained one-sided signal yields a monotone limit
// trajectory (tested in resilience_test.go).
type AIMD struct {
	cfg AIMDConfig

	mu      sync.Mutex
	limit   int
	samples int // completions observed this window
	over    int // ... of which exceeded LatencyTarget
	sheds   int // sheds observed this window
	busyMax int // max pool occupancy observed this window

	stats AIMDStats
}

// AIMDConfig parameterizes the controller. Zero values get sane
// defaults from NewAIMD; Interval is advisory — the controller never
// reads it, it is the cadence the owning loop should call Tick at.
type AIMDConfig struct {
	Start int // initial limit (default Min)
	Min   int // floor (default 1)
	Max   int // ceiling (default 64)

	Step int // additive increase per saturated healthy window (default 1)

	LatencyTarget uint64 // a completion above this is "over" (required for decreases)
	BadNum        int    // window is congested when over/samples > BadNum/BadDen
	BadDen        int    // (default 1/10)

	Interval uint64 // advisory tick cadence for the owning loop
}

// AIMDStats summarizes a controller's trajectory for reports.
type AIMDStats struct {
	Increases int `json:"increases"`
	Decreases int `json:"decreases"`
	LimitMin  int `json:"limit_min"` // lowest limit ever held
	LimitMax  int `json:"limit_max"` // highest limit ever held
	Limit     int `json:"limit"`     // final limit
}

// NewAIMD returns a controller starting at cfg.Start.
func NewAIMD(cfg AIMDConfig) *AIMD {
	if cfg.Min < 1 {
		cfg.Min = 1
	}
	if cfg.Max < cfg.Min {
		cfg.Max = cfg.Min + 63
	}
	if cfg.Start < cfg.Min {
		cfg.Start = cfg.Min
	}
	if cfg.Start > cfg.Max {
		cfg.Start = cfg.Max
	}
	if cfg.Step < 1 {
		cfg.Step = 1
	}
	if cfg.BadDen < 1 {
		cfg.BadNum, cfg.BadDen = 1, 10
	}
	c := &AIMD{cfg: cfg, limit: cfg.Start}
	c.stats.LimitMin = cfg.Start
	c.stats.LimitMax = cfg.Start
	c.stats.Limit = cfg.Start
	return c
}

// ObserveLatency records one completed request's latency into the
// current window.
func (c *AIMD) ObserveLatency(lat uint64) {
	c.mu.Lock()
	c.samples++
	if lat > c.cfg.LatencyTarget {
		c.over++
	}
	c.mu.Unlock()
}

// ObserveShed records one shed (queue-full rejection) into the
// current window.
func (c *AIMD) ObserveShed() {
	c.mu.Lock()
	c.sheds++
	c.mu.Unlock()
}

// ObserveBusy records a pool-occupancy sample; the window keeps the
// maximum, which is the saturation signal gating additive increases.
func (c *AIMD) ObserveBusy(busy int) {
	c.mu.Lock()
	if busy > c.busyMax {
		c.busyMax = busy
	}
	c.mu.Unlock()
}

// Tick closes the current control window, applies the AIMD decision,
// resets the window counters, and returns the (possibly resized)
// limit.
func (c *AIMD) Tick() int {
	c.mu.Lock()
	defer c.mu.Unlock()

	congested := c.samples > 0 && c.over*c.cfg.BadDen > c.samples*c.cfg.BadNum
	saturated := c.sheds > 0 || c.busyMax >= c.limit

	switch {
	case congested:
		next := c.limit / 2
		if next < c.cfg.Min {
			next = c.cfg.Min
		}
		if next != c.limit {
			c.limit = next
			c.stats.Decreases++
		}
	case saturated:
		next := c.limit + c.cfg.Step
		if next > c.cfg.Max {
			next = c.cfg.Max
		}
		if next != c.limit {
			c.limit = next
			c.stats.Increases++
		}
	}
	if c.limit < c.stats.LimitMin {
		c.stats.LimitMin = c.limit
	}
	if c.limit > c.stats.LimitMax {
		c.stats.LimitMax = c.limit
	}
	c.stats.Limit = c.limit
	c.samples, c.over, c.sheds, c.busyMax = 0, 0, 0, 0
	return c.limit
}

// Limit returns the current limit without closing the window.
func (c *AIMD) Limit() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.limit
}

// Interval returns the advisory tick cadence from the config.
func (c *AIMD) Interval() uint64 { return c.cfg.Interval }

// Stats returns the controller's trajectory so far.
func (c *AIMD) Stats() AIMDStats {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.stats
}
