package resilience

import "sync"

// RetryBudget is a token-bucket cap on retry (and hedge) traffic as a
// fraction of primary traffic — the mechanism that keeps a retry storm
// from amplifying an overload into a bigger overload. Every primary
// request earns Num/Den of a token; every secondary attempt (a client
// retry after a rejection, or a hedged duplicate) spends one whole
// token. The bucket starts with Burst tokens and never holds more, so
// a quiet period cannot bank unlimited retry credit.
//
// The arithmetic is integer-exact: the bucket stores micro-tokens in
// units of 1/Den, so earn (+Num) and spend (-Den) never round and the
// same request sequence yields the same grant sequence on every
// machine — the determinism the soak's byte-identity gates rest on.
// Like the rest of the package it is clock-free: time never enters the
// refill, only primary traffic does, which is exactly the "retries as
// a fraction of primaries" contract.
//
// The budget is deliberately a single cluster-global instance rather
// than per backend: a hedge that fails over from backend A to backend
// B is load on the *cluster*, and per-backend buckets would let a
// request storm rotate through the fleet spending a fresh budget at
// each stop.
type RetryBudget struct {
	cfg RetryBudgetConfig

	mu    sync.Mutex
	micro int // bucket level in 1/Den tokens
	stats RetryBudgetStats
}

// RetryBudgetConfig parameterises a RetryBudget. The zero value of a
// field gets a sane default from NewRetryBudget.
type RetryBudgetConfig struct {
	// Num/Den is the earned fraction: each primary earns Num/Den of a
	// token. Defaults 1/10 (retries+hedges capped at 10% of primaries).
	Num int `json:"num"`
	Den int `json:"den"`
	// Burst is the bucket capacity in whole tokens, and the initial
	// level — the slack that lets the first few secondaries through
	// before any primary has earned credit. Default 10.
	Burst int `json:"burst"`
}

// RetryBudgetStats is the budget's accounting for reports.
type RetryBudgetStats struct {
	Primaries int `json:"primaries"` // earn events
	Granted   int `json:"granted"`   // secondaries allowed
	Denied    int `json:"denied"`    // secondaries refused
}

// NewRetryBudget returns a budget holding Burst tokens.
func NewRetryBudget(cfg RetryBudgetConfig) *RetryBudget {
	if cfg.Den <= 0 {
		cfg.Num, cfg.Den = 1, 10
	}
	if cfg.Num < 0 {
		cfg.Num = 0
	}
	if cfg.Burst <= 0 {
		cfg.Burst = 10
	}
	return &RetryBudget{cfg: cfg, micro: cfg.Burst * cfg.Den}
}

// Earn credits one primary request's fraction of a token, clamped to
// the burst capacity.
func (b *RetryBudget) Earn() {
	b.mu.Lock()
	b.stats.Primaries++
	b.micro += b.cfg.Num
	if max := b.cfg.Burst * b.cfg.Den; b.micro > max {
		b.micro = max
	}
	b.mu.Unlock()
}

// Spend tries to charge one whole token for a secondary attempt
// (retry or hedge). It reports whether the attempt may proceed.
func (b *RetryBudget) Spend() bool {
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.micro < b.cfg.Den {
		b.stats.Denied++
		return false
	}
	b.micro -= b.cfg.Den
	b.stats.Granted++
	return true
}

// Stats returns the budget's accounting so far.
func (b *RetryBudget) Stats() RetryBudgetStats {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.stats
}

// Bound is the hard ceiling on secondaries the budget can ever have
// granted after p primaries: p*Num/Den earned plus the initial burst.
// Reports use it to prove amplification stayed within the configured
// budget.
func (b *RetryBudget) Bound(primaries int) int {
	return primaries*b.cfg.Num/b.cfg.Den + b.cfg.Burst
}

// Config returns the (defaulted) configuration.
func (b *RetryBudget) Config() RetryBudgetConfig { return b.cfg }
