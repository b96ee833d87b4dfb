// Package traffic is the seeded workload model for the soak DES: a
// deterministic generator of production-shaped request streams —
// diurnal load curves, Poisson burst overlays, and a heavy-tailed
// per-request cost mixture spanning the "chain" micro-workload (~4k
// simulated cycles), the SPEC-calibrated profiles (~400k) and the
// NGINX TLS handshake tree (~690k) in one stream — plus the hostile
// classes a uniform soak never exercises: slow clients that hold a
// worker slot while trickling virtual time, and poison requests that
// are guaranteed to kill their victim and exercise the fault/respawn
// path.
//
// Everything is a pure function of (Model, Seed): arrivals come from
// one seeded nonhomogeneous-Poisson thinning pass, so the same model
// yields the same stream byte-for-byte on any machine and at any
// worker-pool width. The diurnal curve is a triangle wave rather than
// a sine on purpose — it needs no math.Sin, whose implementation is
// architecture-dependent assembly on some ports, and bit-stable
// arrivals are what the soak goldens rest on.
//
// The package also owns SLO evaluation (slo.go): per-class latency
// histograms recorded into the shared telemetry registry, quantiles
// and shed/error budgets checked against per-class targets, and a
// deterministic SLOReport the serve/cluster soaks embed in their
// reports.
package traffic

import (
	"fmt"
	"math/rand"
)

// Burst is one rate-multiplier overlay: while now is in [At, At+Dur)
// the instantaneous arrival rate is multiplied by Factor. Overlapping
// bursts compound.
type Burst struct {
	At     uint64  `json:"at"`
	Dur    uint64  `json:"dur"`
	Factor float64 `json:"factor"`
}

// Class is one request class in the mixture.
type Class struct {
	Name string `json:"name"`

	// Workloads is the set of workload names this class draws from,
	// uniformly per arrival (seeded). All names must resolve in the
	// serving catalog (serve.ResolveProgram).
	Workloads []string `json:"workloads"`

	// Scheme is the hardening scheme requests of this class run under
	// (default "pacstack").
	Scheme string `json:"scheme,omitempty"`

	// Weight is the class's relative share of the mixture (any
	// positive scale; weights are normalized).
	Weight float64 `json:"weight"`

	// Priority orders classes for brownout shedding: 0 is the most
	// important tier, higher numbers shed first. Classes sharing a
	// priority shed together.
	Priority int `json:"priority,omitempty"`

	// Slow multiplies the class's service time: a slow client holds
	// its worker slot Slow times longer while trickling virtual time.
	// 0 and 1 both mean "normal".
	Slow uint64 `json:"slow_factor,omitempty"`

	// Poison marks guaranteed-kill requests: the soak executes them
	// with chaos probability 1, so every attempt dies and the
	// supervised respawn path (restart budget included) is exercised
	// under load.
	Poison bool `json:"poison,omitempty"`

	// SLO is the class's service-level objective.
	SLO SLO `json:"slo"`
}

// Model is a complete traffic description. Generate turns it into an
// arrival stream.
type Model struct {
	// Horizon bounds arrival times to [0, Horizon) virtual cycles.
	Horizon uint64 `json:"horizon"`

	// Rate is the base arrival rate in arrivals per 1000 virtual
	// cycles, before the diurnal curve and burst overlays scale it.
	Rate float64 `json:"rate_per_kcycle"`

	// Diurnal is the triangle-wave amplitude in [0, 1): the
	// instantaneous rate swings between Rate*(1-Diurnal) and
	// Rate*(1+Diurnal) over each Period.
	Diurnal float64 `json:"diurnal,omitempty"`
	Period  uint64  `json:"period,omitempty"`

	Bursts  []Burst `json:"bursts,omitempty"`
	Classes []Class `json:"classes"`

	// Seed fixes the generator; same model+seed, same stream.
	Seed int64 `json:"seed"`
}

// Arrival is one generated request.
type Arrival struct {
	At       uint64 // virtual cycle
	Class    int    // index into Model.Classes
	Workload string
	Scheme   string
	Slow     uint64 // resolved service-time multiplier, >= 1
	Poison   bool
}

// Validate checks the model's shape.
func (m *Model) Validate() error {
	if m.Horizon == 0 {
		return fmt.Errorf("traffic: horizon must be positive")
	}
	if m.Rate <= 0 {
		return fmt.Errorf("traffic: rate must be positive")
	}
	if m.Diurnal < 0 || m.Diurnal >= 1 {
		return fmt.Errorf("traffic: diurnal amplitude %v outside [0, 1)", m.Diurnal)
	}
	if m.Diurnal > 0 && m.Period == 0 {
		return fmt.Errorf("traffic: diurnal amplitude without a period")
	}
	if len(m.Classes) == 0 {
		return fmt.Errorf("traffic: at least one class required")
	}
	seen := map[string]bool{}
	for i, c := range m.Classes {
		if c.Name == "" {
			return fmt.Errorf("traffic: class %d has no name", i)
		}
		if seen[c.Name] {
			return fmt.Errorf("traffic: duplicate class %q", c.Name)
		}
		seen[c.Name] = true
		if len(c.Workloads) == 0 {
			return fmt.Errorf("traffic: class %q has no workloads", c.Name)
		}
		if c.Weight <= 0 {
			return fmt.Errorf("traffic: class %q weight must be positive", c.Name)
		}
	}
	for i, b := range m.Bursts {
		if b.Factor <= 0 || b.Dur == 0 {
			return fmt.Errorf("traffic: burst %d needs positive factor and duration", i)
		}
	}
	return nil
}

// tri is a [-1, 1] triangle wave over one period, starting at 0 and
// rising (peak at period/4, trough at 3*period/4) — the deterministic
// stand-in for a sine.
func tri(phase, period uint64) float64 {
	q := float64(phase) / float64(period)
	switch {
	case q < 0.25:
		return 4 * q
	case q < 0.75:
		return 2 - 4*q
	default:
		return 4*q - 4
	}
}

// factorAt returns the combined diurnal x burst rate multiplier at t.
func (m *Model) factorAt(t uint64) float64 {
	f := 1.0
	if m.Diurnal > 0 && m.Period > 0 {
		f += m.Diurnal * tri(t%m.Period, m.Period)
	}
	for _, b := range m.Bursts {
		if t >= b.At && t-b.At < b.Dur {
			f *= b.Factor
		}
	}
	return f
}

// RateAt returns the instantaneous arrival rate (per cycle) at t.
func (m *Model) RateAt(t uint64) float64 {
	return m.Rate / 1000 * m.factorAt(t)
}

// Generate produces the arrival stream by thinning a homogeneous
// Poisson process at the model's peak rate: candidate arrivals are
// drawn at rateMax and kept with probability rate(t)/rateMax — the
// standard exact simulation of a nonhomogeneous Poisson process, one
// rng, fully order-deterministic. Arrivals come back sorted by time.
func (m *Model) Generate() ([]Arrival, error) {
	if err := m.Validate(); err != nil {
		return nil, err
	}
	maxF := 1 + m.Diurnal
	for _, b := range m.Bursts {
		if b.Factor > 1 {
			maxF *= b.Factor // over-provisioning rateMax keeps thinning exact for overlaps
		}
	}
	rateMax := m.Rate / 1000 * maxF

	var cum []float64
	var totalW float64
	for _, c := range m.Classes {
		totalW += c.Weight
		cum = append(cum, totalW)
	}

	rng := rand.New(rand.NewSource(m.Seed))
	var out []Arrival
	t := 0.0
	for {
		t += rng.ExpFloat64() / rateMax
		if t >= float64(m.Horizon) {
			break
		}
		at := uint64(t)
		if rng.Float64()*rateMax > m.RateAt(at) {
			continue // thinned away
		}
		draw := rng.Float64() * totalW
		ci := 0
		for ci < len(cum)-1 && draw >= cum[ci] {
			ci++
		}
		c := &m.Classes[ci]
		slow := c.Slow
		if slow < 1 {
			slow = 1
		}
		scheme := c.Scheme
		if scheme == "" {
			scheme = "pacstack"
		}
		out = append(out, Arrival{
			At:       at,
			Class:    ci,
			Workload: c.Workloads[rng.Intn(len(c.Workloads))],
			Scheme:   scheme,
			Slow:     slow,
			Poison:   c.Poison,
		})
	}
	return out, nil
}
