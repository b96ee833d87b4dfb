// Deterministic soak: concurrent clients hammering the serving
// pipeline in virtual time (simulated cycles), on the discrete-event
// core in des.go. Outcomes are precomputed in parallel as pure
// functions of request identity; the traffic dynamics (queueing,
// shedding, breaker trips, client retry and backoff) replay serially in
// traffic.go, driving the same clock-free resilience state machines
// (resilience.Breaker, resilience.Backoff) the daemon uses, fed virtual
// time instead of nanoseconds. The replay takes its requests from one
// of two arrival processes: closed-loop clients issuing requests back
// to back with think time, or an open-loop traffic.Model.
//
// Same seed and knobs in, byte-identical SoakReport out, regardless of
// GOMAXPROCS or machine; TestSoakGoldens pins it.

package serve

import (
	"context"
	"fmt"

	"pacstack/internal/fault"
	"pacstack/internal/pool"
	"pacstack/internal/resilience"
	"pacstack/internal/telemetry"
	"pacstack/internal/traffic"
)

// SoakConfig parameterises a soak run. Time-valued knobs are in
// simulated cycles.
type SoakConfig struct {
	// Clients virtual clients each issue Requests requests
	// back-to-back (with think time), retrying on shed/breaker
	// rejections. Defaults 8 and 25.
	Clients  int
	Requests int

	// Workload and Schemes select what runs; requests round-robin
	// across the schemes per client. Defaults: "chain", ["pacstack"].
	Workload string
	Schemes  []string

	// Seed fixes everything; same seed, same report. Default 1.
	Seed int64

	// Chaos injection knobs, as in Config.
	ChaosRate  float64
	ChaosKinds []fault.Kind
	Heal       int

	// Checkpoint knobs, as in Config: CheckpointEvery switches
	// per-request crash-consistent snapshotting on, CheckpointCrash is
	// the seeded probability of a simulated machine death mid-commit
	// (the kill-a-kernel-mid-checkpoint soak dimension).
	CheckpointEvery uint64
	CheckpointCrash float64

	// Server model: Workers simultaneous executions, Queue waiters,
	// everything beyond shed. Defaults 4 and 8.
	Workers int
	Queue   int

	// Retries is the per-request client retry budget for *rejections*
	// (sheds, breaker denials); execution outcomes are terminal.
	// Default 3.
	Retries int

	// BreakerThreshold/BreakerCooldown configure the per-scheme
	// breaker in virtual time (defaults 8 / 50_000 cycles);
	// Threshold < 0 disables it.
	BreakerThreshold int
	BreakerCooldown  uint64

	// Telemetry, when non-nil, receives the soak's metrics and events,
	// stamped with virtual time (the Set's clocks are retargeted for
	// the duration of the run). The dump after a seeded soak is
	// byte-identical across runs and worker-pool widths: counters are
	// bumped from the parallel precompute phase (integer adds commute),
	// while every event is recorded from the serial virtual-time
	// replay.
	Telemetry *telemetry.Set

	// Traffic switches the soak into open-loop mode: instead of
	// Clients x Requests closed-loop clients, the model generates the
	// arrival stream (diurnal curve, bursts, heavy-tail class mixture,
	// slow clients, poison requests) and the report gains a per-class
	// SLO evaluation. Clients/Requests/Workload/Schemes are ignored
	// in this mode; everything else applies as usual.
	Traffic *traffic.Model

	// Cores models the host's physical parallelism in traffic mode:
	// service time is stretched by ceil(busy/Cores), so growing the
	// worker pool past Cores trades queueing delay for service-time
	// dilation instead of adding free capacity. Default: Workers.
	Cores int

	// BootModel selects how machine acquisition is charged in virtual
	// time. "" (the default) keeps the legacy model — acquisition is
	// free, so every pre-existing gate calibration is untouched.
	// "cold" charges every execution the modeled full-boot cost
	// (pool.ModelCosts: text encoding plus constructing every page);
	// "warm" serves the precompute phase from warm pools (Config.Warm)
	// and charges the modeled snapshot-restore cost (COW page remap).
	// Outcomes are identical across all three models — the pool's
	// Reset consumes the same entropy stream as a cold boot — so the
	// models differ only in virtual-time cost, which is what makes the
	// warm-vs-cold requests/virtual-second ratio a fair measurement.
	BootModel string

	// Adaptive, when non-nil, replaces the static Workers/Queue limits
	// in traffic mode with an AIMD controller that ticks every
	// Interval virtual cycles and resizes the worker limit (queue
	// follows at 2x the limit). The controller's congestion signal is
	// service-time dilation, not end-to-end latency (see traffic.go).
	// Zero fields default to: Start = Workers, Interval = 10_000,
	// LatencyTarget = 1_048_576.
	Adaptive *resilience.AIMDConfig
}

// WithDefaults fills the zero knobs in. The cluster soak sets its own
// fleet defaults first and then calls it.
func (c SoakConfig) WithDefaults() SoakConfig {
	if c.Clients <= 0 {
		c.Clients = 8
	}
	if c.Requests <= 0 {
		c.Requests = 25
	}
	if c.Workload == "" {
		c.Workload = "chain"
	}
	if len(c.Schemes) == 0 {
		c.Schemes = []string{"pacstack"}
	}
	if c.Seed == 0 {
		c.Seed = 1
	}
	if len(c.ChaosKinds) == 0 {
		c.ChaosKinds = []fault.Kind{fault.KindRetAddr, fault.KindStackSmash, fault.KindSigFrame}
	}
	if c.Workers <= 0 {
		c.Workers = 4
	}
	if c.Queue == 0 {
		c.Queue = 2 * c.Workers
	}
	if c.Queue < 0 {
		c.Queue = 0
	}
	if c.Retries == 0 {
		c.Retries = 3
	}
	if c.Retries < 0 {
		c.Retries = 0
	}
	if c.BreakerThreshold == 0 {
		c.BreakerThreshold = 8
	}
	if c.BreakerCooldown == 0 {
		c.BreakerCooldown = 50_000
	}
	if c.Cores <= 0 {
		c.Cores = c.Workers
	}
	return c
}

// validBootModel rejects anything but the three cost models.
func validBootModel(model string) error {
	switch model {
	case "", "cold", "warm":
		return nil
	}
	return fmt.Errorf("unknown boot model %q (want \"cold\", \"warm\" or empty)", model)
}

// rpvsMilli converts OK terminals over a virtual-cycle span into
// milli-requests per virtual second at the 1 GHz virtual clock.
func rpvsMilli(ok int, cycles uint64) uint64 {
	if cycles == 0 {
		return 0
	}
	return uint64(ok) * 1_000_000_000_000 / cycles
}

// bootCost resolves the machine-acquisition charge of one
// (workload, scheme) execution under the boot model: the full
// image-construction cost for "cold", the snapshot-restore cost for
// "warm", nothing under the legacy model.
func (s *Server) bootCost(model, workload, scheme string) (uint64, error) {
	if model == "" {
		return 0, nil
	}
	eng, err := s.engine(workload)
	if err != nil {
		return 0, err
	}
	sc, err := ParseScheme(scheme)
	if err != nil {
		return 0, err
	}
	img, err := eng.Image(sc)
	if err != nil {
		return 0, err
	}
	cold, warm := pool.ModelCosts(img)
	if model == "cold" {
		return cold, nil
	}
	return warm, nil
}

// SoakReport is the deterministic end-of-run summary. For one seed and
// knob set it is byte-identical across runs and machines.
type SoakReport struct {
	Seed      int64    `json:"seed"`
	Workload  string   `json:"workload"`
	Schemes   []string `json:"schemes"`
	Clients   int      `json:"clients"`
	PerClient int      `json:"requests_per_client"`
	ChaosRate float64  `json:"chaos_rate"`
	Heal      int      `json:"heal"`

	Tally
	BreakerOpens []SchemeCount `json:"breaker_opens,omitempty"`

	PerScheme []SoakRow `json:"per_scheme"`

	VirtualCycles uint64 `json:"virtual_cycles"`
	InFlightAtEnd int    `json:"in_flight_at_end"`

	// BootModel records the machine-acquisition cost model ("" legacy,
	// "cold", "warm"); RPVSMilli is the delivered goodput in
	// milli-requests per virtual second: OK terminals over the run's
	// virtual cycles at the 1 GHz virtual clock. The warm-vs-cold gate
	// is a ratio of this number at the same seed.
	BootModel string `json:"boot_model,omitempty"`
	RPVSMilli uint64 `json:"rpvs_milli"`

	// Warm-model pool traffic, read from the pool counters after the
	// precompute phase: restores served, leases refused by a capped
	// pool, and §4.3 image-key violations (must be zero).
	PoolRestores      uint64 `json:"pool_restores,omitempty"`
	PoolColdFallbacks uint64 `json:"pool_cold_fallbacks,omitempty"`
	PoolKeyViolations uint64 `json:"pool_key_violations,omitempty"`

	// Traffic marks an open-loop run; SLO is its per-class evaluation
	// (nil for closed-loop runs).
	Traffic bool               `json:"traffic,omitempty"`
	SLO     *traffic.SLOReport `json:"slo,omitempty"`
}

// Graceful reports whether the run ended cleanly: every issued request
// reached a terminal state and nothing was left in flight. The
// accounting identity OK+Detected+Silent+GaveUp == Issued is the "no
// request lost" check.
func (r *SoakReport) Graceful() bool {
	return r.InFlightAtEnd == 0 && r.OK+r.Detected+r.Silent+r.GaveUp == r.Issued
}

// Check enforces the soak's robustness criteria: no silent corruption
// and a graceful run. It returns nil when the run passes.
func (r *SoakReport) Check() error {
	if r.Silent != 0 {
		return fmt.Errorf("%d silent corruption(s)", r.Silent)
	}
	if !r.Graceful() {
		return fmt.Errorf("run not graceful (%d in flight, %d unaccounted)",
			r.InFlightAtEnd, r.Issued-(r.OK+r.Detected+r.Silent+r.GaveUp))
	}
	return nil
}

// Stream is a soak run's arrival process, which both tiers' replays
// take from their config.
type Stream struct {
	Arrivals []traffic.Arrival
	// Clients issues the arrivals closed-loop; nil for an open-loop run,
	// whose arrivals carry their own instants.
	Clients *Clients
	// Seed is request id's seed: from its (client, index) identity
	// closed-loop, from its arrival index open-loop.
	Seed func(id int) int64
	// Workload and Schemes are what the report names: the config's
	// closed-loop, "traffic" and the schemes that arrived open-loop.
	Workload string
	Schemes  []string
}

// Stream builds the arrival process of a defaulted config and checks
// every scheme it can run: the traffic model's open-loop stream, or
// Clients closed-loop clients of Requests requests each, round-robin
// over Schemes.
func (c SoakConfig) Stream() (Stream, error) {
	var st Stream
	schemes := c.Schemes
	if c.Traffic != nil {
		arrivals, err := c.Traffic.Generate()
		if err != nil {
			return st, err
		}
		if len(arrivals) == 0 {
			return st, fmt.Errorf("soak: traffic model generated no arrivals")
		}
		schemes = nil
		for _, cl := range c.Traffic.Classes {
			schemes = append(schemes, cl.Scheme)
		}
		st = Stream{Arrivals: arrivals, Seed: arrivalSeed(c.Seed), Workload: "traffic", Schemes: arrivalSchemes(arrivals)}
	} else {
		st.Clients = newClients(c.Seed, c.Clients, c.Requests)
		st.Arrivals = st.Clients.Arrivals(c.Workload, c.Schemes)
		st.Seed, st.Workload, st.Schemes = st.Clients.Seed, c.Workload, c.Schemes
	}
	for _, name := range schemes {
		if _, err := ParseScheme(name); err != nil {
			return Stream{}, err
		}
	}
	return st, nil
}

// Soak runs the simulation. ctx bounds the (parallel) precompute
// phase; the serial replay is fast and not cancellable.
func Soak(ctx context.Context, cfg SoakConfig) (*SoakReport, error) {
	if cfg.Traffic == nil {
		// The closed client loop models neither contention nor adaptive
		// admission: refuse their knobs instead of ignoring them.
		switch {
		case cfg.Cores > 0:
			return nil, fmt.Errorf("soak: a core count requires traffic mode")
		case cfg.Adaptive != nil:
			return nil, fmt.Errorf("soak: adaptive admission requires traffic mode")
		}
	}
	cfg = cfg.WithDefaults()
	st, err := cfg.Stream()
	if err != nil {
		return nil, err
	}
	if err := validBootModel(cfg.BootModel); err != nil {
		return nil, err
	}
	rep := &SoakReport{
		Seed: cfg.Seed, Workload: st.Workload, Schemes: st.Schemes, ChaosRate: cfg.ChaosRate, Heal: cfg.Heal,
		BootModel: cfg.BootModel, Traffic: cfg.Traffic != nil,
	}
	if st.Clients != nil {
		rep.Clients, rep.PerClient = cfg.Clients, cfg.Requests
	}
	if err := replay(ctx, cfg, rep, st); err != nil {
		return nil, err
	}
	return rep, nil
}
