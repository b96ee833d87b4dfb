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
	// Default 3. BackoffBase/BackoffCap shape the retry delays
	// (defaults 2_000 / 64_000 cycles).
	Retries     int
	BackoffBase uint64
	BackoffCap  uint64

	// BreakerThreshold/BreakerCooldown configure the per-scheme
	// breaker in virtual time (defaults 8 / 50_000 cycles);
	// Threshold < 0 disables it.
	BreakerThreshold int
	BreakerCooldown  uint64

	// Think is the mean inter-request think time per client; Overhead
	// is fixed per-execution service latency added to the victim's
	// simulated cycles. Defaults 1_000 and 500.
	Think    uint64
	Overhead uint64

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
	// SLO evaluation. Clients/Requests/Workload/Schemes/Think are
	// ignored in this mode; everything else applies as usual.
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

func (c SoakConfig) withDefaults() SoakConfig {
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
	if c.BackoffBase == 0 {
		c.BackoffBase = 2_000
	}
	if c.BackoffCap == 0 {
		c.BackoffCap = 64_000
	}
	if c.BreakerThreshold == 0 {
		c.BreakerThreshold = 8
	}
	if c.BreakerCooldown == 0 {
		c.BreakerCooldown = 50_000
	}
	if c.Think == 0 {
		c.Think = 1_000
	}
	if c.Overhead == 0 {
		c.Overhead = 500
	}
	if c.Traffic == nil {
		// Closed-loop clients see no contention and no controller.
		c.Cores, c.Adaptive = 0, nil
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

// Soak runs the simulation. ctx bounds the (parallel) precompute
// phase; the serial replay is fast and not cancellable.
func Soak(ctx context.Context, cfg SoakConfig) (*SoakReport, error) {
	cfg = cfg.withDefaults()
	rep := &SoakReport{
		Seed: cfg.Seed, ChaosRate: cfg.ChaosRate, Heal: cfg.Heal,
		BootModel: cfg.BootModel, Traffic: cfg.Traffic != nil,
	}
	var arrivals []traffic.Arrival
	var clients *Clients
	schemes := cfg.Schemes
	if cfg.Traffic != nil {
		var err error
		if arrivals, err = cfg.Traffic.Generate(); err != nil {
			return nil, err
		}
		if len(arrivals) == 0 {
			return nil, fmt.Errorf("soak: traffic model generated no arrivals")
		}
		schemes = nil
		for _, c := range cfg.Traffic.Classes {
			schemes = append(schemes, c.Scheme)
		}
		rep.Workload, rep.Schemes = "traffic", ArrivalSchemes(arrivals)
	} else {
		clients = NewClients(cfg.Seed, cfg.Clients, cfg.Requests, cfg.Think)
		arrivals = clients.Arrivals(cfg.Workload, cfg.Schemes)
		rep.Workload, rep.Schemes = cfg.Workload, cfg.Schemes
		rep.Clients, rep.PerClient = cfg.Clients, cfg.Requests
	}
	for _, name := range schemes {
		if _, err := ParseScheme(name); err != nil {
			return nil, err
		}
	}
	if err := validBootModel(cfg.BootModel); err != nil {
		return nil, err
	}
	if err := replay(ctx, cfg, rep, arrivals, clients); err != nil {
		return nil, err
	}
	return rep, nil
}
