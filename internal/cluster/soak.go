// The cluster soak: the serving tier's deterministic virtual-time
// simulation promoted to fleet scale, on the same discrete-event core
// (serve.Precompute, serve.Queue, serve.Tally; see internal/serve's
// des.go). One replay (traffic.go) models N backends, each with its
// own capacity, queue and breaker, behind a breaker-aware router, and
// takes its requests from either arrival process: closed-loop clients
// (serve.Clients), who may watch backends die at chosen virtual
// instants — a dead backend's machines migrate over the snap codec with
// re-seeded keys, its in-flight requests replay exactly once on the
// survivors, and each absorbed failover charges the cluster restart
// budget once — or an open-loop traffic.Model over a faulty mesh. This
// file holds the configuration (the serving soak's, plus the fleet's
// knobs), the report and the fleet it boots.
//
// Same seed and knobs in, byte-identical ClusterReport (and telemetry
// dump) out, regardless of worker-pool width; TestSoakGoldens pins it.

package cluster

import (
	"context"
	"fmt"
	"sort"

	"pacstack/internal/fault"
	"pacstack/internal/ir"
	"pacstack/internal/mesh"
	"pacstack/internal/resilience"
	"pacstack/internal/serve"
	"pacstack/internal/snap"
	"pacstack/internal/telemetry"
	"pacstack/internal/traffic"
)

// SoakConfig parameterises a cluster soak: the serving soak's config,
// read per backend, plus the fleet's own knobs. Time-valued knobs are in
// simulated cycles. Workers and Queue size each backend (Workers
// defaults to 2 here), Cores is each backend's core count, and the
// breaker knobs configure each backend's breaker (Threshold < 0
// disables them, and the router then sees every backend as closed).
// BootModel and Adaptive are the serving soak's alone: Soak refuses
// them.
type SoakConfig struct {
	serve.SoakConfig

	// Backends is the fleet width. Default 3.
	Backends int

	// Kills schedules any number of backend deaths at distinct virtual
	// instants — the cascading-failure scenario. Each absorbed kill
	// charges the failover budget once; kills beyond the budget (or
	// with no survivor left) abandon their orphans loudly (gave-up,
	// never silent). A kill whose victim is already dead is a no-op.
	Kills []KillSpec

	// MigrateLatency is the virtual-time cost of shipping the dead
	// backend's snapshots and replaying its orphaned requests on the
	// survivors. Default 5_000 cycles.
	MigrateLatency uint64

	// FailoverBudget is how many backend deaths the cluster will absorb
	// with migration + replay; deaths beyond it abandon the orphans
	// (accounted as gave-up — never silent). Default 1. It is charged
	// once per failover, not per machine or per replayed request.
	FailoverBudget int

	// The open-loop mesh mode's knobs (traffic.go), which require
	// Traffic; traffic mode and the kill schedule are mutually
	// exclusive. Mesh is the network fault model injected between
	// router and backends; Hedge enables hedged requests; RetryBudget
	// caps cluster-wide secondaries (retries + hedges) as a fraction
	// of primaries; Outlier enables gray-backend ejection; Brownout
	// enables priority brownout; VerticalAdaptive, when non-nil, runs
	// one AIMD instance per backend resizing its modelled core count.
	Mesh             *mesh.Config
	Hedge            bool
	RetryBudget      *resilience.RetryBudgetConfig
	Outlier          *OutlierConfig
	Brownout         *BrownoutConfig
	VerticalAdaptive *resilience.AIMDConfig
}

// withDefaults fills the fleet's defaults in, then the serving soak's.
func (c SoakConfig) withDefaults() SoakConfig {
	if c.Backends <= 0 {
		c.Backends = 3
	}
	if c.Workers <= 0 {
		c.Workers = 2
	}
	if c.MigrateLatency == 0 {
		c.MigrateLatency = 5_000
	}
	if c.FailoverBudget == 0 {
		c.FailoverBudget = 1
	}
	c.SoakConfig = c.SoakConfig.WithDefaults()
	return c
}

// KillSpec schedules one backend death in the soak.
type KillSpec struct {
	// At is the virtual instant of the death (must be non-zero).
	At uint64 `json:"at"`
	// Backend names the victim; negative draws one of the then-alive
	// backends from the seed.
	Backend int `json:"backend"`
}

// KillRow is one executed kill's accounting in the report.
type KillRow struct {
	At        uint64 `json:"at"`
	Backend   int    `json:"backend"`
	Absorbed  bool   `json:"absorbed"` // budget charged, machines migrated, orphans replayed
	Survivor  int    `json:"survivor"` // -1 when not absorbed
	Orphans   int    `json:"orphans"`
	Replayed  int    `json:"replayed"`
	Abandoned int    `json:"abandoned"`
}

// BackendRow is the per-backend breakdown: what the router sent it,
// what came back, and its failover traffic.
type BackendRow struct {
	Backend int `json:"backend"`
	Routed  int `json:"routed"`
	serve.Counts
	Sheds         int    `json:"sheds"`
	BreakerDenied int    `json:"breaker_denied"`
	Replayed      int    `json:"replayed"`
	BreakerOpens  uint64 `json:"breaker_opens"`
	MigratedIn    int    `json:"migrated_in"`
	MigratedOut   int    `json:"migrated_out"`
	Alive         bool   `json:"alive"`

	// Traffic-mode extensions (omitted in closed-loop reports).
	// Timeouts counts attempts the mesh ate on this backend's link;
	// Ejection is the outlier ejector's view; Cores/CoreStats are the
	// vertical scaler's final size and trajectory; ServiceP99 is the
	// backend's per-attempt service-duration p99.
	Timeouts   int                   `json:"timeouts,omitempty"`
	Ejection   *EjectionRow          `json:"ejection,omitempty"`
	Cores      int                   `json:"cores,omitempty"`
	CoreStats  *resilience.AIMDStats `json:"core_stats,omitempty"`
	ServiceP99 uint64                `json:"service_p99,omitempty"`
}

// ClusterReport is the deterministic end-of-run summary. For one seed
// and knob set it is byte-identical across runs, machines, and
// worker-pool widths.
type ClusterReport struct {
	Seed      int64    `json:"seed"`
	Workload  string   `json:"workload"`
	Schemes   []string `json:"schemes"`
	Backends  int      `json:"backends"`
	Clients   int      `json:"clients"`
	PerClient int      `json:"requests_per_client"`
	ChaosRate float64  `json:"chaos_rate"`
	Heal      int      `json:"heal"`

	KilledBackend int `json:"killed_backend"` // -1: nothing died (multi-kill: the last victim)

	// Kills is every executed kill in virtual-time order; Migrations
	// collects the absorbed kills' migration reports in the same order
	// (Migration keeps pointing at the first for compatibility).
	Kills      []KillRow          `json:"kills,omitempty"`
	Migrations []*MigrationReport `json:"migrations,omitempty"`

	serve.Tally

	// Failover accounting. OrphansExecuting/OrphansQueued is the dead
	// backend's in-flight split at the kill; Replayed of them were
	// re-issued on survivors (exactly once each), Abandoned were
	// terminally gave-up because the failover budget or the fleet was
	// exhausted. ReplayViolations counts requests that would have been
	// replayed twice — must be zero. BudgetCharged counts failovers
	// that consumed restart budget — exactly one per absorbed kill.
	OrphansExecuting    int              `json:"orphans_executing"`
	OrphansQueued       int              `json:"orphans_queued"`
	Replayed            int              `json:"replayed"`
	Abandoned           int              `json:"abandoned"`
	ReplayViolations    int              `json:"replay_violations"`
	BudgetCharged       int              `json:"budget_charged"`
	SharedKeyViolations int              `json:"shared_key_violations"`
	Migration           *MigrationReport `json:"migration,omitempty"`

	PerBackend []BackendRow    `json:"per_backend"`
	PerScheme  []serve.SoakRow `json:"per_scheme"`

	VirtualCycles uint64 `json:"virtual_cycles"`
	InFlightAtEnd int    `json:"in_flight_at_end"`

	// Traffic-mode extensions (omitted in closed-loop reports). The
	// resilience ledger: hedges launched and won, the §4.3 hedge-pair
	// key assertion (must be zero), what the mesh ate, attempts that
	// found an empty candidate set (the distinct no_backend outcome),
	// brownout admissions refused, the retry-budget accounting with
	// its proven amplification bound, and outlier ejections.
	Traffic            bool                         `json:"traffic,omitempty"`
	SLO                *traffic.SLOReport           `json:"slo,omitempty"`
	Hedges             int                          `json:"hedges,omitempty"`
	HedgeWins          int                          `json:"hedge_wins,omitempty"`
	HedgeKeyViolations int                          `json:"hedge_key_violations,omitempty"`
	LinkDrops          int                          `json:"link_drops,omitempty"`
	Timeouts           int                          `json:"timeouts,omitempty"`
	NoBackend          int                          `json:"no_backend,omitempty"`
	BrownedOut         int                          `json:"browned_out,omitempty"`
	BrownoutMaxLevel   int                          `json:"brownout_max_level,omitempty"`
	BudgetDenied       int                          `json:"budget_denied,omitempty"`
	Budget             *resilience.RetryBudgetStats `json:"retry_budget,omitempty"`
	BudgetBound        int                          `json:"retry_budget_bound,omitempty"`
	Ejections          int                          `json:"ejections,omitempty"`
}

// Graceful reports whether the run ended cleanly: every issued request
// reached exactly one terminal state and nothing was left in flight —
// the "no request lost" identity, now across a backend death.
func (r *ClusterReport) Graceful() bool {
	return r.InFlightAtEnd == 0 && r.OK+r.Detected+r.Silent+r.GaveUp == r.Issued
}

// Check enforces the failover acceptance criteria: a graceful run with
// zero silent losses, zero key-sharing across a migration, zero double
// replays, and — when a backend was killed and the fleet had budget —
// the budget charged exactly once. It returns nil when the run passes.
func (r *ClusterReport) Check() error {
	if !r.Graceful() {
		return fmt.Errorf("cluster: lost requests: issued %d, terminal %d, in flight %d",
			r.Issued, r.OK+r.Detected+r.Silent+r.GaveUp, r.InFlightAtEnd)
	}
	if r.Silent > 0 {
		return fmt.Errorf("cluster: %d silent corruption(s)", r.Silent)
	}
	if r.SharedKeyViolations > 0 {
		return fmt.Errorf("cluster: %d migrated machine(s) share keys with their dead incarnation", r.SharedKeyViolations)
	}
	if r.HedgeKeyViolations > 0 {
		return fmt.Errorf("cluster: %d hedge pair(s) share PA keys", r.HedgeKeyViolations)
	}
	if r.Budget != nil && r.Budget.Granted > r.BudgetBound {
		return fmt.Errorf("cluster: %d secondaries granted, over the retry-budget bound %d", r.Budget.Granted, r.BudgetBound)
	}
	if r.ReplayViolations > 0 {
		return fmt.Errorf("cluster: %d request(s) replayed more than once", r.ReplayViolations)
	}
	absorbed := 0
	for _, k := range r.Kills {
		if k.Absorbed {
			absorbed++
			if k.Replayed != k.Orphans {
				return fmt.Errorf("cluster: kill of backend %d absorbed but replayed %d of %d orphan(s)",
					k.Backend, k.Replayed, k.Orphans)
			}
		} else if k.Abandoned != k.Orphans {
			return fmt.Errorf("cluster: kill of backend %d unabsorbed but abandoned %d of %d orphan(s)",
				k.Backend, k.Abandoned, k.Orphans)
		}
	}
	if r.BudgetCharged != absorbed {
		return fmt.Errorf("cluster: %d absorbed kill(s) but budget charged %d time(s)", absorbed, r.BudgetCharged)
	}
	if r.KilledBackend >= 0 && len(r.Kills) == 0 {
		return fmt.Errorf("cluster: backend %d killed but no kill accounting", r.KilledBackend)
	}
	return nil
}

// Event kinds of the cluster replay. ID names the request, except for
// evKill (the kill's schedule index) and evTick (the controller);
// evDone, evHedge and evTimeout carry an attempt token in Gen.
const (
	evIssue   = iota // a request is (re)submitted
	evDone           // a backend finishes an attempt's execution
	evKill           // a scheduled backend death fires (closed loop)
	evTick           // a windowed controller closes a window (traffic mode)
	evHedge          // a primary's hedge deadline fires (traffic mode)
	evTimeout        // a mesh-dropped attempt's deadline fires (traffic mode)
)

// fleetBackend is one backend's replay state.
type fleetBackend struct {
	b     *Backend
	busy  int
	fifo  []int // queued attempt tokens
	cores int   // modelled core count (Workers in a closed-loop run)
	ctl   *resilience.AIMD
	svc   *telemetry.Histogram
	row   BackendRow
}

// bootFleet builds the soak's backends from real Backend objects: each
// with its own seeded kernel, a breaker unless disabled, and one
// resident machine per scheme (migration cargo, and the key domains the
// hedge check compares). The replay models execution capacity on top.
func bootFleet(cfg SoakConfig, prog *ir.Program, schemes []string) ([]*fleetBackend, error) {
	reg := cfg.Telemetry.Registry()
	transitions := reg.CounterVec("pacstack_cluster_breaker_transitions_total", "backend breaker state changes", "backend", "to")
	eng := fault.NewEngine(prog)
	var snapTel *snap.Telemetry
	if reg != nil {
		snapTel = snap.NewTelemetry(reg)
	}
	fleet := make([]*fleetBackend, cfg.Backends)
	for i := range fleet {
		b := NewBackend(i, cfg.Seed)
		b.SnapTel = snapTel
		if cfg.BreakerThreshold > 0 {
			b.Breaker = NewBackendBreaker(i, cfg.BreakerThreshold, cfg.BreakerCooldown, cfg.Seed, cfg.Telemetry, transitions)
		}
		for _, name := range uniqueSorted(schemes) {
			if _, err := b.BootMachine(eng, name); err != nil {
				return nil, err
			}
		}
		fleet[i] = &fleetBackend{b: b, row: BackendRow{Backend: i, Alive: true}}
	}
	return fleet, nil
}

// route ranks the candidate backends at now: breaker state first, then
// load (executing plus queued requests).
func route(router *Router, fleet []*fleetBackend, now uint64, candidates []int) []int {
	return router.Order(now, candidates, func(i int) resilience.BreakerState {
		if br := fleet[i].b.Breaker; br != nil {
			return br.State(now)
		}
		return resilience.BreakerClosed
	}, func(i int) int { return fleet[i].busy + len(fleet[i].fifo) })
}

// Soak runs the cluster simulation. ctx bounds the parallel precompute
// phase; the serial replay is fast and not cancellable.
func Soak(ctx context.Context, cfg SoakConfig) (*ClusterReport, error) {
	// Validate before defaulting, which fills Cores in.
	if cfg.Traffic != nil && len(cfg.Kills) > 0 {
		return nil, fmt.Errorf("cluster: traffic mode and the kill schedule are mutually exclusive")
	}
	switch {
	case cfg.BootModel != "":
		return nil, fmt.Errorf("cluster: a boot model applies to the serving soak only")
	case cfg.Adaptive != nil:
		return nil, fmt.Errorf("cluster: adaptive admission applies to the serving soak only")
	}
	for _, knob := range []struct {
		set  bool
		name string
	}{
		{cfg.Cores > 0, "a core count"}, {cfg.Mesh != nil, "mesh"}, {cfg.Hedge, "hedging"},
		{cfg.RetryBudget != nil, "retry budget"}, {cfg.Outlier != nil, "outlier ejection"},
		{cfg.Brownout != nil, "brownout"}, {cfg.VerticalAdaptive != nil, "vertical scaling"},
	} {
		if knob.set && cfg.Traffic == nil {
			return nil, fmt.Errorf("cluster: %s requires traffic mode", knob.name)
		}
	}
	return replay(ctx, cfg.withDefaults())
}

// uniqueSorted dedupes and sorts a name list.
func uniqueSorted(names []string) []string {
	seen := make(map[string]bool, len(names))
	var out []string
	for _, n := range names {
		if !seen[n] {
			seen[n] = true
			out = append(out, n)
		}
	}
	sort.Strings(out)
	return out
}
