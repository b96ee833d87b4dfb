// The cluster soak: the serving tier's deterministic virtual-time
// simulation promoted to fleet scale, on the same discrete-event core
// (serve.Precompute, serve.Queue, serve.Tally; see internal/serve's
// des.go). Closed-loop clients (serve.Clients) drive a replay that
// models N backends, each with its own capacity, queue and breaker; a
// breaker-aware router; and, at chosen virtual instants, the death of
// backends mid-soak: a dead backend's machines migrate over the snap
// codec with re-seeded keys, its in-flight requests replay exactly once
// on the survivors, and each absorbed failover charges the cluster
// restart budget once. Same-instant issues are admitted as one batch
// through the breakers' GrantProbes. The open-loop mesh soak
// (traffic.go) is the cluster's second replay.
//
// Same seed and knobs in, byte-identical ClusterReport (and telemetry
// dump) out, regardless of worker-pool width; TestSoakGoldens pins it.

package cluster

import (
	"context"
	"fmt"
	"math/rand"
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

// SoakConfig parameterises a cluster soak. Time-valued knobs are in
// simulated cycles.
type SoakConfig struct {
	// Backends is the fleet width. Default 3.
	Backends int

	// Clients virtual clients each issue Requests requests with think
	// time, retrying on rejections. Defaults 8 and 25.
	Clients  int
	Requests int

	// Workload and Schemes select what runs; requests round-robin
	// across the schemes per client. Defaults: "chain", ["pacstack"].
	Workload string
	Schemes  []string

	// Seed fixes everything; same seed, same report. Default 1.
	Seed int64

	// Chaos injection knobs, as in serve.Config.
	ChaosRate  float64
	ChaosKinds []fault.Kind
	Heal       int

	// Checkpoint knobs, as in serve.Config.
	CheckpointEvery uint64
	CheckpointCrash float64

	// Per-backend capacity model: Workers simultaneous executions,
	// Queue waiters, arrivals beyond that shed. Defaults 2 and 4.
	Workers int
	Queue   int

	// Retries is the per-request client budget for rejections (sheds,
	// breaker denials); execution outcomes are terminal. Default 3.
	// BackoffBase/BackoffCap shape retry delays (defaults 2_000 /
	// 64_000 cycles).
	Retries     int
	BackoffBase uint64
	BackoffCap  uint64

	// BreakerThreshold/BreakerCooldown configure each backend's breaker
	// (defaults 8 / 50_000 cycles); Threshold < 0 disables them (the
	// router then sees every backend as closed).
	BreakerThreshold int
	BreakerCooldown  uint64

	// Think is the mean inter-request think time per client; Overhead
	// is fixed per-execution service latency. Defaults 1_000 and 500.
	Think    uint64
	Overhead uint64

	// KillAt, when non-zero, kills one backend at that virtual instant:
	// the kill-a-backend-mid-soak scenario. KillBackend names the
	// victim; any negative value draws it from the seed (0 means
	// backend 0). For cascading multi-kill scenarios use Kills; a
	// non-zero KillAt is folded in as one more entry.
	KillAt      uint64
	KillBackend int

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

	// Telemetry, when non-nil, receives metrics and events stamped with
	// virtual time; the dump is byte-identical across runs and widths.
	Telemetry *telemetry.Set

	// Traffic switches the soak into the open-loop mesh mode
	// (traffic.go): a traffic model generates the arrival stream and
	// the knobs below become meaningful. Traffic mode and the kill
	// schedule are mutually exclusive.
	Traffic *traffic.Model

	// Cores models each backend's core count for the contention model
	// (traffic mode). Default Workers.
	Cores int

	// Mesh is the network fault model injected between router and
	// backends (traffic mode only).
	Mesh *mesh.Config

	// DropTimeout is how long (virtual cycles) the sender waits on a
	// mesh-dropped message before declaring the attempt lost. Default
	// 64_000.
	DropTimeout uint64

	// Hedge enables hedged requests (traffic mode only).
	Hedge *HedgeConfig

	// RetryBudget caps cluster-wide secondaries (retries + hedges) as
	// a fraction of primaries (traffic mode only).
	RetryBudget *resilience.RetryBudgetConfig

	// Outlier enables gray-backend ejection (traffic mode only).
	Outlier *OutlierConfig

	// Brownout enables priority brownout (traffic mode only).
	Brownout *BrownoutConfig

	// VerticalAdaptive, when non-nil, runs one AIMD instance per
	// backend resizing its modelled core count (traffic mode only).
	VerticalAdaptive *resilience.AIMDConfig
}

func (c SoakConfig) withDefaults() SoakConfig {
	if c.Backends <= 0 {
		c.Backends = 3
	}
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
		c.Workers = 2
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
	if c.MigrateLatency == 0 {
		c.MigrateLatency = 5_000
	}
	if c.FailoverBudget == 0 {
		c.FailoverBudget = 1
	}
	if c.DropTimeout == 0 {
		c.DropTimeout = 64_000
	}
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

	KillAt        uint64 `json:"kill_at,omitempty"`
	KilledBackend int    `json:"killed_backend"` // -1: nothing died (multi-kill: the last victim)

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

// Event kinds of the two cluster replays.
const (
	evIssue   = iota // a request is (re)submitted
	evDone           // a backend finishes an execution
	evKill           // a scheduled backend death fires
	evTick           // a windowed controller closes a window (traffic mode)
	evHedge          // a primary's hedge deadline fires (traffic mode)
	evTimeout        // a mesh-dropped attempt's deadline fires (traffic mode)
)

// fleetBackend is one backend's replay state.
type fleetBackend struct {
	b     *Backend
	busy  int
	fifo  []int // queued request ids; attempt tokens in traffic mode
	cores int   // modelled core count (traffic mode)
	ctl   *resilience.AIMD
	svc   *telemetry.Histogram
	row   BackendRow
}

// bootFleet builds the soak's backends from real Backend objects: each
// with its own seeded kernel, a breaker unless disabled, and one
// resident machine per scheme (migration cargo, and the key domains the
// hedge check compares). The replays model execution capacity on top.
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

// precompute runs serve.Precompute with the soak's chaos, heal,
// checkpoint and telemetry knobs. Request identity fixes each seed;
// which backend ends up executing a request is a routing fact, not an
// entropy source, which is why a migrated or hedged request can run
// elsewhere and still produce the same answer.
func precompute(ctx context.Context, cfg SoakConfig, arrivals []traffic.Arrival, seed func(int) int64) ([]serve.Outcome, error) {
	outcomes, _, err := serve.Precompute(ctx, serve.Config{
		Seed:            cfg.Seed,
		Chaos:           cfg.ChaosRate > 0,
		ChaosRate:       cfg.ChaosRate,
		ChaosKinds:      cfg.ChaosKinds,
		Heal:            cfg.Heal,
		CheckpointEvery: cfg.CheckpointEvery,
		CheckpointCrash: cfg.CheckpointCrash,
		Telemetry:       cfg.Telemetry,
	}, arrivals, seed)
	return outcomes, err
}

// Soak runs the cluster simulation. ctx bounds the parallel precompute
// phase; the serial replay is fast and not cancellable.
func Soak(ctx context.Context, cfg SoakConfig) (*ClusterReport, error) {
	cfg = cfg.withDefaults()
	if cfg.Traffic == nil {
		switch {
		case cfg.Mesh != nil:
			return nil, fmt.Errorf("cluster: mesh requires traffic mode")
		case cfg.Hedge != nil:
			return nil, fmt.Errorf("cluster: hedging requires traffic mode")
		case cfg.RetryBudget != nil:
			return nil, fmt.Errorf("cluster: retry budget requires traffic mode")
		case cfg.Outlier != nil:
			return nil, fmt.Errorf("cluster: outlier ejection requires traffic mode")
		case cfg.Brownout != nil:
			return nil, fmt.Errorf("cluster: brownout requires traffic mode")
		case cfg.VerticalAdaptive != nil:
			return nil, fmt.Errorf("cluster: vertical scaling requires traffic mode")
		}
	} else {
		if cfg.KillAt > 0 || len(cfg.Kills) > 0 {
			return nil, fmt.Errorf("cluster: traffic mode and the kill schedule are mutually exclusive")
		}
		return soakClusterTraffic(ctx, cfg)
	}
	for _, name := range cfg.Schemes {
		if _, err := serve.ParseScheme(name); err != nil {
			return nil, err
		}
	}
	prog, err := serve.ResolveProgram(cfg.Workload, nil)
	if err != nil {
		return nil, err
	}
	// Fold the legacy single-kill knobs into the kill schedule and
	// validate it.
	kills := append([]KillSpec(nil), cfg.Kills...)
	if cfg.KillAt > 0 {
		kills = append(kills, KillSpec{At: cfg.KillAt, Backend: cfg.KillBackend})
	}
	for _, k := range kills {
		if k.At == 0 {
			return nil, fmt.Errorf("cluster: kill at virtual instant 0")
		}
		if k.Backend >= cfg.Backends {
			return nil, fmt.Errorf("cluster: kill backend %d out of range (fleet of %d)", k.Backend, cfg.Backends)
		}
	}
	sort.SliceStable(kills, func(i, j int) bool { return kills[i].At < kills[j].At })

	q := &serve.Queue{}
	q.Stamp(cfg.Telemetry)
	reg := cfg.Telemetry.Registry()
	tlog := cfg.Telemetry.Log()
	routedVec := reg.CounterVec("pacstack_cluster_routed_total", "requests admitted per backend", "backend")
	shedsVec := reg.CounterVec("pacstack_cluster_sheds_total", "arrivals shed per backend (queue full)", "backend")
	deniedVec := reg.CounterVec("pacstack_cluster_breaker_denied_total", "arrivals denied per backend breaker", "backend")
	replayedVec := reg.CounterVec("pacstack_cluster_replayed_total", "orphaned requests replayed per adopting backend", "backend")
	migrationsVec := reg.CounterVec("pacstack_cluster_migrations_total", "machine migrations per backend", "backend", "direction")
	migrateBytes := reg.Counter("pacstack_cluster_migrate_bytes_total", "snapshot image bytes shipped in failovers")
	failovers := reg.Counter("pacstack_cluster_failovers_total", "backend deaths absorbed by migration and replay")
	budgetCharges := reg.Counter("pacstack_cluster_budget_charges_total", "failover restart-budget charges")
	clRetries := reg.Counter("pacstack_cluster_retries_total", "client retries after a rejection")
	clGaveUp := reg.Counter("pacstack_cluster_gave_up_total", "requests abandoned after the retry budget")

	backends, err := bootFleet(cfg, prog, cfg.Schemes)
	if err != nil {
		return nil, err
	}
	router := NewRouter(cfg.Seed)
	clients := serve.NewClients(cfg.Seed, cfg.Clients, cfg.Requests, cfg.Think)
	arrivals := clients.Arrivals(cfg.Workload, cfg.Schemes)
	outcomes, err := precompute(ctx, cfg, arrivals, clients.Seed)
	if err != nil {
		return nil, err
	}

	rep := &ClusterReport{
		Seed: cfg.Seed, Workload: cfg.Workload, Schemes: cfg.Schemes,
		Backends: cfg.Backends, Clients: cfg.Clients, PerClient: cfg.Requests,
		ChaosRate: cfg.ChaosRate, Heal: cfg.Heal,
		KillAt: cfg.KillAt, KilledBackend: -1,
	}
	backoffs := serve.NewBackoffs(cfg.Seed, cfg.BackoffBase, cfg.BackoffCap, clients)

	// Per-request replay state: gen invalidates an orphaned request's
	// pending evDone; execOn tracks which backend is executing it;
	// replayed enforces exactly-once failover replay.
	total := len(arrivals)
	gen := make([]int, total)
	execOn := make([]int, total)
	for i := range execOn {
		execOn[i] = -1
	}
	replayed := make([]bool, total)

	aliveList := func() []int {
		var out []int
		for i, d := range backends {
			if d.row.Alive {
				out = append(out, i)
			}
		}
		return out
	}

	startService := func(bk, id int) {
		backends[bk].busy++
		execOn[id] = bk
		q.Push(serve.Event{At: q.Now() + cfg.Overhead + outcomes[id].Cycles, Kind: evDone, ID: id, Backend: bk, Gen: gen[id]})
	}
	admit := func(bk, id int) bool {
		d := backends[bk]
		d.row.Routed++
		routedVec.With(fmt.Sprint(bk)).Inc()
		if d.busy < cfg.Workers {
			startService(bk, id)
			return true
		}
		if len(d.fifo) < cfg.Queue {
			d.fifo = append(d.fifo, id)
			return true
		}
		d.row.Routed-- // it never landed
		d.row.Sheds++
		rep.Sheds++
		shedsVec.With(fmt.Sprint(bk)).Inc()
		tlog.Record(telemetry.EvShed, arrivals[id].Scheme, fmt.Sprintf("backend-%d queue full", bk), q.Now())
		return false
	}
	retryOrGiveUp := func(id, attempt int) {
		scheme := arrivals[id].Scheme
		if attempt >= cfg.Retries {
			rep.GiveUp(scheme)
			clGaveUp.Inc()
			clients.Next(q, evIssue, id)
			return
		}
		rep.Retries++
		clRetries.Inc()
		tlog.Record(telemetry.EvRetry, scheme, "", uint64(attempt+1))
		q.Push(serve.Event{At: q.Now() + backoffs.Delay(id, attempt), Kind: evIssue, ID: id, Attempt: attempt + 1})
	}
	// abandon terminally gives up an orphan whose failover could not be
	// absorbed (budget exhausted or fleet empty): accounted, never
	// silent, never lost.
	abandon := func(id int) {
		rep.GiveUp(arrivals[id].Scheme)
		rep.Abandoned++
		clGaveUp.Inc()
		tlog.Record(telemetry.EvRequestDone, arrivals[id].Scheme, "abandoned:failover-budget", q.Now())
		clients.Next(q, evIssue, id)
	}

	// resolveBatch routes one same-instant batch of issues: every
	// request gets its own preference order from the router (the rotor
	// advances per decision, spreading load among equals), the batch is
	// grouped by chosen backend, and each group is admitted through
	// GrantProbes — the seeded arbitration of racing probe candidates.
	resolveBatch := func(batch []serve.Event) {
		alive := aliveList()
		groups := make(map[int][]serve.Event)
		var groupOrder []int
		for _, e := range batch {
			order := route(router, backends, q.Now(), alive)
			if len(order) == 0 {
				// No fleet left: the request can never execute.
				retryOrGiveUp(e.ID, cfg.Retries)
				continue
			}
			bk := order[0]
			if _, ok := groups[bk]; !ok {
				groupOrder = append(groupOrder, bk)
			}
			groups[bk] = append(groups[bk], e)
		}
		sort.Ints(groupOrder)
		for _, bk := range groupOrder {
			group := groups[bk]
			ids := make([]uint64, len(group))
			byID := make(map[uint64]serve.Event, len(group))
			for i, e := range group {
				ids[i] = uint64(e.ID)
				byID[uint64(e.ID)] = e
			}
			granted := ids
			if br := backends[bk].b.Breaker; br != nil {
				granted = br.GrantProbes(q.Now(), ids)
			}
			grantedSet := make(map[uint64]bool, len(granted))
			for _, id := range granted {
				grantedSet[id] = true
			}
			// Winners are admitted in the seeded grant order; losers of
			// the probe race are breaker-denied and fall back to the
			// client retry path.
			for _, id := range granted {
				if e := byID[id]; !admit(bk, e.ID) {
					retryOrGiveUp(e.ID, e.Attempt)
				}
			}
			for _, e := range group {
				if grantedSet[uint64(e.ID)] {
					continue
				}
				backends[bk].row.BreakerDenied++
				rep.BreakerDenied++
				deniedVec.With(fmt.Sprint(bk)).Inc()
				retryOrGiveUp(e.ID, e.Attempt)
			}
		}
	}

	// kill executes one scheduled backend death now. Each absorbed kill
	// charges the budget once; a kill past the budget (or with no
	// survivor) abandons its orphans loudly. Re-orphaning is legal — a
	// request replayed after one kill can land on a backend the next
	// kill takes down, and it replays again — but within one kill every
	// orphan replays exactly once.
	killRNG := rand.New(rand.NewSource(serve.Mix(cfg.Seed, 0xdead)))
	kill := func(spec KillSpec) error {
		now := q.Now()
		kb := spec.Backend
		if kb < 0 {
			alive := aliveList()
			if len(alive) == 0 {
				return nil
			}
			kb = alive[killRNG.Intn(len(alive))]
		}
		d := backends[kb]
		if !d.row.Alive {
			return nil
		}
		d.row.Alive = false
		d.b.Kill()
		rep.KilledBackend = kb
		krow := KillRow{At: now, Backend: kb, Survivor: -1}
		tlog.Record(telemetry.EvKill, fmt.Sprintf("backend-%d", kb), "killed mid-soak", now)

		// Orphans: executing requests (their pending evDone is voided by
		// the generation bump) and queued ones, in deterministic order.
		var orphans []int
		for id := 0; id < total; id++ {
			if execOn[id] == kb {
				gen[id]++
				execOn[id] = -1
				orphans = append(orphans, id)
				rep.OrphansExecuting++
			}
		}
		rep.OrphansQueued += len(d.fifo)
		orphans = append(orphans, d.fifo...)
		d.busy = 0
		d.fifo = nil
		krow.Orphans = len(orphans)

		alive := aliveList()
		if rep.BudgetCharged >= cfg.FailoverBudget || len(alive) == 0 {
			// Nothing absorbs this death: orphans end terminally, loudly.
			for _, id := range orphans {
				abandon(id)
			}
			krow.Abandoned = len(orphans)
			rep.Kills = append(rep.Kills, krow)
			return nil
		}
		rep.BudgetCharged++
		budgetCharges.Inc()
		failovers.Inc()
		krow.Absorbed = true

		// Snapshot shipping: the dead backend's machines move to the
		// best survivor the router can name, with re-seeded keys.
		survivor := route(router, backends, now, alive)[0]
		krow.Survivor = survivor
		mig, err := MigrateMachines(d.b, backends[survivor].b)
		if err != nil {
			return err
		}
		if rep.Migration == nil {
			rep.Migration = mig
		}
		rep.Migrations = append(rep.Migrations, mig)
		rep.SharedKeyViolations += mig.SharedKeyViolations
		d.row.MigratedOut += len(mig.Machines)
		backends[survivor].row.MigratedIn += len(mig.Machines)
		migrateBytes.Add(uint64(mig.Bytes))
		for _, mm := range mig.Machines {
			migrationsVec.With(fmt.Sprint(kb), "out").Inc()
			migrationsVec.With(fmt.Sprint(survivor), "in").Inc()
			tlog.Record(telemetry.EvMigrate, mm.Scheme,
				fmt.Sprintf("%d->%d", mm.From, mm.To), uint64(mm.Bytes))
		}
		tlog.Record(telemetry.EvFailover, fmt.Sprintf("backend-%d", kb),
			fmt.Sprintf("survivor backend-%d, %d machine(s), %d orphan(s)", survivor, len(mig.Machines), len(orphans)), now)

		// Exactly-once replay per failover: every orphan of THIS kill is
		// re-issued on the survivors after the migration latency. The
		// request's outcome (and so its heal attempts) was precomputed
		// once and will be charged once, at its single terminal evDone —
		// a failover hop never multiplies the supervise restart budget.
		seen := make(map[int]bool, len(orphans))
		for _, id := range orphans {
			if seen[id] {
				rep.ReplayViolations++
				continue
			}
			seen[id] = true
			replayed[id] = true
			rep.Replayed++
			krow.Replayed++
			q.Push(serve.Event{At: now + cfg.MigrateLatency, Kind: evIssue, ID: id})
		}
		rep.Kills = append(rep.Kills, krow)
		return nil
	}

	// Start: every client issues its first request after one think; the
	// kills are first-class events in the same queue, their schedule
	// index carried in the ID field.
	clients.Start(q, evIssue)
	for i, k := range kills {
		q.Push(serve.Event{At: k.At, Kind: evKill, ID: i})
	}

	for q.Len() > 0 {
		e := q.Pop()
		switch e.Kind {
		case evIssue:
			// Drain the maximal run of same-instant issues into one
			// batch, so requests arriving at the same virtual instant
			// race through GrantProbes instead of through queue order.
			batch := []serve.Event{e}
			for q.Len() > 0 && q.Peek().At == e.At && q.Peek().Kind == evIssue {
				batch = append(batch, q.Pop())
			}
			resolveBatch(batch)
		case evDone:
			id := e.ID
			if e.Gen != gen[id] {
				continue // voided: the executing backend died first
			}
			d := backends[e.Backend]
			d.busy--
			execOn[id] = -1
			o := outcomes[id]
			if replayed[id] {
				d.row.Replayed++
				replayedVec.With(fmt.Sprint(e.Backend)).Inc()
			}
			rep.Done(tlog, arrivals[id].Scheme, o)
			d.row.Count(o)
			if br := d.b.Breaker; br != nil {
				br.Record(e.At, o.Class == traffic.OutcomeOK)
			}
			if len(d.fifo) > 0 {
				next := d.fifo[0]
				d.fifo = d.fifo[1:]
				startService(e.Backend, next)
			}
			clients.Next(q, evIssue, id)
		case evKill:
			if err := kill(kills[e.ID]); err != nil {
				return nil, err
			}
		}
	}

	rep.Issued = total
	rep.VirtualCycles = q.Now()
	for _, d := range backends {
		rep.InFlightAtEnd += d.busy + len(d.fifo)
		if br := d.b.Breaker; br != nil {
			d.row.BreakerOpens = br.Opens()
		}
		rep.PerBackend = append(rep.PerBackend, d.row)
	}
	rep.PerScheme = rep.Close()
	return rep, nil
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
