package cluster

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"pacstack/internal/fault"
	"pacstack/internal/resilience"
	"pacstack/internal/serve"
	"pacstack/internal/snap"
	"pacstack/internal/telemetry"
)

// ErrNoBackend reports that the router found no backend willing to
// take a request: every member is dead or breaker-denied.
var ErrNoBackend = errors.New("cluster: no backend available")

// ErrDeadBackend reports an operation against a backend that is
// already dead.
var ErrDeadBackend = errors.New("cluster: backend is dead")

// ErrLinkDown reports that the live mesh faulted the message to a
// backend — the link is down, partitioned, flapping, or dropped it.
var ErrLinkDown = errors.New("cluster: mesh link faulted")

// Config parameterises a live Cluster.
type Config struct {
	// Backends is the fleet width. Default 3.
	Backends int

	// Seed fixes the cluster's entropy: the router rotor, probe
	// tie-breaks, and each backend's serve seed derive from it.
	// Default 1.
	Seed int64

	// Backend is the template serve.Config each member runs; Seed and
	// Telemetry are overridden per backend (derived seed, shared set).
	Backend serve.Config

	// MachineSchemes names the resident machines every backend boots
	// and checkpoints at start — the migration cargo. Default
	// ["pacstack"].
	MachineSchemes []string

	// BreakerThreshold configures the router's per-backend breakers,
	// which cool down for liveBreakerCooldown once open. Threshold < 0
	// disables them; 0 means the default 8.
	BreakerThreshold int

	// FailoverBudget is how many backend deaths the cluster absorbs
	// with migration; Kill calls beyond it still drain and mark the
	// backend dead but refuse to migrate. Default 1.
	FailoverBudget int
}

// liveBreakerCooldown is how long (wall-clock nanoseconds) an open
// backend breaker waits before it half-opens.
const liveBreakerCooldown = uint64(100 * time.Millisecond)

func (c Config) withDefaults() Config {
	if c.Backends <= 0 {
		c.Backends = 3
	}
	if c.Seed == 0 {
		c.Seed = 1
	}
	if len(c.MachineSchemes) == 0 {
		c.MachineSchemes = []string{"pacstack"}
	}
	if c.BreakerThreshold == 0 {
		c.BreakerThreshold = 8
	}
	if c.FailoverBudget == 0 {
		c.FailoverBudget = 1
	}
	return c
}

// Cluster is the live multi-backend tier: N serve.Servers behind the
// breaker-aware router, with operator-triggered kill + failover. All
// methods are safe for concurrent use.
type Cluster struct {
	cfg    Config
	tel    *telemetry.Set
	router *Router
	now    func() uint64

	mu       sync.Mutex
	backends []*Backend
	budget   int // failover budget remaining

	mesh meshState

	seq atomic.Uint64

	routed        []*telemetry.Counter // pacstack_cluster_routed_total, by backend
	deniedVec     *telemetry.CounterVec
	migrationsVec *telemetry.CounterVec
	transVec      *telemetry.CounterVec
	linkDenied    *telemetry.CounterVec
	migrateBytes  *telemetry.Counter
	failovers     *telemetry.Counter
	budgetCharges *telemetry.Counter
}

// New builds the fleet: each backend gets a serve.Server seeded
// serve.Mix(seed, index) sharing the cluster's own telemetry set, a
// router-facing breaker, and its resident machines booted and
// checkpointed. Machine boot failures (unknown scheme) surface here,
// before traffic.
func New(cfg Config) (*Cluster, error) {
	cfg = cfg.withDefaults()
	tel := telemetry.New(telemetry.Options{})
	reg := tel.Registry()
	c := &Cluster{
		cfg:    cfg,
		tel:    tel,
		router: NewRouter(cfg.Seed),
		now:    func() uint64 { return uint64(time.Now().UnixNano()) },
		budget: cfg.FailoverBudget,

		deniedVec:     reg.CounterVec("pacstack_cluster_breaker_denied_total", "arrivals denied per backend breaker", "backend"),
		migrationsVec: reg.CounterVec("pacstack_cluster_migrations_total", "machine migrations per backend", "backend", "direction"),
		transVec:      reg.CounterVec("pacstack_cluster_breaker_transitions_total", "backend breaker state changes", "backend", "to"),
		linkDenied:    reg.CounterVec("pacstack_cluster_link_denied_total", "live requests the mesh faulted per backend", "backend", "cause"),
		migrateBytes:  reg.Counter("pacstack_cluster_migrate_bytes_total", "snapshot image bytes shipped in failovers"),
		failovers:     reg.Counter("pacstack_cluster_failovers_total", "backend deaths absorbed by migration and replay"),
		budgetCharges: reg.Counter("pacstack_cluster_budget_charges_total", "failover restart-budget charges"),
	}
	snapTel := snap.NewTelemetry(reg)
	// Resident machines all run the chain workload: images are
	// deterministic functions of (workload, scheme), so one shared
	// engine serves the whole fleet.
	prog, err := serve.ResolveProgram("chain", nil)
	if err != nil {
		return nil, err
	}
	eng := fault.NewEngine(prog)
	routedVec := reg.CounterVec("pacstack_cluster_routed_total", "requests admitted per backend", "backend")
	for i := 0; i < cfg.Backends; i++ {
		b := NewBackend(i, cfg.Seed)
		b.SnapTel = snapTel
		if cfg.BreakerThreshold > 0 {
			b.Breaker = NewBackendBreaker(i, cfg.BreakerThreshold, liveBreakerCooldown, cfg.Seed, tel, c.transVec)
		}
		bcfg := cfg.Backend
		bcfg.Seed = serve.Mix(cfg.Seed, int64(i)+0x5e1)
		bcfg.Telemetry = tel
		b.Srv = serve.New(bcfg)
		for _, name := range cfg.MachineSchemes {
			if _, err := b.BootMachine(eng, name); err != nil {
				return nil, err
			}
		}
		c.backends = append(c.backends, b)
		c.routed = append(c.routed, routedVec.With(fmt.Sprint(i)))
		// The router's load metric, exposed: one gather-time gauge per
		// backend reading the live admission in-flight count.
		srv := b.Srv
		reg.GaugeFuncWith("pacstack_cluster_in_flight", "admitted, unfinished requests per backend",
			[]string{"backend"}, []string{fmt.Sprint(i)},
			func() int64 { return int64(srv.InFlight()) })
	}
	return c, nil
}

// loadOf is the router's load metric on the live fleet: admitted,
// unfinished requests on the backend's server.
func (c *Cluster) loadOf(i int) int { return c.backends[i].Srv.InFlight() }

// aliveLocked lists the alive backend indices. Callers hold c.mu.
func (c *Cluster) aliveLocked() []int {
	var out []int
	for i, b := range c.backends {
		if b.Alive() {
			out = append(out, i)
		}
	}
	return out
}

// Do routes one request: the router ranks the alive backends by
// breaker state, and the request walks the preference order until a
// backend's breaker grants it and its admission takes it. Sheds and
// drains fall through to the next backend — a full queue is a routing
// signal, not a cluster-wide rejection; only when every backend has
// refused does the caller see an error (the last backend's, or
// ErrNoBackend when the breakers denied everywhere).
func (c *Cluster) Do(ctx context.Context, req serve.Request) (*serve.Result, error) {
	id := c.seq.Add(1)
	now := c.now()
	c.mu.Lock()
	alive := c.aliveLocked()
	order := c.router.Order(now, alive, func(i int) resilience.BreakerState {
		if br := c.backends[i].Breaker; br != nil {
			return br.State(now)
		}
		return resilience.BreakerClosed
	}, c.loadOf)
	c.mu.Unlock()
	if len(order) == 0 {
		return nil, ErrNoBackend
	}

	var lastErr error
	for _, idx := range order {
		b := c.backends[idx]
		// The live mesh rules first: a down or partitioned link takes
		// the backend out of consideration, and a sampled message drop
		// fails this attempt over to the next backend — the router
		// treats a faulted link exactly like a refusing backend.
		if cause, faulted := c.meshVerdict(idx); faulted {
			c.linkDenied.With(fmt.Sprint(idx), cause.String()).Inc()
			c.tel.Log().Record(telemetry.EvLinkDrop, fmt.Sprintf("backend-%d", idx), cause.String(), id)
			lastErr = fmt.Errorf("%w: backend %d (%s)", ErrLinkDown, idx, cause)
			continue
		}
		if br := b.Breaker; br != nil {
			if granted := br.GrantProbes(c.now(), []uint64{id}); len(granted) == 0 {
				c.deniedVec.With(fmt.Sprint(idx)).Inc()
				lastErr = fmt.Errorf("%w (backend %d)", resilience.ErrBreakerOpen, idx)
				continue
			}
		}
		res, err := b.Srv.Do(ctx, req)
		// Only an admitted attempt says anything about the backend's
		// health; a refused one hands its probe grant back.
		if br := b.Breaker; refused(err) {
			if br != nil {
				br.ReleaseProbe()
			}
		} else {
			c.routed[idx].Inc()
			if br != nil {
				br.Record(c.now(), serve.BackendHealthy(err))
			}
		}
		if err != nil && (errors.Is(err, resilience.ErrShed) || errors.Is(err, resilience.ErrDraining)) {
			lastErr = err
			continue
		}
		return res, err
	}
	if lastErr == nil {
		lastErr = ErrNoBackend
	}
	return nil, lastErr
}

// refused reports whether a backend turned a request away before
// admitting it: shed, draining, its scheme breaker open, or a bad
// request. A refused request does not count as routed there.
func refused(err error) bool {
	var bad *serve.BadRequestError
	return errors.Is(err, resilience.ErrShed) || errors.Is(err, resilience.ErrDraining) ||
		errors.Is(err, resilience.ErrBreakerOpen) || errors.As(err, &bad)
}

// Kill is the operator-facing backend death: the victim stops
// accepting, drains its in-flight work under ctx, and its resident
// machines migrate to the best survivor with re-seeded keys. The
// failover budget is charged exactly once per absorbed kill; with the
// budget exhausted (or no survivor left) the backend still dies but
// nothing migrates, and the report says so via the returned error.
func (c *Cluster) Kill(ctx context.Context, idx int) (*MigrationReport, error) {
	if idx < 0 || idx >= len(c.backends) {
		return nil, fmt.Errorf("cluster: no backend %d", idx)
	}
	b := c.backends[idx]
	if !b.Kill() {
		return nil, fmt.Errorf("%w: backend %d", ErrDeadBackend, idx)
	}
	c.tel.Log().Record(telemetry.EvKill, fmt.Sprintf("backend-%d", idx), "operator kill", 0)
	b.Srv.BeginDrain()
	if err := b.Srv.Drain(ctx); err != nil {
		return nil, fmt.Errorf("cluster: draining backend %d: %w", idx, err)
	}

	now := c.now()
	c.mu.Lock()
	alive := c.aliveLocked()
	if len(alive) == 0 {
		c.mu.Unlock()
		return nil, fmt.Errorf("cluster: backend %d died with no survivor; machines not migrated", idx)
	}
	if c.budget <= 0 {
		c.mu.Unlock()
		return nil, fmt.Errorf("cluster: failover budget exhausted; backend %d dead, machines not migrated", idx)
	}
	c.budget--
	survivor := c.router.Order(now, alive, func(i int) resilience.BreakerState {
		if br := c.backends[i].Breaker; br != nil {
			return br.State(now)
		}
		return resilience.BreakerClosed
	}, c.loadOf)[0]
	c.mu.Unlock()
	c.budgetCharges.Inc()
	c.failovers.Inc()

	rep, err := MigrateMachines(b, c.backends[survivor])
	if err != nil {
		return rep, err
	}
	c.migrateBytes.Add(uint64(rep.Bytes))
	for _, mm := range rep.Machines {
		c.migrationsVec.With(fmt.Sprint(idx), "out").Inc()
		c.migrationsVec.With(fmt.Sprint(survivor), "in").Inc()
		c.tel.Log().Record(telemetry.EvMigrate, mm.Scheme, fmt.Sprintf("%d->%d", mm.From, mm.To), uint64(mm.Bytes))
	}
	c.tel.Log().Record(telemetry.EvFailover, fmt.Sprintf("backend-%d", idx),
		fmt.Sprintf("survivor backend-%d, %d machine(s)", survivor, len(rep.Machines)), 0)
	if rep.SharedKeyViolations > 0 {
		return rep, fmt.Errorf("cluster: %d migrated machine(s) share keys with the dead backend", rep.SharedKeyViolations)
	}
	return rep, nil
}

// BackendStatus is one backend's row in the cluster snapshot: only
// what this backend alone did or holds.
type BackendStatus struct {
	Backend      int    `json:"backend"`
	Alive        bool   `json:"alive"`
	Breaker      string `json:"breaker"`
	BreakerOpens uint64 `json:"breaker_opens,omitempty"`
	// SchemeBreakerOpens counts the openings of this backend's server's
	// per-scheme breakers.
	SchemeBreakerOpens map[string]uint64 `json:"scheme_breaker_opens,omitempty"`
	InFlight           int               `json:"in_flight"` // the router's load metric
	Queued             int               `json:"queued"`
	Draining           bool              `json:"draining"`
	// Routed is pacstack_cluster_routed_total for this backend: the
	// requests it admitted.
	Routed   uint64   `json:"routed"`
	Machines []string `json:"machines"`
}

// Status is the /v1/cluster JSON shape.
type Status struct {
	Backends []BackendStatus `json:"backends"`
	// Fleet is the serving counters. Every backend's server counts
	// into the cluster's one telemetry set, so they are fleet-wide
	// totals; in-flight, queued and breaker openings are summed over
	// the backends, and draining holds once every backend drains.
	Fleet           serve.Snapshot `json:"fleet"`
	Alive           int            `json:"alive"`
	FailoverBudget  int            `json:"failover_budget_remaining"`
	FailoverCharged int            `json:"failover_budget_charged"`
}

// Status snapshots the fleet.
func (c *Cluster) Status() Status {
	now := c.now()
	c.mu.Lock()
	budget := c.budget
	c.mu.Unlock()
	st := Status{
		FailoverBudget:  budget,
		FailoverCharged: c.cfg.FailoverBudget - budget,
	}
	for i, b := range c.backends {
		stats := b.Srv.Stats()
		row := BackendStatus{
			Backend:            i,
			Alive:              b.Alive(),
			Breaker:            resilience.BreakerClosed.String(),
			SchemeBreakerOpens: stats.BreakerOpens,
			InFlight:           stats.InFlight,
			Queued:             stats.Queued,
			Draining:           stats.Draining,
			Routed:             c.routed[i].Value(),
		}
		if i == 0 {
			st.Fleet = stats
			st.Fleet.BreakerOpens = nil
			st.Fleet.InFlight, st.Fleet.Queued = 0, 0
		}
		st.Fleet.InFlight += stats.InFlight
		st.Fleet.Queued += stats.Queued
		st.Fleet.Draining = st.Fleet.Draining && stats.Draining
		for sc, n := range stats.BreakerOpens {
			if st.Fleet.BreakerOpens == nil {
				st.Fleet.BreakerOpens = make(map[string]uint64)
			}
			st.Fleet.BreakerOpens[sc] += n
		}
		if br := b.Breaker; br != nil {
			row.Breaker = br.State(now).String()
			row.BreakerOpens = br.Opens()
		}
		for _, m := range b.Machines() {
			name := m.Scheme
			if m.Migrated {
				name += " (migrated)"
			}
			row.Machines = append(row.Machines, name)
		}
		if row.Alive {
			st.Alive++
		}
		st.Backends = append(st.Backends, row)
	}
	return st
}

// Drain gracefully stops every alive backend (the cluster-wide
// SIGTERM path): all stop admitting, then all drain under ctx.
func (c *Cluster) Drain(ctx context.Context) error {
	for _, b := range c.backends {
		if b.Alive() {
			b.Srv.BeginDrain()
		}
	}
	var firstErr error
	for _, b := range c.backends {
		if !b.Alive() {
			continue
		}
		if err := b.Srv.Drain(ctx); err != nil && firstErr == nil {
			firstErr = err
		}
	}
	return firstErr
}

// Telemetry returns the cluster's telemetry set.
func (c *Cluster) Telemetry() *telemetry.Set { return c.tel }

// Size is the fleet width, dead members included.
func (c *Cluster) Size() int { return len(c.backends) }

// Server returns backend idx's serve.Server and whether that backend
// is still alive — the daemon's handle for per-backend shutdown work
// (final checkpoints) that the cluster itself does not own.
func (c *Cluster) Server(idx int) (*serve.Server, bool) {
	if idx < 0 || idx >= len(c.backends) {
		return nil, false
	}
	b := c.backends[idx]
	return b.Srv, b.Alive()
}
