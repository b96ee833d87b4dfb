// Package serve is the resilient serving layer: a long-running front
// end that executes sandboxed PACStack workloads per request on a pool
// of supervised simulated kernels, and degrades gracefully instead of
// dying — overload is shed (429), unhealthy backends are circuit-
// broken (503), deadlines cancel mid-run (504), panics are isolated
// per request, and shutdown drains in-flight work before exiting.
//
// Its reason to exist is the paper's operational claim: PACStack's
// chain-integrity guarantees are about detection *at runtime, under
// adversarial conditions*. The serving layer puts that to work — chaos
// mode wires the internal/fault injection engine into live traffic at
// a seeded rate, so a corrupted return address inside a request's
// victim process surfaces as a typed 5xx with the kernel's post-mortem
// attached, never as daemon death and (for PACStack) never as a
// silently wrong response. Every request runs in its own simulated
// address space under its own supervisor (internal/supervise), so a
// detected kill costs exactly one request.
//
// The package has three faces: Server.Do (the execution core),
// Server.Handler (the HTTP/JSON surface used by cmd/pacstack-serve),
// and Soak (a deterministic virtual-time load generator used by
// cmd/pacstack-soak and the repository gate).
package serve

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"pacstack/internal/compile"
	"pacstack/internal/cpu"
	"pacstack/internal/fault"
	"pacstack/internal/ir"
	"pacstack/internal/kernel"
	"pacstack/internal/pa"
	"pacstack/internal/par"
	"pacstack/internal/pool"
	"pacstack/internal/resilience"
	"pacstack/internal/snap"
	"pacstack/internal/supervise"
	"pacstack/internal/telemetry"
	"pacstack/internal/workload"
)

// Config parameterises a Server.
type Config struct {
	// Workers is the kernel-pool width: how many requests execute
	// simultaneously. Queue is how many more may wait; beyond that
	// arrivals are shed. Defaults: 4 and 2*Workers.
	Workers int
	Queue   int

	// Seed fixes the server's entropy: per-request kernel seeds and
	// chaos draws derive from it, so a seeded server is replayable.
	// Default 1.
	Seed int64

	// Chaos switches live fault injection on; ChaosRate is the
	// per-attempt injection probability (default 0.1 when Chaos is
	// set); ChaosKinds is the campaign mix (default: return-address
	// overwrite, stack smash, signal-frame tamper — the corruptions
	// the paper's schemes claim to catch; bit flips and register
	// corruption hit non-control data PACStack does not cover).
	Chaos      bool
	ChaosRate  float64
	ChaosKinds []fault.Kind

	// Heal is the supervised respawn budget after a detected kill:
	// 0 (the default) surfaces every detection as a typed error;
	// N > 0 lets the supervisor re-exec the victim (fresh PA keys,
	// Section 4.3) up to N times before giving up.
	Heal int

	// Budget is the per-attempt instruction watchdog; 0 derives it
	// from the scheme's golden run (4x its length).
	Budget uint64

	// CheckpointEvery, when non-zero, gives every request a
	// crash-consistent snapshot store (internal/snap): its victim
	// commits a checkpoint each time that many instructions retire,
	// and supervised respawns warm-restore the newest valid snapshot
	// instead of starting over. The store lives and dies with the
	// request, so requests stay independent and replayable.
	CheckpointEvery uint64
	// CheckpointCrash is the per-request probability (checkpointing
	// only) of the chaos dimension torn writes add: the simulated
	// machine dies partway through a snapshot commit, at a
	// seeded byte offset of the storage protocol. The supervisor must
	// heal the disk, classify the debris and warm-restore — with
	// Heal > 0 the request still succeeds.
	CheckpointCrash float64

	// Timeout is the per-request wall-clock deadline applied by the
	// HTTP layer; 0 means none.
	Timeout time.Duration

	// Warm switches on warm-pool serving (internal/pool): per
	// (workload, scheme) the server checkpoints one hardened, booted
	// machine image at first use and serves each request by restoring
	// a pooled machine from it — fresh PA keys and canary per restore
	// (PACStack §4.3) — instead of cold-booting a kernel per request.
	// Outcomes are bit-identical to cold serving (the pool's Reset
	// consumes the same entropy stream as a cold boot); only the
	// machine-acquisition cost changes. The daemon defaults warm with
	// a -cold escape hatch; the virtual-time soak selects it through
	// SoakConfig.BootModel.
	Warm bool
	// PoolMachines caps each warm pool's machine count; 0 grows pools
	// on demand (a lease never fails). When a capped pool is
	// exhausted, the request cold-boots and
	// pacstack_pool_cold_fallback_total counts it.
	PoolMachines int

	// Telemetry receives the server's metrics and security events. Nil
	// gets a private always-on Set, so Stats() works regardless; pass a
	// shared Set to expose the same registry on /metrics or to merge
	// several components into one exposition.
	Telemetry *telemetry.Set

	// BreakerThreshold consecutive backend failures open a scheme's
	// circuit breaker for BreakerCooldown (wall-clock nanoseconds).
	// Threshold < 0 disables breakers; 0 means the default 8.
	BreakerThreshold int
	BreakerCooldown  uint64

	// Programs adds extra named workloads beyond the built-in catalog
	// (the fault-campaign chain program and the SPEC-shaped suite).
	Programs map[string]*ir.Program
}

// withDefaults fills the zero values in.
func (c Config) withDefaults() Config {
	if c.Workers <= 0 {
		c.Workers = 4
	}
	if c.Queue == 0 {
		c.Queue = 2 * c.Workers
	}
	if c.Queue < 0 {
		c.Queue = 0
	}
	if c.Seed == 0 {
		c.Seed = 1
	}
	if c.Chaos && c.ChaosRate == 0 {
		c.ChaosRate = 0.1
	}
	if len(c.ChaosKinds) == 0 {
		c.ChaosKinds = []fault.Kind{fault.KindRetAddr, fault.KindStackSmash, fault.KindSigFrame}
	}
	if c.BreakerThreshold == 0 {
		c.BreakerThreshold = 8
	}
	if c.BreakerCooldown == 0 {
		c.BreakerCooldown = uint64(100 * time.Millisecond)
	}
	if c.Telemetry == nil {
		c.Telemetry = telemetry.New(telemetry.Options{})
	}
	return c
}

// Request is one unit of work: run the named workload under the named
// scheme. Seed, when non-zero, makes the request fully deterministic
// (kernel keys, canary, chaos draws); zero lets the server assign one
// from its own stream.
type Request struct {
	Workload string `json:"workload"`
	Scheme   string `json:"scheme"`
	Seed     int64  `json:"seed,omitempty"`
}

// Result is a successful execution.
type Result struct {
	Workload string `json:"workload"`
	Scheme   string `json:"scheme"`
	Output   string `json:"output"`
	ExitCode uint64 `json:"exit_code"`
	Instrs   uint64 `json:"instrs"`
	Cycles   uint64 `json:"cycles"`
	// Attempts is how many victim incarnations ran; Healed marks a
	// request that crashed and was transparently re-executed on a
	// fresh-keyed kernel (Heal > 0).
	Attempts int  `json:"attempts"`
	Healed   bool `json:"healed,omitempty"`
	// Injected counts chaos faults armed across the attempts.
	Injected int `json:"injected_faults,omitempty"`
	// Checkpoints / Restores / TornCommits are the request's
	// snapshot-store traffic: commits that landed, respawns that
	// warm-restored, and commits a simulated storage crash tore.
	Checkpoints int `json:"checkpoints,omitempty"`
	Restores    int `json:"restores,omitempty"`
	TornCommits int `json:"torn_commits,omitempty"`
}

// BadRequestError reports an unparseable request (unknown workload or
// scheme); the HTTP layer maps it to 400.
type BadRequestError struct{ Reason string }

func (e *BadRequestError) Error() string { return "serve: bad request: " + e.Reason }

// CorruptionError reports a *detected* corruption: the victim was
// killed with a typed cause and the supervisor's restart budget (if
// any) ran out. This is the scheme working as designed — the HTTP
// layer maps it to 502 with the kernel post-mortem attached.
type CorruptionError struct {
	Cause    fault.Cause
	Kill     *kernel.KillInfo
	Attempts int
	Injected int
	Cycles   uint64
}

func (e *CorruptionError) Error() string {
	if e.Kill != nil {
		return fmt.Sprintf("serve: detected corruption (%s) after %d attempt(s): %s", e.Cause, e.Attempts, e.Kill)
	}
	return fmt.Sprintf("serve: detected corruption (%s) after %d attempt(s)", e.Cause, e.Attempts)
}

// SilentCorruptionError reports the outcome the paper drives toward
// zero: the victim terminated without any kill but produced output
// diverging from the golden run. The server refuses to return the
// wrong answer (500), and the soak gate fails the build if a PACStack
// backend ever produces one under chaos.
type SilentCorruptionError struct {
	Output   string
	Want     string
	ExitCode uint64
	WantExit uint64
	Cycles   uint64
}

func (e *SilentCorruptionError) Error() string {
	return fmt.Sprintf("serve: silent corruption: output %q (exit %d), golden %q (exit %d)",
		e.Output, e.ExitCode, e.Want, e.WantExit)
}

// BootError reports that no incarnation could be booted for the
// request, so nothing ran: for example a warm restore the pool refused.
// The HTTP layer maps it to 500.
type BootError struct{ Err error }

func (e *BootError) Error() string { return "serve: boot failed: " + e.Err.Error() }
func (e *BootError) Unwrap() error { return e.Err }

// ErrDeadline reports that the request's deadline expired mid-run; the
// victim was abandoned, not killed. Mapped to 504.
var ErrDeadline = errors.New("serve: request deadline exceeded")

// Server is the serving core. All methods are safe for concurrent use.
type Server struct {
	cfg Config
	now func() uint64 // wall clock in ns; replaceable for tests

	adm *resilience.Admission

	mu       sync.Mutex
	engines  map[string]*fault.Engine
	breakers map[compile.Scheme]*resilience.Breaker
	ktels    map[compile.Scheme]*kernel.Telemetry
	pools    map[string]*pool.Pool // warm pools by workload+"/"+scheme

	seq atomic.Int64
	tel *telemetry.Set
	m   metrics
}

// New returns a server for the configuration (zero values filled with
// defaults).
func New(cfg Config) *Server {
	cfg = cfg.withDefaults()
	return &Server{
		cfg:      cfg,
		now:      func() uint64 { return uint64(time.Now().UnixNano()) },
		adm:      resilience.NewAdmission(cfg.Workers, cfg.Queue),
		engines:  make(map[string]*fault.Engine),
		breakers: make(map[compile.Scheme]*resilience.Breaker),
		ktels:    make(map[compile.Scheme]*kernel.Telemetry),
		pools:    make(map[string]*pool.Pool),
		tel:      cfg.Telemetry,
		m:        newMetrics(cfg.Telemetry.Registry(), cfg.Telemetry.Log()),
	}
}

// Config returns the server's effective (default-filled) config.
func (s *Server) Config() Config { return s.cfg }

// schemeNames maps request spellings to schemes, the same names
// cmd/pacstack-fault uses.
var schemeNames = map[string]compile.Scheme{
	"baseline":        compile.SchemeNone,
	"canary":          compile.SchemeCanary,
	"branchprot":      compile.SchemeBranchProtection,
	"shadowstack":     compile.SchemeShadowStack,
	"pacstack-nomask": compile.SchemePACStackNoMask,
	"pacstack":        compile.SchemePACStack,
	"staticcfi":       compile.SchemeStaticCFI,
}

// schemeName is the wire spelling of a scheme — the inverse of
// ParseScheme, used in results and stats keys so clients see the same
// names they send.
func schemeName(s compile.Scheme) string {
	for name, sc := range schemeNames {
		if sc == s {
			return name
		}
	}
	return s.String()
}

// ParseScheme resolves a request scheme name ("" means pacstack).
func ParseScheme(name string) (compile.Scheme, error) {
	if name == "" {
		return compile.SchemePACStack, nil
	}
	s, ok := schemeNames[name]
	if !ok {
		return 0, &BadRequestError{Reason: fmt.Sprintf("unknown scheme %q", name)}
	}
	return s, nil
}

// kindNames maps flag spellings to chaos campaign kinds, matching
// cmd/pacstack-fault's -kind flag.
var kindNames = map[string]fault.Kind{
	"bitflip":  fault.KindBitFlip,
	"retaddr":  fault.KindRetAddr,
	"smash":    fault.KindStackSmash,
	"register": fault.KindRegister,
	"sigframe": fault.KindSigFrame,
}

// ParseKinds resolves a comma-separated chaos-kind list ("" means the
// default mix).
func ParseKinds(list string) ([]fault.Kind, error) {
	if list == "" {
		return nil, nil
	}
	var kinds []fault.Kind
	for _, name := range strings.Split(list, ",") {
		name = strings.TrimSpace(name)
		if name == "" {
			continue
		}
		k, ok := kindNames[name]
		if !ok {
			return nil, &BadRequestError{Reason: fmt.Sprintf("unknown chaos kind %q", name)}
		}
		kinds = append(kinds, k)
	}
	return kinds, nil
}

// engine returns (building on first use) the fault engine for the
// named workload. The engine caches compiled images and golden runs
// per scheme, so steady-state requests only boot and run.
func (s *Server) engine(name string) (*fault.Engine, error) {
	if name == "" {
		name = "chain"
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if e, ok := s.engines[name]; ok {
		return e, nil
	}
	prog, err := s.program(name)
	if err != nil {
		return nil, err
	}
	e := fault.NewEngine(prog)
	s.engines[name] = e
	return e, nil
}

// program resolves a workload name: config-supplied programs first,
// then the built-in catalog ("chain" plus the SPEC-shaped suite).
func (s *Server) program(name string) (*ir.Program, error) {
	return ResolveProgram(name, s.cfg.Programs)
}

// ResolveProgram resolves a workload name against extra named programs
// (checked first; may be nil) and then the built-in catalog — "" or
// "chain" is the fault-campaign chain program, "nginx" the simulated
// per-connection TLS handshake, the rest is the SPEC-shaped suite.
// The cluster layer resolves through here so every tier accepts
// exactly the same workload names.
func ResolveProgram(name string, extra map[string]*ir.Program) (*ir.Program, error) {
	if p, ok := extra[name]; ok {
		return p, nil
	}
	if name == "" || name == "chain" {
		return fault.DefaultProgram(), nil
	}
	if name == "nginx" {
		return workload.NginxProgram(), nil
	}
	cm := cpu.DefaultCostModel()
	for _, b := range workload.SPEC {
		if b.Name == name {
			return b.Program(cm), nil
		}
	}
	return nil, &BadRequestError{Reason: fmt.Sprintf("unknown workload %q", name)}
}

// Workloads lists the names the server accepts, sorted.
func (s *Server) Workloads() []string {
	names := []string{"chain", "nginx"}
	for _, b := range workload.SPEC {
		names = append(names, b.Name)
	}
	for n := range s.cfg.Programs {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// breaker returns the scheme's circuit breaker, or nil when disabled.
func (s *Server) breaker(sc compile.Scheme) *resilience.Breaker {
	if s.cfg.BreakerThreshold < 0 {
		return nil
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	b, ok := s.breakers[sc]
	if !ok {
		name := schemeName(sc)
		transitions := s.m.breakerTransitions.Curry(name)
		events := s.tel.Log()
		b = resilience.NewBreaker(resilience.BreakerConfig{
			Threshold: s.cfg.BreakerThreshold,
			Cooldown:  s.cfg.BreakerCooldown,
			OnTransition: func(now uint64, from, to resilience.BreakerState) {
				transitions.With(to.String()).Inc()
				events.Record(telemetry.EvBreaker, name, from.String()+"->"+to.String(), now)
			},
		})
		s.breakers[sc] = b
	}
	return b
}

// requestRNG derives the request's private rng. Explicit request
// seeds make outcomes identity-addressed (the soak depends on this);
// seedless requests draw from the server sequence.
func (s *Server) requestRNG(req Request) *rand.Rand {
	seed := req.Seed
	if seed == 0 {
		seed = s.seq.Add(1)
	}
	return rand.New(rand.NewSource(Mix(s.cfg.Seed, seed)))
}

// Do executes one request through the full resilience pipeline:
// circuit breaker, bounded admission, panic isolation, supervised
// execution with optional chaos injection, classification against the
// golden run. The error is one of the typed errors of this package or
// of internal/resilience.
func (s *Server) Do(ctx context.Context, req Request) (*Result, error) {
	eng, err := s.engine(req.Workload)
	if err != nil {
		s.m.count(err)
		return nil, err
	}
	scheme, err := ParseScheme(req.Scheme)
	if err != nil {
		s.m.count(err)
		return nil, err
	}

	br := s.breaker(scheme)
	if br != nil && !br.Allow(s.now()) {
		err := fmt.Errorf("%w (backend %s)", resilience.ErrBreakerOpen, schemeName(scheme))
		s.m.count(err)
		s.tel.Log().Record(telemetry.EvShed, schemeName(scheme), "breaker open", s.now())
		return nil, err
	}
	if err := s.adm.Acquire(ctx); err != nil {
		s.m.count(err)
		if errors.Is(err, resilience.ErrShed) {
			s.tel.Log().Record(telemetry.EvShed, schemeName(scheme), "queue full", s.now())
		}
		return nil, err
	}
	defer s.adm.Release()

	var res *Result
	rng := s.requestRNG(req)
	runErr := resilience.Protect(func() error {
		var err error
		res, err = s.execute(ctx, eng, scheme, req.Workload, rng)
		return err
	})
	if br != nil {
		br.Record(s.now(), BackendHealthy(runErr))
	}
	s.m.count(runErr)
	if runErr == nil && res != nil && res.Healed {
		s.m.healed.Inc()
	}
	return res, runErr
}

// BackendHealthy reports whether the outcome should count as backend
// health for the circuit breaker: detections, silent divergence,
// panics and deadline blowouts are backend failures; admission-level
// rejections are routing verdicts, not backend health. Exported so the
// cluster router can feed its per-backend breakers the same health
// definition the per-scheme breakers use.
func BackendHealthy(err error) bool {
	if err == nil {
		return true
	}
	var ce *CorruptionError
	var se *SilentCorruptionError
	var pe *resilience.PanicError
	return !(errors.As(err, &ce) || errors.As(err, &se) || errors.As(err, &pe) ||
		errors.Is(err, ErrDeadline))
}

// execute runs the victim under a supervisor, arming chaos faults per
// attempt, and classifies the outcome.
func (s *Server) execute(ctx context.Context, eng *fault.Engine, scheme compile.Scheme, workloadName string, rng *rand.Rand) (*Result, error) {
	img, err := eng.Image(scheme)
	if err != nil {
		return nil, err
	}
	goldenOut, goldenExit, goldenInstrs, err := eng.Golden(scheme)
	if err != nil {
		return nil, err
	}
	budget := s.cfg.Budget
	if budget == 0 {
		budget = 4*goldenInstrs + 10_000
	}

	// Warm path: lease a pooled machine and boot every attempt by
	// snapshot restore (fresh keys + canary per Reset, §4.3). The
	// pool's Reset consumes the identical entropy stream as a cold
	// boot, so the request outcome is the same either way — a capped
	// pool falling back to a cold boot below can only change cost,
	// never results.
	var k *kernel.Kernel
	var bootHook func() (*kernel.Process, error)
	if s.cfg.Warm {
		pl, perr := s.pool(workloadName, scheme)
		if perr != nil {
			return nil, perr
		}
		if m := pl.Get(); m != nil {
			defer pl.Put(m)
			k = m.K
			machine := m
			bootHook = func() (*kernel.Process, error) { return pl.Reset(machine) }
		}
	}
	if k == nil {
		k = kernel.New(pa.DefaultConfig())
	}
	k.Seed(rng.Int63())
	k.SetTelemetry(s.kernelTel(scheme))
	sup := supervise.New(img, k, supervise.Policy{
		Respawn:     supervise.RespawnExec, // fresh PA keys per incarnation (Section 4.3)
		MaxRestarts: s.cfg.Heal,
		Budget:      budget,
	})
	sup.Tel = s.m.sup
	sup.Boot = bootHook
	sup.Configure = func(p *kernel.Process) { fault.Harden(scheme, p) }

	// Per-request snapshot store. The torn-crash decision and its byte
	// budget are drawn here, before any attempt runs, so the request
	// outcome is a pure function of its seed regardless of attempt
	// count — the soak's determinism depends on that.
	var storeFS *snap.MemFS
	crashFrac := -1.0
	if s.cfg.CheckpointEvery > 0 {
		storeFS = snap.NewMemFS()
		sup.Snapshots = snap.NewStore(storeFS)
		sup.Snapshots.Tel = s.m.snap
		sup.CheckpointEvery = s.cfg.CheckpointEvery
		if s.cfg.CheckpointCrash > 0 && rng.Float64() < s.cfg.CheckpointCrash {
			crashFrac = rng.Float64()
		}
	}

	injected := 0
	proc, runErr := sup.RunCtx(ctx, func(n int, p *kernel.Process) {
		if n == 0 && crashFrac >= 0 {
			// Armed after the attempt's recovery pass (which heals the
			// disk) so the crash actually lands mid-commit. The byte
			// budget is the drawn fraction of the request's estimated
			// snapshot traffic (commit count times the boot-state image
			// size), so crashes spread across the whole commit sequence
			// instead of clustering in the first one; a draw past the
			// actual traffic simply never fires — a benign draw.
			if est, err := snap.Encode(p.Checkpoint(), img.Prog); err == nil {
				commits := int64(goldenInstrs/s.cfg.CheckpointEvery) + 1
				traffic := commits * int64(len(est)+64)
				storeFS.Crash(int64(crashFrac * float64(traffic)))
			}
		}
		if !s.cfg.Chaos || rng.Float64() >= s.cfg.ChaosRate {
			return
		}
		inj := fault.Injection{
			Kind: s.cfg.ChaosKinds[rng.Intn(len(s.cfg.ChaosKinds))],
			At:   uint64(rng.Int63n(int64(goldenInstrs))),
		}
		if eng.Arm(p, scheme, inj, rng) == nil {
			injected++
		}
	})
	if proc == nil {
		return nil, &BootError{Err: runErr}
	}
	if runErr != nil && errors.Is(runErr, kernel.ErrCancelled) {
		return nil, fmt.Errorf("%w: %w", ErrDeadline, runErr)
	}

	outcome, cause, err := eng.ClassifyRun(scheme, runErr, proc)
	if err != nil {
		return nil, err
	}
	s.m.cycles.Observe(proc.Cycles())
	attempts := len(sup.Attempts)
	switch outcome {
	case fault.OutcomeDetected:
		return nil, &CorruptionError{
			Cause: cause, Kill: proc.Kill, Attempts: attempts,
			Injected: injected, Cycles: proc.Cycles(),
		}
	case fault.OutcomeSilent:
		return nil, &SilentCorruptionError{
			Output: string(proc.Output), Want: string(goldenOut),
			ExitCode: proc.ExitCode, WantExit: goldenExit,
			Cycles: proc.Cycles(),
		}
	}
	var instrs uint64
	for _, t := range proc.Tasks {
		instrs += t.M.Instrs
	}
	res := &Result{
		Workload:    workloadName,
		Scheme:      schemeName(scheme),
		Output:      string(proc.Output),
		ExitCode:    proc.ExitCode,
		Instrs:      instrs,
		Cycles:      proc.Cycles(),
		Attempts:    attempts,
		Healed:      attempts > 1,
		Injected:    injected,
		Checkpoints: sup.Commits,
		Restores:    sup.Restores,
		TornCommits: sup.CommitErrs,
	}
	return res, nil
}

// pool returns (building on first use) the warm pool for the
// (workload, scheme) pair. Concurrent first-use builds race benignly:
// the loser's template is discarded.
func (s *Server) pool(workloadName string, sc compile.Scheme) (*pool.Pool, error) {
	if workloadName == "" {
		workloadName = "chain"
	}
	key := workloadName + "/" + schemeName(sc)
	s.mu.Lock()
	pl, ok := s.pools[key]
	s.mu.Unlock()
	if ok {
		return pl, nil
	}
	eng, err := s.engine(workloadName)
	if err != nil {
		return nil, err
	}
	img, err := eng.Image(sc)
	if err != nil {
		return nil, err
	}
	seed := s.cfg.Seed
	for _, c := range key {
		seed = Mix(seed, int64(c)+0x9001)
	}
	scheme := sc
	built, err := pool.New(pool.Config{
		Img:         img,
		PA:          pa.DefaultConfig(),
		Seed:        seed,
		Configure:   func(p *kernel.Process) { fault.Harden(scheme, p) },
		Shards:      par.Workers(),
		MaxMachines: s.cfg.PoolMachines,
		Tel:         s.m.pool,
	})
	if err != nil {
		return nil, err
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if pl, ok := s.pools[key]; ok {
		return pl, nil
	}
	s.pools[key] = built
	return built, nil
}

// BootImage returns the warm pool's encoded boot image for the
// (workload, scheme) pair — what cluster migration ships so the
// survivor can re-pool it. Only meaningful on a warm server.
func (s *Server) BootImage(workloadName, schemeStr string) ([]byte, error) {
	sc, err := ParseScheme(schemeStr)
	if err != nil {
		return nil, err
	}
	pl, err := s.pool(workloadName, sc)
	if err != nil {
		return nil, err
	}
	return pl.Image().Bytes(), nil
}

// AdoptBootImage re-pools a shipped encoded boot image (the cluster
// migration path): the (workload, scheme) pool verifies the image
// against its program and serves later restores from it. A no-op on a
// cold server.
func (s *Server) AdoptBootImage(workloadName, schemeStr string, raw []byte) error {
	if !s.cfg.Warm {
		return nil
	}
	sc, err := ParseScheme(schemeStr)
	if err != nil {
		return err
	}
	bi, err := snap.NewBootImage(raw)
	if err != nil {
		return err
	}
	pl, err := s.pool(workloadName, sc)
	if err != nil {
		return err
	}
	return pl.Adopt(bi)
}

// PoolStats reads the warm-pool counters from the registry: restores
// served, cold fallbacks, key violations, and current occupancy.
func (s *Server) PoolStats() (restores, coldFallbacks, keyViolations uint64, occupancy int64) {
	return s.m.pool.Restores.Value(), s.m.pool.ColdFallback.Value(),
		s.m.pool.KeyViolations.Value(), s.m.pool.Occupancy.Value()
}

// DoBatch executes a batch of requests across the internal/par worker
// pool and returns per-request results and errors (indexed like reqs).
// This is the batched execution path the warm pool is shaped for: each
// worker leases a machine from its own shard, restores it, and runs
// the victim in StepN quanta, so the trace-compiled engine's dispatch
// and the pool's lease cost amortize across the queued batch instead
// of being paid per call.
func (s *Server) DoBatch(ctx context.Context, reqs []Request) ([]*Result, []error) {
	results := make([]*Result, len(reqs))
	errs := make([]error, len(reqs))
	if err := par.ForEachCtx(ctx, len(reqs), func(i int) error {
		results[i], errs[i] = s.Do(ctx, reqs[i])
		return nil
	}); err != nil {
		for i := range errs {
			if errs[i] == nil && results[i] == nil {
				errs[i] = err
			}
		}
	}
	return results, errs
}

// BeginDrain stops admitting new requests (the SIGTERM path's first
// half); in-flight and queued work keeps running.
func (s *Server) BeginDrain() { s.adm.Close() }

// Draining reports whether BeginDrain has been called.
func (s *Server) Draining() bool { return s.adm.Closing() }

// Drain stops admission and blocks until every in-flight request has
// finished (or ctx expires) — the "no request lost" half of graceful
// shutdown.
func (s *Server) Drain(ctx context.Context) error { return s.adm.Drain(ctx) }

// InFlight returns the number of admitted, unfinished requests.
func (s *Server) InFlight() int { return s.adm.InFlight() }

// Snapshot is a point-in-time copy of the server counters, shaped for
// the /v1/stats JSON surface and the shutdown report. Since the
// registry migration it is a thin read over the same telemetry handles
// /metrics exposes; the shape (and the tests that rely on it) is
// unchanged.
type Snapshot struct {
	Requests         uint64            `json:"requests"`
	OK               uint64            `json:"ok"`
	Healed           uint64            `json:"healed"`
	Detected         uint64            `json:"detected"`
	DetectedByCause  map[string]uint64 `json:"detected_by_cause,omitempty"`
	Silent           uint64            `json:"silent"`
	Shed             uint64            `json:"shed"`
	RejectedDraining uint64            `json:"rejected_draining"`
	BreakerDenied    uint64            `json:"breaker_denied"`
	BreakerOpens     map[string]uint64 `json:"breaker_opens,omitempty"`
	DeadlineExceeded uint64            `json:"deadline_exceeded"`
	Panics           uint64            `json:"panics"`
	BadRequests      uint64            `json:"bad_requests"`
	Internal         uint64            `json:"internal_errors"`
	Checkpoints      uint64            `json:"checkpoints,omitempty"`
	Restores         uint64            `json:"restores,omitempty"`
	TornCommits      uint64            `json:"torn_commits,omitempty"`
	InFlight         int               `json:"in_flight"`
	Queued           int               `json:"queued"`
	Draining         bool              `json:"draining"`
}

// Stats returns a snapshot of the server counters, read from the
// telemetry registry.
func (s *Server) Stats() Snapshot {
	snap := Snapshot{
		Requests:         s.m.requests.Value(),
		OK:               s.m.outcomes.With(outOK).Value(),
		Healed:           s.m.healed.Value(),
		Detected:         s.m.outcomes.With(outDetected).Value(),
		Silent:           s.m.outcomes.With(outSilent).Value(),
		Shed:             s.m.outcomes.With(outShed).Value(),
		RejectedDraining: s.m.outcomes.With(outDraining).Value(),
		BreakerDenied:    s.m.outcomes.With(outBreakerDenied).Value(),
		DeadlineExceeded: s.m.outcomes.With(outDeadline).Value(),
		Panics:           s.m.outcomes.With(outPanic).Value(),
		BadRequests:      s.m.outcomes.With(outBadRequest).Value(),
		Internal:         s.m.outcomes.With(outInternal).Value(),
		Checkpoints:      s.m.sup.Commits.Value(),
		Restores:         s.m.sup.Restores.Value(),
		TornCommits:      s.m.sup.CommitErrs.Value(),
	}
	if snap.Detected > 0 {
		snap.DetectedByCause = make(map[string]uint64)
		for _, name := range causeNames() {
			if n := s.m.byCause.With(name).Value(); n > 0 {
				snap.DetectedByCause[name] = n
			}
		}
	}

	s.mu.Lock()
	for sc, br := range s.breakers {
		if n := br.Opens(); n > 0 {
			if snap.BreakerOpens == nil {
				snap.BreakerOpens = make(map[string]uint64)
			}
			snap.BreakerOpens[schemeName(sc)] = n
		}
	}
	s.mu.Unlock()

	snap.InFlight = s.adm.InFlight()
	snap.Queued = s.adm.Queued()
	snap.Draining = s.adm.Closing()
	return snap
}
