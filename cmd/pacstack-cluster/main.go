// Command pacstack-cluster drives the multi-backend serving tier
// (internal/cluster) in two modes.
//
// Default mode runs the deterministic cluster soak: N modeled backends
// behind the breaker-aware router take seeded virtual-time traffic,
// optionally losing backends mid-run (-kill-at takes a comma-separated
// list of virtual cycles for a cascading-failure scenario). Each dead
// backend's checkpointed machines migrate to a survivor over the snap
// codec with re-seeded PA keys, and its in-flight requests replay
// exactly once — while the failover budget lasts; deaths beyond the
// budget abandon their orphans loudly. One seed produces a
// byte-identical report on any machine at any worker-pool width
// (-par) — run it twice and diff.
//
//	pacstack-cluster [-backends N] [-clients N] [-requests N]
//	                 [-workload NAME] [-schemes LIST] [-seed N]
//	                 [-chaos-rate F] [-chaos-kinds LIST] [-heal N]
//	                 [-workers N] [-queue N] [-retries N]
//	                 [-breaker-threshold N] [-checkpoint-every N]
//	                 [-checkpoint-crash F] [-kill-at CYCLES[,CYCLES...]]
//	                 [-kill-backend N[,N...]] [-migrate-latency CYCLES]
//	                 [-failover-budget N] [-par N]
//	                 [-json] [-check] [-telemetry-dump PATH]
//
// With -check, the exit status enforces the failover acceptance
// criteria: non-zero unless every request reached a terminal state
// (zero silent losses), migrated machines restored with re-seeded
// keys, no request replayed twice, and the restart budget was charged
// exactly once per absorbed kill.
//
// With -traffic, the soak takes the serving tier's open-loop traffic
// model instead of the closed client loop: heavy-tailed arrival
// classes with per-class SLOs, optionally a network fault mesh
// (-mesh FILE or -mesh-gray N), and the chaos-mesh defense — hedged
// requests (-hedge), the cluster-global retry budget, outlier
// ejection, priority brownout and vertical core scaling
// (-vertical-max) — all switched on together by -resilient. The
// report gains the per-class SLO evaluation (-slo-report writes it as
// JSON) and stays byte-identical across -par widths. The model decides
// arrivals and workloads and nothing dies, so -clients, -requests,
// -workload, -schemes, -migrate-latency and -failover-budget are
// refused in this mode.
//
// With -daemon, it serves the live fleet over HTTP instead:
//
//	POST /v1/run         route one workload through the cluster
//	GET  /v1/cluster     fleet status (liveness, breakers, machines)
//	POST /v1/kill?backend=N   kill a backend: drain, migrate, re-seed
//	GET  /v1/mesh        live link state (config + up/down ruling)
//	POST /v1/mesh        replace the live link state wholesale
//	GET  /metrics /events /v1/telemetry /healthz   as in pacstack-serve
//
// With -daemon -state-dir DIR, each backend's store in DIR/backend-N
// runs its recovery pass at startup and the report is logged, and a
// final boot-state checkpoint per alive backend is committed there
// after the SIGTERM drain — pacstack-serve's -state-dir, per fleet
// member. No backend restores from its store. -daemon refuses the
// flags only the soak reads, and the soak refuses the daemon's -cold,
// -addr, -timeout, -drain-timeout and -state-dir.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"log"
	"net/http"
	"os"
	"os/signal"
	"path/filepath"
	"slices"
	"strconv"
	"strings"
	"syscall"
	"time"

	"pacstack/internal/cluster"
	"pacstack/internal/harness"
	"pacstack/internal/mesh"
	"pacstack/internal/par"
	"pacstack/internal/resilience"
	"pacstack/internal/serve"
	"pacstack/internal/snap"
	"pacstack/internal/traffic"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("pacstack-cluster: ")
	backends := flag.Int("backends", 3, "fleet width")
	clients := flag.Int("clients", 8, "concurrent virtual clients (soak)")
	requests := flag.Int("requests", 25, "requests per client (soak)")
	workload := flag.String("workload", "chain", "workload name")
	schemes := flag.String("schemes", "pacstack", "comma-separated scheme list; requests round-robin across it")
	seed := flag.Int64("seed", 1, "cluster seed (same seed, byte-identical soak report)")
	chaosRate := flag.Float64("chaos-rate", 0.1, "per-attempt fault-injection probability")
	chaosKinds := flag.String("chaos-kinds", "", "comma-separated kinds: bitflip, retaddr, smash, register, sigframe (default retaddr,smash,sigframe)")
	heal := flag.Int("heal", 0, "supervised respawns per request after a detected kill")
	checkpointEvery := flag.Uint64("checkpoint-every", 0, "per-request snapshot commit interval in instructions (0: off)")
	checkpointCrash := flag.Float64("checkpoint-crash", 0, "per-request probability of a machine death mid-checkpoint")
	workers := flag.Int("workers", 2, "modelled workers per backend")
	queue := flag.Int("queue", 0, "modelled per-backend queue (0: 2*workers, <0: none)")
	retries := flag.Int("retries", 3, "client retry budget for sheds and breaker denials")
	brThreshold := flag.Int("breaker-threshold", 8, "per-backend breaker threshold (<0: disabled)")
	killAt := flag.String("kill-at", "", "comma-separated virtual cycles; one backend dies at each (empty: never)")
	killBackend := flag.String("kill-backend", "", "comma-separated victims aligned with -kill-at (missing or <0: seeded pick)")
	migrateLatency := flag.Uint64("migrate-latency", 5_000, "virtual cycles to ship snapshots and replay orphans")
	failoverBudget := flag.Int("failover-budget", 1, "backend deaths the cluster absorbs with migration")
	parWidth := flag.Int("par", 0, "precompute worker-pool width (0: GOMAXPROCS); the report must not depend on it")
	var out harness.SoakOutput
	flag.BoolVar(&out.JSON, "json", false, "emit the report as JSON instead of the table")
	flag.BoolVar(&out.Check, "check", false, "exit non-zero unless the failover criteria hold (zero silent losses, keys re-seeded, budget charged once)")
	flag.StringVar(&out.TelemetryDump, "telemetry-dump", "", "write the run's telemetry (metrics + events) as JSON to this path")

	trafficMode := flag.String("traffic", "", "open-loop traffic model: default or burst (empty: closed client loop)")
	cores := flag.Int("cores", 0, "modelled cores per backend for the contention model (traffic mode; 0: default)")
	meshFile := flag.String("mesh", "", "JSON mesh.Config file with per-backend link faults (traffic mode)")
	meshGray := flag.Int("mesh-gray", -1, "put the canned gray link (slow, lossy, never dead) on this backend (traffic mode; <0: none)")
	hedge := flag.Bool("hedge", false, "hedge slow requests onto the next-ranked backend (traffic mode)")
	outlier := flag.Bool("outlier", false, "eject statistical-outlier backends from routing (traffic mode)")
	brownout := flag.Bool("brownout", false, "shed low-priority classes under overload (traffic mode)")
	verticalMax := flag.Int("vertical-max", 0, "vertically scale per-backend cores up to this cap (traffic mode; 0: off)")
	resilient := flag.Bool("resilient", false, "enable the full chaos-mesh defense: hedging, retry budget, outlier ejection, brownout")
	flag.StringVar(&out.SLOReport, "slo-report", "", "write the per-class SLO evaluation as JSON to this path (traffic mode)")

	daemon := flag.Bool("daemon", false, "serve the live fleet over HTTP instead of running the soak")
	coldDaemon := flag.Bool("cold", false, "daemon backends boot a fresh machine per request instead of serving from warm snapshot-fork pools")
	addr := flag.String("addr", ":8438", "listen address (daemon)")
	timeout := flag.Duration("timeout", 10*time.Second, "per-request deadline (daemon; 0: none)")
	drainWait := flag.Duration("drain-timeout", 30*time.Second, "shutdown drain deadline (daemon)")
	stateDir := flag.String("state-dir", "", "per-backend on-disk snapshot stores (daemon); recovered at startup, final checkpoints committed on graceful shutdown")
	flag.Parse()
	var given []string
	flag.Visit(func(f *flag.Flag) { given = append(given, f.Name) })
	if err := modeError(given, *daemon, *trafficMode != ""); err != nil {
		log.Fatal(err)
	}

	kinds, err := serve.ParseKinds(*chaosKinds)
	if err != nil {
		log.Fatal(err)
	}
	schemeList := strings.Split(*schemes, ",")
	killList, err := parseKills(*killAt, *killBackend)
	if err != nil {
		log.Fatal(err)
	}

	if *daemon {
		cl, err := cluster.New(cluster.Config{
			Backends: *backends,
			Seed:     *seed,
			Backend: serve.Config{
				Workers:         *workers,
				Queue:           *queue,
				Chaos:           *chaosRate > 0,
				ChaosRate:       *chaosRate,
				ChaosKinds:      kinds,
				Heal:            *heal,
				CheckpointEvery: *checkpointEvery,
				Timeout:         *timeout,
				Warm:            !*coldDaemon,
			},
			MachineSchemes:   schemeList,
			BreakerThreshold: *brThreshold,
			FailoverBudget:   *failoverBudget,
		})
		if err != nil {
			log.Fatal(err)
		}
		runDaemon(cl, *addr, *drainWait, *stateDir)
		return
	}

	if *parWidth > 0 {
		restore := par.SetWorkers(*parWidth)
		defer restore()
	}

	cfg := cluster.SoakConfig{
		SoakConfig: serve.SoakConfig{
			Clients:          *clients,
			Requests:         *requests,
			Workload:         *workload,
			Schemes:          schemeList,
			Seed:             *seed,
			ChaosRate:        *chaosRate,
			ChaosKinds:       kinds,
			Heal:             *heal,
			CheckpointEvery:  *checkpointEvery,
			CheckpointCrash:  *checkpointCrash,
			Workers:          *workers,
			Queue:            *queue,
			Cores:            *cores,
			Retries:          *retries,
			BreakerThreshold: *brThreshold,
		},
		Backends:       *backends,
		Kills:          killList,
		MigrateLatency: *migrateLatency,
		FailoverBudget: *failoverBudget,
	}

	if *trafficMode != "" {
		var model traffic.Model
		switch *trafficMode {
		case "default":
			model = traffic.Default(*seed)
		case "burst":
			model = traffic.BurstScenario(*seed)
		default:
			log.Fatalf("unknown -traffic mode %q (want default or burst)", *trafficMode)
		}
		cfg.Traffic = &model
	}
	meshCfg, err := loadMesh(*meshFile, *meshGray)
	if err != nil {
		log.Fatal(err)
	}
	cfg.Mesh = meshCfg
	if *resilient {
		// The canned defense: the same shape the mesh gate's resilient
		// arm runs, minus its fleet sizing.
		gate := cluster.MeshGateConfig(*seed, true)
		cfg.Hedge = gate.Hedge
		cfg.RetryBudget = gate.RetryBudget
		cfg.Outlier = gate.Outlier
		cfg.Brownout = gate.Brownout
	}
	cfg.Hedge = cfg.Hedge || *hedge
	if *outlier && cfg.Outlier == nil {
		cfg.Outlier = &cluster.OutlierConfig{}
	}
	if *brownout && cfg.Brownout == nil {
		cfg.Brownout = &cluster.BrownoutConfig{}
	}
	if *verticalMax > 0 {
		cfg.VerticalAdaptive = &resilience.AIMDConfig{Max: *verticalMax}
	}

	cfg.Telemetry = out.Telemetry()
	rep, err := cluster.Soak(context.Background(), cfg)
	if err != nil {
		log.Fatal(err)
	}
	out.Write("pacstack-cluster", rep, rep.SLO, harness.ClusterSoak(rep))
}

// Flags that one mode reads and the others would ignore.
var (
	daemonOnly = []string{"cold", "addr", "timeout", "drain-timeout", "state-dir"}
	soakOnly   = []string{"clients", "requests", "workload", "checkpoint-crash", "retries",
		"kill-at", "kill-backend", "migrate-latency", "par", "json", "check", "telemetry-dump",
		"traffic", "cores", "mesh", "mesh-gray", "hedge", "outlier", "brownout", "vertical-max",
		"resilient", "slo-report"}
	closedLoopOnly = []string{"clients", "requests", "workload", "schemes", "migrate-latency", "failover-budget"}
)

// modeError refuses the first flag in given (the names set on the
// command line) that the selected mode would ignore: a soak flag under
// -daemon, a daemon flag without it, or a closed-loop flag in a
// traffic-mode soak.
func modeError(given []string, daemon, traffic bool) error {
	for _, name := range given {
		switch {
		case daemon && slices.Contains(soakOnly, name):
			return fmt.Errorf("-%s applies to the soak, not to -daemon", name)
		case !daemon && slices.Contains(daemonOnly, name):
			return fmt.Errorf("-%s needs -daemon", name)
		case !daemon && traffic && slices.Contains(closedLoopOnly, name):
			return fmt.Errorf("-%s does not apply to a traffic-mode run (-traffic): the model decides arrivals and workloads, and no backend dies", name)
		}
	}
	return nil
}

// parseKills turns the -kill-at / -kill-backend comma lists into kill
// specs. Backends align positionally with the cycles; a missing or
// negative entry means a seeded pick from the then-alive backends.
func parseKills(ats, backends string) ([]cluster.KillSpec, error) {
	if strings.TrimSpace(ats) == "" {
		if strings.TrimSpace(backends) != "" {
			return nil, fmt.Errorf("-kill-backend without -kill-at")
		}
		return nil, nil
	}
	atParts := strings.Split(ats, ",")
	var beParts []string
	if strings.TrimSpace(backends) != "" {
		beParts = strings.Split(backends, ",")
		if len(beParts) > len(atParts) {
			return nil, fmt.Errorf("-kill-backend lists %d victims for %d kills", len(beParts), len(atParts))
		}
	}
	kills := make([]cluster.KillSpec, 0, len(atParts))
	for i, p := range atParts {
		at, err := strconv.ParseUint(strings.TrimSpace(p), 10, 64)
		if err != nil || at == 0 {
			return nil, fmt.Errorf("-kill-at entry %d: want a positive virtual cycle, got %q", i, p)
		}
		spec := cluster.KillSpec{At: at, Backend: -1}
		if i < len(beParts) {
			b, err := strconv.Atoi(strings.TrimSpace(beParts[i]))
			if err != nil {
				return nil, fmt.Errorf("-kill-backend entry %d: %q", i, beParts[i])
			}
			spec.Backend = b
		}
		kills = append(kills, spec)
	}
	return kills, nil
}

// loadMesh builds the soak's mesh config from the flags: a JSON file,
// the canned gray link on one backend, or both (the gray link wins a
// collision on its index). Nil when neither flag is set.
func loadMesh(file string, gray int) (*mesh.Config, error) {
	var cfg mesh.Config
	if file != "" {
		data, err := os.ReadFile(file)
		if err != nil {
			return nil, err
		}
		if err := json.Unmarshal(data, &cfg); err != nil {
			return nil, fmt.Errorf("mesh file %s: %w", file, err)
		}
	}
	if gray >= 0 {
		if cfg.Links == nil {
			cfg.Links = map[int]mesh.LinkConfig{}
		}
		cfg.Links[gray] = mesh.Gray()
	}
	if len(cfg.Links) == 0 {
		return nil, nil
	}
	return &cfg, nil
}

// runDaemon serves the live fleet until SIGTERM/SIGINT, then drains
// every backend and exits with the fleet status logged. With stateDir,
// each backend's store in DIR/backend-N is recovery-checked (the report
// logged, nothing restored) before traffic, and a final checkpoint is
// committed there after the drain.
func runDaemon(cl *cluster.Cluster, addr string, drainWait time.Duration, stateDir string) {
	stores := make([]*snap.Store, cl.Size())
	if stateDir != "" {
		for i := 0; i < cl.Size(); i++ {
			dir := filepath.Join(stateDir, fmt.Sprintf("backend-%d", i))
			fs, err := snap.NewDirFS(dir)
			if err != nil {
				log.Fatal(err)
			}
			st := snap.NewStore(fs)
			st.Tel = snap.NewTelemetry(cl.Telemetry().Registry())
			_, _, rep, err := st.Recover()
			switch {
			case errors.Is(err, snap.ErrNoSnapshot):
				log.Printf("state dir %s: no prior checkpoint (fresh start)", dir)
			case err != nil:
				log.Fatalf("state dir %s: recovery failed: %v", dir, err)
			default:
				log.Printf("state dir %s: recovered checkpoint seq %d (%d snapshot(s), %d anomalies)",
					dir, rep.RestoredSeq, len(rep.Snapshots), len(rep.Anomalies))
				for _, a := range rep.Anomalies {
					log.Printf("state dir anomaly: %s %s: %s", a.Kind, a.Name, a.Detail)
				}
			}
			stores[i] = st
		}
	}
	httpSrv := &http.Server{
		Addr:              addr,
		Handler:           cl.Handler(),
		ReadHeaderTimeout: 5 * time.Second,
		ReadTimeout:       15 * time.Second,
		IdleTimeout:       120 * time.Second,
	}
	errc := make(chan error, 1)
	go func() {
		st := cl.Status()
		log.Printf("listening on %s (%d backends alive)", addr, st.Alive)
		errc <- httpSrv.ListenAndServe()
	}()

	sigc := make(chan os.Signal, 1)
	signal.Notify(sigc, syscall.SIGTERM, syscall.SIGINT)
	select {
	case sig := <-sigc:
		log.Printf("%s: draining fleet", sig)
	case err := <-errc:
		log.Fatal(err)
	}

	ctx, cancel := context.WithTimeout(context.Background(), drainWait)
	defer cancel()
	if err := cl.Drain(ctx); err != nil {
		log.Printf("drain incomplete: %v", err)
	}
	if err := httpSrv.Shutdown(ctx); err != nil && !errors.Is(err, context.DeadlineExceeded) {
		log.Printf("shutdown: %v", err)
	}
	<-errc

	// Final checkpoints only after the drain, and only for backends
	// that are still alive — a killed backend's machines migrated away
	// and its durable record belongs to the survivor that took them.
	if stateDir != "" {
		for i := 0; i < cl.Size(); i++ {
			srv, alive := cl.Server(i)
			if !alive {
				log.Printf("backend %d: dead, no final checkpoint", i)
				continue
			}
			n, err := srv.FinalCheckpoint(stores[i])
			if err != nil {
				log.Printf("backend %d: final checkpoint incomplete after %d commit(s): %v", i, n, err)
			} else {
				log.Printf("backend %d: final checkpoint, %d scheme snapshot(s) committed", i, n)
			}
		}
	}

	out, _ := json.MarshalIndent(cl.Status(), "", "  ")
	log.Printf("final cluster status:\n%s", out)
	log.Printf("drained cleanly")
}
