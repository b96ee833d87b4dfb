// Command pacstack-soak drives the deterministic chaos soak: a
// discrete-event simulation of concurrent clients hammering the
// serving layer (internal/serve) in virtual time, with seeded fault
// injection, client retry/backoff, per-scheme circuit breaking and
// bounded-queue load shedding. Request outcomes are precomputed on a
// real parallel worker pool; the traffic replay is serial and
// virtual-timed, so one seed produces a byte-identical report on any
// machine — run it twice and diff.
//
// Usage:
//
//	pacstack-soak [-clients N] [-requests N] [-workload NAME]
//	              [-schemes LIST] [-seed N] [-chaos-rate F]
//	              [-chaos-kinds LIST] [-heal N] [-workers N] [-queue N]
//	              [-retries N] [-breaker-threshold N]
//	              [-checkpoint-every N] [-checkpoint-crash F]
//	              [-traffic default|burst] [-traffic-rate F]
//	              [-traffic-horizon N] [-traffic-hostile]
//	              [-burst-factor F] [-cores N]
//	              [-adaptive] [-adaptive-max N] [-adaptive-step N]
//	              [-adaptive-interval N] [-adaptive-target N]
//	              [-boot-model cold|warm] [-warm-gate]
//	              [-slo-report PATH] [-traffic-gate] [-par N]
//	              [-json] [-check] [-telemetry-dump PATH]
//	              [-cpuprofile FILE] [-memprofile FILE]
//
// With -traffic, the closed-loop client model is replaced by the
// open-loop heavy-tail replay (internal/traffic): a seeded
// diurnal/burst arrival stream over a production-shaped cost mixture,
// per-class SLO evaluation appended to the report, and — with
// -adaptive — the clock-free AIMD controller resizing the admission
// limit in virtual time. -clients/-requests/-workload are ignored in
// this mode; the model decides arrivals and workloads.
//
// With -traffic-gate, the canned burst scenario (traffic.BurstScenario)
// runs twice with the other flags' parameters — once static, once
// adaptive — and the exit status is non-zero unless the adaptive run
// holds every class SLO where the static run demonstrably fails. This
// is the check.sh overload-control criterion.
//
// With -boot-model, machine acquisition is charged in virtual time:
// "cold" prices every execution at the modeled full-boot cost, "warm"
// serves from the snapshot-fork pools (internal/pool) and prices the
// restore. The report gains a requests/virtual-second line either way.
// Outcomes are identical across models (warm restores replay the cold
// entropy stream), so the ratio isolates acquisition cost.
//
// With -warm-gate, the warm-pool acceptance gate runs: the closed-loop
// soak twice (cold model, then warm) with breakers and shedding
// disabled — outcomes must be identical and warm throughput at least
// 10x cold — then the boot-dominated open-loop fork-server scenario
// twice, where warm must clear 20x cold requests/virtual-second. Zero
// §4.3 key violations are required throughout. Non-zero exit on any
// miss.
//
// With -check, the exit status enforces the robustness acceptance
// criteria: non-zero if any silent corruption was recorded or the run
// was not graceful (some request never reached a terminal state). On
// failure the full report is written to a temp file and its path
// printed, so a failing gate leaves something to diff.
//
// With -telemetry-dump, the run's full telemetry (virtual-time
// metrics registry plus security event ring) is written to PATH as
// JSON — byte-identical for one seed, which is what the soak goldens
// (TestSoakGoldens, testdata/soak) rest on.
//
// The -cpuprofile / -memprofile flags (same contract as
// pacstack-bench) write pprof profiles of the run, so the execution
// engine can be profiled under serving load — outcome precompute,
// checkpointing and chaos included — not just under the bare
// benchmark loop.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"log"
	"os"
	"runtime"
	"runtime/pprof"
	"strings"

	"pacstack/internal/harness"
	"pacstack/internal/par"
	"pacstack/internal/resilience"
	"pacstack/internal/serve"
	"pacstack/internal/telemetry"
	"pacstack/internal/traffic"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("pacstack-soak: ")
	clients := flag.Int("clients", 8, "concurrent virtual clients")
	requests := flag.Int("requests", 25, "requests per client")
	workload := flag.String("workload", "chain", "workload name")
	schemes := flag.String("schemes", "pacstack", "comma-separated scheme list; requests round-robin across it")
	seed := flag.Int64("seed", 1, "soak seed (same seed, byte-identical report)")
	chaosRate := flag.Float64("chaos-rate", 0.1, "per-attempt fault-injection probability")
	chaosKinds := flag.String("chaos-kinds", "", "comma-separated kinds: bitflip, retaddr, smash, register, sigframe (default retaddr,smash,sigframe)")
	heal := flag.Int("heal", 0, "supervised respawns per request after a detected kill")
	checkpointEvery := flag.Uint64("checkpoint-every", 0, "per-request snapshot commit interval in instructions (0: off)")
	checkpointCrash := flag.Float64("checkpoint-crash", 0, "per-request probability of a machine death mid-checkpoint")
	workers := flag.Int("workers", 4, "modelled server workers")
	queue := flag.Int("queue", 0, "modelled admission queue (0: 2*workers, <0: none)")
	retries := flag.Int("retries", 3, "client retry budget for sheds and breaker denials")
	brThreshold := flag.Int("breaker-threshold", 8, "breaker threshold in the traffic model (<0: disabled)")
	trafficMode := flag.String("traffic", "", "open-loop traffic model: default or burst (empty: closed-loop clients)")
	trafficRate := flag.Float64("traffic-rate", 0, "override the model's base arrival rate per kcycle (0: model default)")
	trafficHorizon := flag.Uint64("traffic-horizon", 0, "override the model's horizon in virtual cycles (0: model default)")
	trafficHostile := flag.Bool("traffic-hostile", false, "add the hostile classes (slow clients, poison requests) to the model")
	burstFactor := flag.Float64("burst-factor", 0, "override every burst overlay's rate multiplier (0: model default)")
	cores := flag.Int("cores", 0, "modelled host cores bounding the contention penalty in traffic mode (0: workers)")
	adaptive := flag.Bool("adaptive", false, "resize the admission limit with the AIMD controller (traffic mode)")
	adaptiveMax := flag.Int("adaptive-max", 48, "AIMD limit ceiling")
	adaptiveStep := flag.Int("adaptive-step", 4, "AIMD additive-increase step")
	adaptiveInterval := flag.Uint64("adaptive-interval", 0, "AIMD control-window length in virtual cycles (0: 10000)")
	adaptiveTarget := flag.Uint64("adaptive-target", 0, "AIMD service-dilation congestion target in cycles (0: 1048576)")
	bootModel := flag.String("boot-model", "", "machine-acquisition cost model: cold or warm (empty: acquisition-free legacy model)")
	warmGate := flag.Bool("warm-gate", false, "run the warm-vs-cold acceptance gate; exit non-zero unless warm clears the throughput floors with identical outcomes and zero key violations")
	sloReport := flag.String("slo-report", "", "write the SLO report as JSON to this path (traffic mode)")
	trafficGate := flag.Bool("traffic-gate", false, "run the canned burst scenario static then adaptive; exit non-zero unless adaptive holds every SLO where static fails")
	parWidth := flag.Int("par", 0, "precompute worker-pool width (0: GOMAXPROCS); the report must not depend on it")
	asJSON := flag.Bool("json", false, "emit the report as JSON instead of the table")
	check := flag.Bool("check", false, "exit non-zero on silent corruption or a non-graceful run")
	telemetryDump := flag.String("telemetry-dump", "", "write the run's telemetry (metrics + events) as JSON to this path")
	cpuProfile := flag.String("cpuprofile", "", "write a pprof CPU profile to this file")
	memProfile := flag.String("memprofile", "", "write a pprof heap profile to this file on exit")
	flag.Parse()

	if *parWidth > 0 {
		restore := par.SetWorkers(*parWidth)
		defer restore()
	}

	if *cpuProfile != "" {
		f, err := os.Create(*cpuProfile)
		if err != nil {
			log.Fatal(err)
		}
		defer f.Close()
		if err := pprof.StartCPUProfile(f); err != nil {
			log.Fatal(err)
		}
		defer pprof.StopCPUProfile()
	}
	if *memProfile != "" {
		defer func() {
			f, err := os.Create(*memProfile)
			if err != nil {
				log.Fatal(err)
			}
			defer f.Close()
			runtime.GC()
			if err := pprof.WriteHeapProfile(f); err != nil {
				log.Fatal(err)
			}
		}()
	}

	kinds, err := serve.ParseKinds(*chaosKinds)
	if err != nil {
		log.Fatal(err)
	}

	var aimd *resilience.AIMDConfig
	if *adaptive || *trafficGate {
		aimd = &resilience.AIMDConfig{
			Max:           *adaptiveMax,
			Step:          *adaptiveStep,
			Interval:      *adaptiveInterval,
			LatencyTarget: *adaptiveTarget,
		}
	}
	baseCfg := serve.SoakConfig{
		Clients:          *clients,
		Requests:         *requests,
		Workload:         *workload,
		Schemes:          strings.Split(*schemes, ","),
		Seed:             *seed,
		ChaosRate:        *chaosRate,
		ChaosKinds:       kinds,
		Heal:             *heal,
		CheckpointEvery:  *checkpointEvery,
		CheckpointCrash:  *checkpointCrash,
		Workers:          *workers,
		Queue:            *queue,
		Retries:          *retries,
		BreakerThreshold: *brThreshold,
		Cores:            *cores,
		BootModel:        *bootModel,
	}

	if *trafficGate {
		os.Exit(runTrafficGate(baseCfg, aimd, *asJSON))
	}
	if *warmGate {
		os.Exit(runWarmGate(baseCfg, *asJSON))
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
		if *trafficHostile {
			have := map[string]bool{}
			for _, c := range model.Classes {
				have[c.Name] = true
			}
			for _, c := range traffic.HostileClasses() {
				if !have[c.Name] {
					model.Classes = append(model.Classes, c)
				}
			}
		}
		if *trafficRate > 0 {
			model.Rate = *trafficRate
		}
		if *trafficHorizon > 0 {
			model.Horizon = *trafficHorizon
		}
		if *burstFactor > 0 {
			for i := range model.Bursts {
				model.Bursts[i].Factor = *burstFactor
			}
		}
		baseCfg.Traffic = &model
		if *adaptive {
			baseCfg.Adaptive = aimd
		}
	}

	var tel *telemetry.Set
	if *telemetryDump != "" {
		tel = telemetry.New(telemetry.Options{})
	}
	baseCfg.Telemetry = tel
	rep, err := serve.Soak(context.Background(), baseCfg)
	if err != nil {
		log.Fatal(err)
	}

	if *sloReport != "" {
		if rep.SLO == nil {
			log.Fatal("-slo-report needs a traffic-mode run (-traffic)")
		}
		out, err := json.MarshalIndent(rep.SLO, "", "  ")
		if err != nil {
			log.Fatal(err)
		}
		if err := os.WriteFile(*sloReport, append(out, '\n'), 0o644); err != nil {
			log.Fatal(err)
		}
	}

	if *telemetryDump != "" {
		f, err := os.Create(*telemetryDump)
		if err != nil {
			log.Fatal(err)
		}
		if err := tel.WriteJSON(f); err != nil {
			log.Fatal(err)
		}
		if err := f.Close(); err != nil {
			log.Fatal(err)
		}
	}

	if *asJSON {
		out, err := json.MarshalIndent(rep, "", "  ")
		if err != nil {
			log.Fatal(err)
		}
		fmt.Println(string(out))
	} else {
		fmt.Print(harness.Soak(rep))
	}

	if *check {
		fail := func(format string, args ...any) {
			log.Printf(format, args...)
			// Leave the full report on disk so the failure can be
			// diffed against a known-good run.
			if f, err := os.CreateTemp("", "pacstack-soak-failed-*.json"); err == nil {
				enc := json.NewEncoder(f)
				enc.SetIndent("", "  ")
				if enc.Encode(rep) == nil {
					log.Printf("failing report written to %s", f.Name())
				}
				f.Close()
			}
			os.Exit(1)
		}
		if rep.Silent != 0 {
			fail("CHECK FAILED: %d silent corruption(s)", rep.Silent)
		}
		if !rep.Graceful() {
			fail("CHECK FAILED: run not graceful (%d in flight, %d unaccounted)",
				rep.InFlightAtEnd, rep.Issued-(rep.OK+rep.Detected+rep.Silent+rep.GaveUp))
		}
	}
}

// runWarmGate grades the warm-pool subsystem against the cold-boot
// baseline at one seed. Two comparisons:
//
//   - Closed loop, breakers and shedding disabled (retry dynamics
//     silenced so the DES terminals are a pure function of the
//     precomputed outcomes): the cold-model and warm-model runs must
//     agree EXACTLY on every outcome count — the draw-parity property,
//     measured end to end — with zero silent corruptions, and the warm
//     run must deliver at least 10x the cold requests/virtual-second.
//   - The boot-dominated open-loop scenario (traffic.ForkServerScenario):
//     short interactive requests offered far beyond cold capacity, where
//     warm must clear 20x cold goodput. Outcome equality is NOT asserted
//     here — under overload the two cost models legitimately shed
//     different arrivals.
//
// Both warm runs must finish with zero §4.3 image-key violations
// and must actually have exercised the pool (restores > 0). Returns
// the process exit code.
func runWarmGate(base serve.SoakConfig, asJSON bool) int {
	run := func(cfg serve.SoakConfig) *serve.SoakReport {
		rep, err := serve.Soak(context.Background(), cfg)
		if err != nil {
			log.Fatal(err)
		}
		return rep
	}

	closed := base
	closed.Traffic = nil
	closed.Adaptive = nil
	closed.BreakerThreshold = -1
	closed.Retries = -1 // nothing to retry once shedding is off; keep it inert
	if closed.Clients <= 0 {
		closed.Clients = 8
	}
	if closed.Queue < closed.Clients {
		closed.Queue = closed.Clients // at most Clients outstanding: never shed
	}
	coldCfg, warmCfg := closed, closed
	coldCfg.BootModel = "cold"
	warmCfg.BootModel = "warm"
	cold := run(coldCfg)
	warm := run(warmCfg)

	tColdCfg, tWarmCfg := base, base
	tColdCfg.Adaptive, tWarmCfg.Adaptive = nil, nil
	coldModel := traffic.ForkServerScenario(base.Seed)
	warmModel := traffic.ForkServerScenario(base.Seed)
	tColdCfg.Traffic, tColdCfg.BootModel = &coldModel, "cold"
	tWarmCfg.Traffic, tWarmCfg.BootModel = &warmModel, "warm"
	tCold := run(tColdCfg)
	tWarm := run(tWarmCfg)

	ratio := func(w, c uint64) float64 {
		if c == 0 {
			return 0
		}
		return float64(w) / float64(c)
	}
	closedRatio := ratio(warm.RPVSMilli, cold.RPVSMilli)
	trafficRatio := ratio(tWarm.RPVSMilli, tCold.RPVSMilli)

	if asJSON {
		out, err := json.MarshalIndent(map[string]*serve.SoakReport{
			"closed_cold": cold, "closed_warm": warm,
			"traffic_cold": tCold, "traffic_warm": tWarm,
		}, "", "  ")
		if err != nil {
			log.Fatal(err)
		}
		fmt.Println(string(out))
	} else {
		fmt.Printf("closed loop: cold %d.%03d rpvs, warm %d.%03d rpvs (%.1fx)\n",
			cold.RPVSMilli/1000, cold.RPVSMilli%1000, warm.RPVSMilli/1000, warm.RPVSMilli%1000, closedRatio)
		fmt.Printf("fork-server traffic: cold %d.%03d rpvs, warm %d.%03d rpvs (%.1fx)\n",
			tCold.RPVSMilli/1000, tCold.RPVSMilli%1000, tWarm.RPVSMilli/1000, tWarm.RPVSMilli%1000, trafficRatio)
	}

	code := 0
	bad := func(format string, args ...any) {
		log.Printf("WARM GATE FAILED: "+format, args...)
		code = 1
	}
	if !cold.Graceful() || !warm.Graceful() || !tCold.Graceful() || !tWarm.Graceful() {
		bad("a run was not graceful (closed cold %v warm %v, traffic cold %v warm %v)",
			cold.Graceful(), warm.Graceful(), tCold.Graceful(), tWarm.Graceful())
	}
	if cold.OK != warm.OK || cold.Detected != warm.Detected || cold.Silent != warm.Silent ||
		cold.GaveUp != warm.GaveUp || cold.Injected != warm.Injected {
		bad("closed-loop outcomes diverged across boot models: cold ok/detected/silent/gave-up/injected %d/%d/%d/%d/%d, warm %d/%d/%d/%d/%d",
			cold.OK, cold.Detected, cold.Silent, cold.GaveUp, cold.Injected,
			warm.OK, warm.Detected, warm.Silent, warm.GaveUp, warm.Injected)
	}
	if warm.Silent != 0 {
		bad("%d silent corruption(s) under the warm pool", warm.Silent)
	}
	if warm.PoolKeyViolations != 0 || tWarm.PoolKeyViolations != 0 {
		bad("image-key violations: closed %d, traffic %d — a restore kept the snapshot's PA keys",
			warm.PoolKeyViolations, tWarm.PoolKeyViolations)
	}
	if warm.PoolRestores == 0 || tWarm.PoolRestores == 0 {
		bad("a warm run served no pool restores (closed %d, traffic %d) — the pool was not exercised",
			warm.PoolRestores, tWarm.PoolRestores)
	}
	if closedRatio < 10 {
		bad("closed-loop warm/cold throughput %.2fx, need >= 10x", closedRatio)
	}
	if trafficRatio < 20 {
		bad("fork-server traffic warm/cold throughput %.2fx, need >= 20x", trafficRatio)
	}
	if code == 0 {
		log.Printf("warm gate OK: identical closed-loop outcomes, %.1fx closed-loop and %.1fx open-loop goodput, %d+%d restores, zero key violations",
			closedRatio, trafficRatio, warm.PoolRestores, tWarm.PoolRestores)
	}
	return code
}

// runTrafficGate runs the canned burst scenario (traffic.BurstScenario
// with the flags' seed and capacity parameters) twice — static
// admission, then adaptive — and grades the pair. The overload-control
// criterion: the static run must demonstrably fail at least one class
// SLO under the burst, and the adaptive run must pass every one; a
// burst too weak to hurt the static policy proves nothing, so it also
// fails the gate. Returns the process exit code.
func runTrafficGate(base serve.SoakConfig, aimd *resilience.AIMDConfig, asJSON bool) int {
	run := func(adaptive bool) *serve.SoakReport {
		cfg := base
		model := traffic.BurstScenario(base.Seed)
		cfg.Traffic = &model
		if adaptive {
			cfg.Adaptive = aimd
		}
		rep, err := serve.Soak(context.Background(), cfg)
		if err != nil {
			log.Fatal(err)
		}
		return rep
	}
	static := run(false)
	adapt := run(true)

	if asJSON {
		out, err := json.MarshalIndent(map[string]*traffic.SLOReport{
			"static": static.SLO, "adaptive": adapt.SLO,
		}, "", "  ")
		if err != nil {
			log.Fatal(err)
		}
		fmt.Println(string(out))
	} else {
		fmt.Print(harness.Soak(static))
		fmt.Println()
		fmt.Print(harness.Soak(adapt))
		fmt.Println()
	}

	code := 0
	bad := func(format string, args ...any) {
		log.Printf("TRAFFIC GATE FAILED: "+format, args...)
		code = 1
	}
	if !static.Graceful() || !adapt.Graceful() {
		bad("a run was not graceful (static %v, adaptive %v)", static.Graceful(), adapt.Graceful())
	}
	if static.SLO == nil || adapt.SLO == nil {
		bad("missing SLO report")
		return 1
	}
	if static.SLO.Pass {
		bad("static admission survived the burst — the scenario exercises nothing")
	}
	if !adapt.SLO.Pass {
		var failed []string
		for _, c := range adapt.SLO.Classes {
			if !c.Pass {
				failed = append(failed, fmt.Sprintf("%s (%s)", c.Class, strings.Join(c.Violations, "; ")))
			}
		}
		bad("adaptive admission out of SLO: %s", strings.Join(failed, ", "))
	}
	if st := adapt.SLO.Controller; st == nil || st.LimitMax <= base.Workers {
		bad("adaptive controller never grew the pool — the pass is not its doing")
	}
	if code == 0 {
		var staticFailed []string
		for _, c := range static.SLO.Classes {
			if !c.Pass {
				staticFailed = append(staticFailed, c.Class)
			}
		}
		log.Printf("traffic gate OK: static admission violates SLO for %s under the 10x burst; adaptive (limit %d -> %d) holds every class",
			strings.Join(staticFailed, ","), base.Workers, adapt.SLO.Controller.LimitMax)
	}
	return code
}
