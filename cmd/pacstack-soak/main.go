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
//	              [-boot-model cold|warm]
//	              [-slo-report PATH] [-par N]
//	              [-json] [-check] [-telemetry-dump PATH]
//	              [-cpuprofile FILE] [-memprofile FILE]
//
// With -traffic, the closed-loop client model is replaced by the
// open-loop heavy-tail replay (internal/traffic): a seeded
// diurnal/burst arrival stream over a production-shaped cost mixture,
// per-class SLO evaluation appended to the report, and — with
// -adaptive — the clock-free AIMD controller resizing the replay's
// worker limit in virtual time. The model decides arrivals and
// workloads, so -clients, -requests, -workload and -schemes are
// refused in this mode. Without -traffic, the open-loop flags
// (-traffic-*, -burst-factor, -cores, -adaptive*) are refused.
//
// With -boot-model, machine acquisition is charged in virtual time:
// "cold" prices every execution at the modeled full-boot cost, "warm"
// serves from the snapshot-fork pools (internal/pool) and prices the
// restore. The report gains a requests/virtual-second line either way.
// Outcomes are identical across models (warm restores replay the cold
// entropy stream), so the ratio isolates acquisition cost.
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
	var out harness.SoakOutput
	flag.StringVar(&out.SLOReport, "slo-report", "", "write the SLO report as JSON to this path (traffic mode)")
	parWidth := flag.Int("par", 0, "precompute worker-pool width (0: GOMAXPROCS); the report must not depend on it")
	flag.BoolVar(&out.JSON, "json", false, "emit the report as JSON instead of the table")
	flag.BoolVar(&out.Check, "check", false, "exit non-zero on silent corruption or a non-graceful run")
	flag.StringVar(&out.TelemetryDump, "telemetry-dump", "", "write the run's telemetry (metrics + events) as JSON to this path")
	cpuProfile := flag.String("cpuprofile", "", "write a pprof CPU profile to this file")
	memProfile := flag.String("memprofile", "", "write a pprof heap profile to this file on exit")
	flag.Parse()
	var given []string
	flag.Visit(func(f *flag.Flag) { given = append(given, f.Name) })
	if err := modeError(given, *trafficMode != ""); err != nil {
		log.Fatal(err)
	}

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

	cfg := serve.SoakConfig{
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
		cfg.Traffic = &model
		if *adaptive {
			cfg.Adaptive = &resilience.AIMDConfig{
				Max:           *adaptiveMax,
				Step:          *adaptiveStep,
				Interval:      *adaptiveInterval,
				LatencyTarget: *adaptiveTarget,
			}
		}
	}

	cfg.Telemetry = out.Telemetry()
	rep, err := serve.Soak(context.Background(), cfg)
	if err != nil {
		log.Fatal(err)
	}
	out.Write("pacstack-soak", rep, rep.SLO, harness.Soak(rep))
}

// modeError refuses the first flag in given (the names set on the
// command line) that the run's mode would ignore. The closed client
// loop has no model to shape and no admission controller; an open-loop
// run takes its arrivals and workloads from the model.
func modeError(given []string, traffic bool) error {
	for _, name := range given {
		openLoop := strings.HasPrefix(name, "traffic-") || strings.HasPrefix(name, "adaptive") ||
			name == "burst-factor" || name == "cores"
		closedLoop := name == "clients" || name == "requests" || name == "workload" || name == "schemes"
		switch {
		case openLoop && !traffic:
			return fmt.Errorf("-%s needs a traffic-mode run (-traffic)", name)
		case closedLoop && traffic:
			return fmt.Errorf("-%s does not apply to a traffic-mode run (-traffic): the model decides arrivals and workloads", name)
		}
	}
	return nil
}
