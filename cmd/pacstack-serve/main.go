// Command pacstack-serve is the resilient serving daemon: an HTTP/JSON
// front end that executes sandboxed PACStack workloads per request on a
// pool of supervised simulated kernels, with per-request deadlines,
// bounded admission with load shedding, per-scheme circuit breaking,
// panic isolation, and graceful drain on SIGTERM/SIGINT.
//
// With -chaos, the internal/fault injection engine is wired into live
// traffic at -chaos-rate: a fraction of requests get a seeded
// corruption (return-address overwrite, stack smash, signal-frame
// tamper by default) armed inside their victim process. Detected
// corruptions surface as typed 502s carrying the kernel post-mortem;
// the daemon itself never dies. -chaos-rate and -chaos-kinds are
// refused without -chaos.
//
// Endpoints:
//
//	POST /v1/run        {"workload":"chain","scheme":"pacstack","seed":7}
//	GET  /v1/stats      counter snapshot (requests, detections, sheds, ...)
//	GET  /metrics       Prometheus text exposition of the telemetry registry
//	GET  /events        security event ring (auth failures, kills, ...) as JSON
//	GET  /v1/telemetry  combined metrics + events dump (pacstack-metrics reads it)
//	GET  /healthz       200, or 503 once draining
//
// Usage:
//
//	pacstack-serve [-addr :8437] [-workers N] [-queue N] [-heal N]
//	               [-cold] [-pool-machines N]
//	               [-seed N] [-timeout D] [-budget N]
//	               [-chaos] [-chaos-rate F] [-chaos-kinds LIST]
//	               [-breaker-threshold N] [-breaker-cooldown D]
//	               [-checkpoint-every N] [-state-dir DIR]
//	               [-read-header-timeout D]
//	               [-read-timeout D] [-idle-timeout D]
//
// With -state-dir, the daemon opens an on-disk snapshot store there at
// startup and logs its recovery report (the newest valid shutdown
// checkpoint, crash anomalies — detected, never silent), and on
// graceful shutdown commits one final boot-state snapshot per served
// scheme after the drain completes. Nothing restores those snapshots:
// the recovered checkpoint is only reported, and requests run on
// freshly booted or pooled machines with or without the flag.
//
// The daemon serves warm by default: each (workload, scheme) pair gets
// a snapshot-fork pool (internal/pool) holding booted, hardened
// machines that are restored from an in-memory boot image and re-keyed
// per request, instead of re-encoding and re-mapping the program every
// time. -cold disables the pools (the previous per-request boot path);
// -pool-machines caps pool growth, with leases past the cap falling
// back to cold boots (counted in pacstack_pool_cold_fallback_total).
// -pool-machines is refused with -cold.
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
	"syscall"
	"time"

	"pacstack/internal/serve"
	"pacstack/internal/snap"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("pacstack-serve: ")
	addr := flag.String("addr", ":8437", "listen address")
	workers := flag.Int("workers", 4, "simultaneous request executions")
	queue := flag.Int("queue", 0, "admission queue depth beyond the workers (0: 2*workers, <0: none)")
	heal := flag.Int("heal", 0, "supervised respawns after a detected kill before surfacing the error")
	seed := flag.Int64("seed", 1, "server entropy seed (kernel keys, chaos draws)")
	timeout := flag.Duration("timeout", 10*time.Second, "per-request deadline (0: none)")
	budget := flag.Uint64("budget", 0, "per-attempt instruction watchdog (0: derived from the golden run)")
	cold := flag.Bool("cold", false, "boot a fresh machine per request instead of serving from the warm snapshot-fork pools")
	poolMachines := flag.Int("pool-machines", 0, "warm-pool size cap across shards (0: grow on demand)")
	chaos := flag.Bool("chaos", false, "inject seeded faults into live traffic")
	chaosRate := flag.Float64("chaos-rate", 0.1, "per-attempt injection probability under -chaos")
	chaosKinds := flag.String("chaos-kinds", "", "comma-separated kinds: bitflip, retaddr, smash, register, sigframe (default retaddr,smash,sigframe)")
	brThreshold := flag.Int("breaker-threshold", 8, "consecutive backend failures that open a scheme's breaker (<0: disabled)")
	brCooldown := flag.Duration("breaker-cooldown", 100*time.Millisecond, "how long an open breaker waits before probing")
	drainWait := flag.Duration("drain-timeout", 30*time.Second, "how long shutdown waits for in-flight requests")
	checkpointEvery := flag.Uint64("checkpoint-every", 0, "per-request snapshot commit interval in instructions (0: off)")
	stateDir := flag.String("state-dir", "", "on-disk snapshot store; recovered at startup, final checkpoint committed on graceful shutdown")
	readHeaderTimeout := flag.Duration("read-header-timeout", 5*time.Second, "max time to read a request's headers (slowloris guard; 0: none)")
	readTimeout := flag.Duration("read-timeout", 15*time.Second, "max time to read a full request including body (0: none)")
	idleTimeout := flag.Duration("idle-timeout", 120*time.Second, "max keep-alive idle time per connection (0: none)")
	flag.Parse()
	var given []string
	flag.Visit(func(f *flag.Flag) { given = append(given, f.Name) })
	if err := modeError(given, *chaos, *cold); err != nil {
		log.Fatal(err)
	}

	kinds, err := serve.ParseKinds(*chaosKinds)
	if err != nil {
		log.Fatal(err)
	}
	s := serve.New(serve.Config{
		Workers:          *workers,
		Queue:            *queue,
		Seed:             *seed,
		Chaos:            *chaos,
		ChaosRate:        *chaosRate,
		ChaosKinds:       kinds,
		Heal:             *heal,
		Budget:           *budget,
		Timeout:          *timeout,
		BreakerThreshold: *brThreshold,
		BreakerCooldown:  uint64(*brCooldown),
		CheckpointEvery:  *checkpointEvery,
		Warm:             !*cold,
		PoolMachines:     *poolMachines,
	})

	// -state-dir: the store's recovery pass runs and its report is
	// logged before we take traffic (anomalies here are crash evidence,
	// never silent), and a fresh boot-state snapshot per served scheme
	// is committed after the drain below. The recovered checkpoint is
	// reported, not restored.
	var stateStore *snap.Store
	if *stateDir != "" {
		fs, err := snap.NewDirFS(*stateDir)
		if err != nil {
			log.Fatal(err)
		}
		stateStore = snap.NewStore(fs)
		stateStore.Tel = snap.NewTelemetry(s.Telemetry().Registry())
		_, _, rep, err := stateStore.Recover()
		switch {
		case errors.Is(err, snap.ErrNoSnapshot):
			log.Printf("state dir %s: no prior checkpoint (fresh start)", *stateDir)
		case err != nil:
			log.Fatalf("state dir %s: recovery failed: %v", *stateDir, err)
		default:
			log.Printf("state dir %s: recovered checkpoint seq %d (%d snapshot(s), %d anomalies)",
				*stateDir, rep.RestoredSeq, len(rep.Snapshots), len(rep.Anomalies))
			for _, a := range rep.Anomalies {
				log.Printf("state dir anomaly: %s %s: %s", a.Kind, a.Name, a.Detail)
			}
		}
	}

	// Connection-level timeouts: without these a client that dribbles
	// header bytes (slowloris) or parks idle keep-alives pins a
	// connection forever — the per-request -timeout only starts once a
	// request has been read. No WriteTimeout: responses are small and
	// cut off by the request deadline; a hard write cap would also
	// truncate slow-but-legitimate drains.
	httpSrv := &http.Server{
		Addr:              *addr,
		Handler:           s.Handler(),
		ReadHeaderTimeout: *readHeaderTimeout,
		ReadTimeout:       *readTimeout,
		IdleTimeout:       *idleTimeout,
	}
	errc := make(chan error, 1)
	go func() {
		mode := "warm pool"
		if *cold {
			mode = "cold boot"
		}
		log.Printf("listening on %s (workers %d, queue %d, chaos %v, seed %d, %s)",
			*addr, s.Config().Workers, s.Config().Queue, *chaos, *seed, mode)
		errc <- httpSrv.ListenAndServe()
	}()

	sigc := make(chan os.Signal, 1)
	signal.Notify(sigc, syscall.SIGTERM, syscall.SIGINT)
	select {
	case sig := <-sigc:
		log.Printf("%s: draining", sig)
	case err := <-errc:
		log.Fatal(err)
	}

	// Graceful drain: stop admitting (healthz flips to 503 so load
	// balancers stop routing here), let in-flight requests finish,
	// then stop the listener and report the final counters.
	s.BeginDrain()
	ctx, cancel := context.WithTimeout(context.Background(), *drainWait)
	defer cancel()
	if err := s.Drain(ctx); err != nil {
		log.Printf("drain incomplete: %v (%d in flight)", err, s.InFlight())
	}
	if err := httpSrv.Shutdown(ctx); err != nil && !errors.Is(err, context.DeadlineExceeded) {
		log.Printf("shutdown: %v", err)
	}
	<-errc // ListenAndServe has returned ErrServerClosed

	// Commit the final checkpoint only after the drain: the store's
	// commits are cheap, but a snapshot taken while requests were still
	// running would not describe a quiescent daemon.
	if stateStore != nil {
		n, err := s.FinalCheckpoint(stateStore)
		if err != nil {
			log.Printf("final checkpoint incomplete after %d commit(s): %v", n, err)
		} else {
			log.Printf("final checkpoint: %d scheme snapshot(s) committed to %s", n, *stateDir)
		}
	}

	out, _ := json.MarshalIndent(s.Stats(), "", "  ")
	log.Printf("final stats:\n%s", out)
	if s.InFlight() != 0 {
		log.Fatalf("exiting with %d requests still in flight", s.InFlight())
	}
	log.Printf("drained cleanly")
}

// modeError refuses the first flag in given (the names set on the
// command line) that the server would ignore: the chaos knobs without
// -chaos, and the pool cap when -cold serves without pools.
func modeError(given []string, chaos, cold bool) error {
	for _, name := range given {
		switch {
		case !chaos && (name == "chaos-rate" || name == "chaos-kinds"):
			return fmt.Errorf("-%s needs -chaos", name)
		case cold && name == "pool-machines":
			return fmt.Errorf("-%s does not apply with -cold: cold serving has no pools", name)
		}
	}
	return nil
}
