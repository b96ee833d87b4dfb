// The soak's event loop: one worker pool in virtual time, fed by either
// arrival process. Open-loop, a seeded traffic.Model generates the full
// arrival stream upfront (diurnal curve, burst overlays, heavy-tail
// class mixture, slow clients and poison requests) and the replay
// evaluates per-class SLOs as it goes. Closed-loop, Clients issue their
// requests back to back: a client's next request arrives one think time
// after its previous one ends.
//
// Two mechanisms matter under open-loop load:
//
//   - A contention model. Service time is (Overhead + boot cost +
//     victim cycles) x slow-factor x ceil(busy/Cores): a pool resized
//     beyond the host's cores degrades everyone's latency instead of
//     magically adding capacity. The penalty is fixed at service start
//     (no retroactive stretching), which keeps the DES exact and
//     deterministic. Closed-loop clients never exceed the pool, so the
//     penalty stays 1.
//
//   - An adaptive admission loop. With SoakConfig.Adaptive set, a
//     clock-free resilience.AIMD controller ticks every Interval
//     virtual cycles and resizes the worker limit (queue follows at
//     2x) from the window's shed/occupancy/dilation signals — growing
//     never cancels anything, shrinking only stops new admissions
//     until completions catch up, exactly the Admission.SetLimit
//     contract the live server exposes.
//
// The controller's congestion signal is the SERVICE duration (with
// the contention penalty), not end-to-end latency: queueing delay is
// the symptom a bigger pool fixes, while service-time dilation is the
// symptom a bigger pool causes. Feeding the controller end-to-end
// latency makes it shrink exactly when it should grow; feeding it
// dilation makes decrease fire only on genuine core oversubscription.
// SLOs are still judged on end-to-end latency (what a client sees).

package serve

import (
	"context"
	"fmt"

	"pacstack/internal/resilience"
	"pacstack/internal/telemetry"
	"pacstack/internal/traffic"
)

// Replay event kinds.
const (
	evIssue = iota // a request is (re)submitted
	evDone         // a worker finishes an execution
	evTick         // the adaptive controller's window boundary
)

// replay precomputes the arrivals' outcomes and replays them through
// the worker pool into rep. clients is the closed-loop arrival process,
// nil for an open-loop run.
func replay(ctx context.Context, cfg SoakConfig, rep *SoakReport, arrivals []traffic.Arrival, clients *Clients) error {
	q := &Queue{}
	q.Stamp(cfg.Telemetry)
	seed := ArrivalSeed(cfg.Seed)
	if clients != nil {
		seed = clients.Seed
	}
	outcomes, srv, err := Precompute(ctx, Config{
		Seed:            cfg.Seed,
		Chaos:           cfg.ChaosRate > 0,
		ChaosRate:       cfg.ChaosRate,
		ChaosKinds:      cfg.ChaosKinds,
		Heal:            cfg.Heal,
		CheckpointEvery: cfg.CheckpointEvery,
		CheckpointCrash: cfg.CheckpointCrash,
		Warm:            cfg.BootModel == "warm",
		Telemetry:       cfg.Telemetry,
	}, arrivals, seed)
	if err != nil {
		return err
	}
	// Per-(workload, scheme) machine-acquisition charge under the boot
	// model; empty under the legacy model.
	bootCost := map[string]uint64{}
	for _, a := range arrivals {
		key := a.Workload + "/" + a.Scheme
		if _, ok := bootCost[key]; !ok {
			if bootCost[key], err = srv.bootCost(cfg.BootModel, a.Workload, a.Scheme); err != nil {
				return err
			}
		}
	}

	reg := cfg.Telemetry.Registry()
	tlog := cfg.Telemetry.Log()
	// A closed-loop run has no classes; its one-class evaluator is
	// never reported.
	eval := traffic.NewEvaluator([]traffic.Class{{}}, nil)
	var soakResizes *telemetry.Counter
	if cfg.Traffic != nil {
		eval = traffic.NewEvaluator(cfg.Traffic.Classes, reg)
		soakResizes = reg.Counter("pacstack_soak_adaptive_resizes_total", "adaptive worker-limit changes")
	}
	soakSheds := reg.Counter("pacstack_soak_sheds_total", "DES arrivals shed (queue full)")
	soakRetries := reg.Counter("pacstack_soak_retries_total", "client retries after a rejection")
	soakDenied := reg.Counter("pacstack_soak_breaker_denied_total", "DES arrivals denied by an open breaker")
	soakGaveUp := reg.Counter("pacstack_soak_gave_up_total", "requests abandoned after the retry budget")
	transitionsVec := reg.CounterVec("pacstack_resilience_breaker_transitions_total",
		"circuit-breaker state changes", "scheme", "to")

	schemes := ArrivalSchemes(arrivals)
	var breakers map[string]*resilience.Breaker
	if cfg.BreakerThreshold > 0 {
		breakers = make(map[string]*resilience.Breaker, len(schemes))
		for _, name := range schemes {
			scheme := name
			transitions := transitionsVec.Curry(scheme)
			breakers[name] = resilience.NewBreaker(resilience.BreakerConfig{
				Threshold: cfg.BreakerThreshold,
				Cooldown:  cfg.BreakerCooldown,
				OnTransition: func(at uint64, from, to resilience.BreakerState) {
					transitions.With(to.String()).Inc()
					tlog.Record(telemetry.EvBreaker, scheme, from.String()+"->"+to.String(), at)
				},
			})
		}
	}
	backoffs := NewBackoffs(cfg.Seed, cfg.BackoffBase, cfg.BackoffCap, clients)

	workers, queueCap := cfg.Workers, cfg.Queue
	var ctl *resilience.AIMD
	if cfg.Adaptive != nil {
		ac := *cfg.Adaptive
		if ac.Start == 0 {
			ac.Start = cfg.Workers
		}
		if ac.Interval == 0 {
			ac.Interval = 10_000
		}
		if ac.LatencyTarget == 0 {
			// Above the heaviest intrinsic service cost in the catalog
			// (nginx ≈ 690k cycles), so only contention-dilated service
			// reads as congestion.
			ac.LatencyTarget = 1_048_576
		}
		ctl = resilience.NewAIMD(ac)
		workers = ctl.Limit()
		queueCap = 2 * workers
	}

	if clients != nil {
		clients.Start(q, evIssue)
	} else {
		for i, a := range arrivals {
			q.Push(Event{At: a.At, Kind: evIssue, ID: i})
			eval.Arrival(a.Class)
		}
	}
	if ctl != nil {
		q.Push(Event{At: ctl.Interval(), Kind: evTick})
	}

	busy := 0
	var fifo []int
	served := make([]uint64, len(arrivals)) // service duration, for the controller

	startService := func(id int) {
		busy++
		if ctl != nil {
			ctl.ObserveBusy(busy)
		}
		a := arrivals[id]
		// Slow clients stretch their whole occupancy; the contention
		// penalty is ceil(busy/cores) at start — an over-grown pool
		// slows everything it admits.
		dur := (cfg.Overhead + bootCost[a.Workload+"/"+a.Scheme] + outcomes[id].Cycles) * a.Slow
		dur *= uint64((busy + cfg.Cores - 1) / cfg.Cores)
		served[id] = dur
		q.Push(Event{At: q.Now() + dur, Kind: evDone, ID: id})
	}
	admit := func() {
		for busy < workers && len(fifo) > 0 {
			id := fifo[0]
			fifo = fifo[1:]
			startService(id)
		}
	}
	// terminal moves a closed-loop client on to its next request.
	terminal := func(id int) {
		if clients != nil {
			clients.Next(q, evIssue, id)
		}
	}
	retryOrGiveUp := func(id, attempt int) {
		a := arrivals[id]
		if attempt >= cfg.Retries {
			rep.GiveUp(a.Scheme)
			soakGaveUp.Inc()
			eval.Done(a.Class, q.Now()-a.At, traffic.OutcomeGaveUp)
			terminal(id)
			return
		}
		rep.Retries++
		soakRetries.Inc()
		eval.Retry(a.Class)
		tlog.Record(telemetry.EvRetry, a.Scheme, "", uint64(attempt+1))
		q.Push(Event{At: q.Now() + backoffs.Delay(id, attempt), Kind: evIssue, ID: id, Attempt: attempt + 1})
	}

	for q.Len() > 0 {
		e := q.Pop()
		now := e.At
		a := arrivals[e.ID]
		switch e.Kind {
		case evIssue:
			if br := breakers[a.Scheme]; br != nil && !br.Allow(now) {
				rep.BreakerDenied++
				soakDenied.Inc()
				retryOrGiveUp(e.ID, e.Attempt)
				continue
			}
			switch {
			case busy < workers:
				startService(e.ID)
			case len(fifo) < queueCap:
				fifo = append(fifo, e.ID)
			default:
				rep.Sheds++
				soakSheds.Inc()
				eval.Shed(a.Class)
				if ctl != nil {
					ctl.ObserveShed()
				}
				tlog.Record(telemetry.EvShed, a.Scheme, "queue full", now)
				retryOrGiveUp(e.ID, e.Attempt)
			}
		case evDone:
			busy--
			o := outcomes[e.ID]
			eval.Done(a.Class, now-a.At, o.Class)
			rep.Done(tlog, a.Scheme, o)
			if ctl != nil {
				ctl.ObserveLatency(served[e.ID])
			}
			if br := breakers[a.Scheme]; br != nil {
				br.Record(now, o.Class == traffic.OutcomeOK)
			}
			admit()
			terminal(e.ID)
		case evTick:
			if limit := ctl.Tick(); limit != workers {
				soakResizes.Inc()
				tlog.Record(telemetry.EvResize, "", fmt.Sprintf("%d->%d", workers, limit), uint64(limit))
				workers = limit
				queueCap = 2 * limit
				admit()
			}
			if q.Len() > 0 {
				q.Push(Event{At: now + ctl.Interval(), Kind: evTick})
			}
		}
	}

	rep.Issued = len(arrivals)
	rep.VirtualCycles = q.Now()
	rep.InFlightAtEnd = busy + len(fifo)
	rep.RPVSMilli = rpvsMilli(rep.OK, rep.VirtualCycles)
	if cfg.BootModel == "warm" {
		rep.PoolRestores, rep.PoolColdFallbacks, rep.PoolKeyViolations, _ = srv.PoolStats()
	}
	rep.PerScheme = rep.Close()
	for _, name := range schemes {
		if br := breakers[name]; br != nil {
			if n := br.Opens(); n > 0 {
				rep.BreakerOpens = append(rep.BreakerOpens, SchemeCount{Scheme: name, Count: n})
			}
		}
	}
	if cfg.Traffic != nil {
		rep.SLO = eval.Report()
		rep.SLO.RPVSMilli = rep.RPVSMilli
		rep.SLO.Adaptive = ctl != nil
		if ctl != nil {
			st := ctl.Stats()
			rep.SLO.Controller = &st
		}
	}
	return nil
}
