// The chaos-mesh soak: the cluster's second replay on the shared
// discrete-event core (internal/serve's des.go), driven open-loop by a
// traffic.Model, with a seeded network fault mesh between the router
// and the backends — and the resilience machinery that earns its keep
// under it. Unlike the closed-loop replay in soak.go, which admits
// same-instant issues as one GrantProbes batch, it admits every
// attempt alone through its backend breaker's Allow. Four mechanisms
// exist only here:
//
//   - Hedged requests. A primary attempt that has not resolved within
//     its class's hedge delay gets one speculative duplicate on the
//     next-ranked backend; the first terminal result wins and the
//     loser is cancelled immediately (its worker slot frees at win
//     time). Hedging a request is only safe under the paper's §4.3
//     argument if the two executions cannot forge each other's
//     authenticated call stacks — the pair's backends must not share
//     PA keys, which the replay asserts per hedge via
//     supervise.SharedKeys (violations counted, must be zero).
//
//   - A cluster-global retry budget. Every secondary attempt — client
//     retry or hedge — spends from one resilience.RetryBudget earned
//     by primary traffic, so a gray backend cannot amplify offered
//     load into a retry storm. A denied secondary is terminal (the
//     request gives up loudly), and the end-of-run report proves
//     granted secondaries never exceeded the configured bound.
//
//   - Outlier ejection. Transport timeouts and latency dilation feed
//     per-backend EWMAs (outlier.go); a backend crossing a threshold
//     leaves the routing candidate set for a cooldown. This is the
//     gray-failure axis the breaker cannot see: ejection watches the
//     path, the breaker watches execution.
//
//   - Priority brownout. A windowed controller watches retry-budget
//     denials and failure burn (cluster-wide and per backend); over
//     threshold it escalates a brownout level that sheds whole
//     priority tiers at admission, lowest priority first. Browned
//     arrivals are terminal, recorded per class, and SLO-exempt
//     (traffic.Evaluator.Brownout) — deliberate refusals are not
//     latency violations.
//
// The determinism contract is the core's: outcomes are precomputed in
// parallel as pure functions of arrival identity; every mesh draw,
// hedge decision, ejection and brownout transition happens in the
// serial replay in queue order. Same seed and knobs, byte-identical
// report and telemetry at any -par width; TestSoakGoldens pins it.

package cluster

import (
	"context"
	"fmt"
	"math/rand"

	"pacstack/internal/mesh"
	"pacstack/internal/resilience"
	"pacstack/internal/serve"
	"pacstack/internal/supervise"
	"pacstack/internal/telemetry"
	"pacstack/internal/traffic"
)

// The mesh replay's fixed timing, in virtual cycles. A hedge fires
// after the class's P50 target when it has one (hedge when the request
// is already slower than half its traffic should be), else after
// P99/4, else after hedgeDelay; every hedge adds a seeded uniform draw
// up to hedgeJitter so same-instant primaries don't hedge in lockstep.
// dropTimeout is how long the sender waits on a mesh-dropped message
// before declaring the attempt lost; brownoutWindow is the brownout
// controller's evaluation window.
const (
	hedgeDelay     = 16_384
	hedgeJitter    = hedgeDelay / 4
	dropTimeout    = 64_000
	brownoutWindow = 20_000
)

// BrownoutConfig parameterises the priority brownout controller. Its
// depth is capped at every priority tier except the most important
// one.
type BrownoutConfig struct {
	// BurnPermille escalates when a window's failure burn (timeouts +
	// sheds + denials per fresh arrival), cluster-wide or on any one
	// backend, crosses it. De-escalation needs burn under half of it.
	// Default 300.
	BurnPermille int `json:"burn_permille"`
	// DenyThreshold escalates when a window sees this many
	// retry-budget denials. Default 4.
	DenyThreshold int `json:"deny_threshold"`
}

func (c BrownoutConfig) withDefaults() BrownoutConfig {
	if c.BurnPermille <= 0 {
		c.BurnPermille = 300
	}
	if c.DenyThreshold <= 0 {
		c.DenyThreshold = 4
	}
	return c
}

// tAttempt is one in-flight attempt (primary or hedge) of one arrival.
type tAttempt struct {
	id        int
	attemptNo int
	bk        int
	tok       int
	linkLat   uint64
	dur       uint64 // service duration once executing (ejector dilation sample)
	queued    bool
	executing bool
	lost      bool // mesh ate the message; an evTimeout is pending
	dead      bool
	hedged    bool
}

// soakClusterTraffic runs the open-loop mesh soak. Callers arrive
// through Soak, which has applied defaults and validated the mode.
func soakClusterTraffic(ctx context.Context, cfg SoakConfig) (*ClusterReport, error) {
	model := cfg.Traffic
	arrivals, err := model.Generate()
	if err != nil {
		return nil, err
	}
	if len(arrivals) == 0 {
		return nil, fmt.Errorf("cluster: traffic model generated no arrivals")
	}
	for _, c := range model.Classes {
		if _, err := serve.ParseScheme(c.Scheme); err != nil {
			return nil, err
		}
	}
	var net *mesh.Mesh
	if cfg.Mesh != nil {
		for idx := range cfg.Mesh.Links {
			if idx >= cfg.Backends {
				return nil, fmt.Errorf("cluster: mesh link for backend %d out of range (fleet of %d)", idx, cfg.Backends)
			}
		}
		if net, err = mesh.New(*cfg.Mesh, cfg.Seed); err != nil {
			return nil, err
		}
	}

	// A run without an attached set still gets a private one: report
	// fields (per-backend service p99) read the histograms, and the
	// report must not change shape with telemetry plumbed in or out.
	if cfg.Telemetry == nil {
		cfg.Telemetry = telemetry.New(telemetry.Options{})
	}
	q := &serve.Queue{}
	q.Stamp(cfg.Telemetry)
	reg := cfg.Telemetry.Registry()
	tlog := cfg.Telemetry.Log()

	routedVec := reg.CounterVec("pacstack_cluster_routed_total", "requests admitted per backend", "backend")
	shedsVec := reg.CounterVec("pacstack_cluster_sheds_total", "arrivals shed per backend (queue full)", "backend")
	deniedVec := reg.CounterVec("pacstack_cluster_breaker_denied_total", "arrivals denied per backend breaker", "backend")
	dropVec := reg.CounterVec("pacstack_cluster_link_drops_total", "messages the mesh ate per backend", "backend", "cause")
	timeoutVec := reg.CounterVec("pacstack_cluster_timeouts_total", "attempts declared lost per backend", "backend")
	ejectVec := reg.CounterVec("pacstack_cluster_ejections_total", "outlier ejections per backend", "backend")
	svcVec := reg.HistogramVec("pacstack_cluster_service_cycles", "per-attempt service duration by backend", traffic.LatencyBounds, "backend")
	brownVec := reg.CounterVec("pacstack_cluster_brownout_total", "arrivals browned out per class", "class")
	hedgesC := reg.Counter("pacstack_cluster_hedges_total", "hedged attempts launched")
	hedgeWinsC := reg.Counter("pacstack_cluster_hedge_wins_total", "requests whose hedge finished first")
	noBackendC := reg.Counter("pacstack_cluster_no_backend_total", "routing decisions with an empty candidate set")
	budgetDeniedC := reg.Counter("pacstack_cluster_retry_budget_denied_total", "secondary attempts refused by the retry budget")
	clRetries := reg.Counter("pacstack_cluster_retries_total", "client retries after a rejection")
	clGaveUp := reg.Counter("pacstack_cluster_gave_up_total", "requests abandoned after the retry budget")
	resizesC := reg.Counter("pacstack_cluster_core_resizes_total", "vertical core-count changes")

	cores := cfg.Cores
	if cores <= 0 {
		cores = cfg.Workers
	}
	var vcfg resilience.AIMDConfig
	if cfg.VerticalAdaptive != nil {
		vcfg = *cfg.VerticalAdaptive
		if vcfg.Start == 0 {
			vcfg.Start = cores
		}
		if vcfg.Interval == 0 {
			vcfg.Interval = 20_000
		}
		if vcfg.LatencyTarget == 0 {
			// The vertical controller's "latency" samples are per-completion
			// idle permille: a sample over the target means the backend held
			// more cores than the work needed.
			vcfg.LatencyTarget = 600
		}
		if vcfg.BadDen == 0 {
			vcfg.BadNum, vcfg.BadDen = 1, 2
		}
	}
	schemes := serve.ArrivalSchemes(arrivals)
	prog, err := serve.ResolveProgram("chain", nil)
	if err != nil {
		return nil, err
	}
	backends, err := bootFleet(cfg, prog, schemes)
	if err != nil {
		return nil, err
	}
	for i, d := range backends {
		d.cores, d.svc = cores, svcVec.With(fmt.Sprint(i))
		if cfg.VerticalAdaptive != nil {
			d.ctl = resilience.NewAIMD(vcfg)
			d.cores = d.ctl.Limit()
		}
	}
	router := NewRouter(cfg.Seed)
	outcomes, err := precompute(ctx, cfg, arrivals, serve.ArrivalSeed(cfg.Seed))
	if err != nil {
		return nil, err
	}

	rep := &ClusterReport{
		Seed: cfg.Seed, Workload: "traffic", Schemes: schemes,
		Backends: cfg.Backends, Clients: 0, PerClient: 0,
		ChaosRate: cfg.ChaosRate, Heal: cfg.Heal,
		KilledBackend: -1, Traffic: true,
	}
	eval := traffic.NewEvaluator(model.Classes, reg)

	var budget *resilience.RetryBudget
	if cfg.RetryBudget != nil {
		budget = resilience.NewRetryBudget(*cfg.RetryBudget)
	}
	var ejector *Ejector
	if cfg.Outlier != nil {
		ejector = NewEjector(cfg.Backends, *cfg.Outlier, func(bk int, at uint64, cause string) {
			ejectVec.With(fmt.Sprint(bk)).Inc()
			tlog.Record(telemetry.EvEject, fmt.Sprintf("backend-%d", bk), cause, at)
		})
	}
	var hedgeRNG *rand.Rand
	if cfg.Hedge {
		hedgeRNG = rand.New(rand.NewSource(serve.Mix(cfg.Seed, 0x4ed6e)))
	}
	hedgeAfter := func(class int) uint64 {
		slo := model.Classes[class].SLO
		d := uint64(hedgeDelay)
		if slo.P50 > 0 {
			d = slo.P50
		} else if slo.P99 > 0 {
			d = slo.P99 / 4
		}
		return d + uint64(hedgeRNG.Int63n(hedgeJitter+1))
	}

	// Brownout: the shed order is the distinct priority tiers, least
	// important first; level L sheds the top L tiers at admission.
	var shedOrder []int
	var bcfg BrownoutConfig
	browning := cfg.Brownout != nil
	if browning {
		bcfg = cfg.Brownout.withDefaults()
		seen := map[int]bool{}
		for _, c := range model.Classes {
			if !seen[c.Priority] {
				seen[c.Priority] = true
				shedOrder = append(shedOrder, c.Priority)
			}
		}
		for i := 0; i < len(shedOrder); i++ { // sort descending (tiny n)
			for j := i + 1; j < len(shedOrder); j++ {
				if shedOrder[j] > shedOrder[i] {
					shedOrder[i], shedOrder[j] = shedOrder[j], shedOrder[i]
				}
			}
		}
	}
	brownLevel := 0
	calmStreak := 0
	var winArrivals, winBad, winDenied int
	winBkBad := make([]int, cfg.Backends)
	winBkRouted := make([]int, cfg.Backends)
	brownedOut := func(class int) bool {
		if brownLevel == 0 {
			return false
		}
		return model.Classes[class].Priority >= shedOrder[brownLevel-1]
	}

	backoffs := serve.NewBackoffs(cfg.Seed, nil)

	done := make([]bool, len(arrivals))
	live := make([][]*tAttempt, len(arrivals))
	atts := map[int]*tAttempt{}
	nextTok := 0

	// candidates is the routable fleet at now: alive (always true in
	// traffic mode — no kills), mesh link up for deterministic outage
	// state, not ejected, not the excluded backend.
	candidates := func(exclude int) []int {
		var out []int
		for i := range backends {
			if i == exclude {
				continue
			}
			if ejector.Ejected(i, q.Now()) {
				continue
			}
			out = append(out, i)
		}
		return out
	}

	unlive := func(a *tAttempt) {
		a.dead = true
		delete(atts, a.tok)
		l := live[a.id]
		for i, x := range l {
			if x == a {
				live[a.id] = append(l[:i], l[i+1:]...)
				break
			}
		}
	}
	// startSvc begins one attempt's execution on its backend: the
	// serving soak's contention model (service = (ServiceOverhead +
	// cycles) x slow x ceil(busy/cores), fixed at service start) plus
	// the attempt's mesh link latency.
	startSvc := func(a *tAttempt) {
		d := backends[a.bk]
		d.busy++
		if d.ctl != nil {
			d.ctl.ObserveBusy(d.busy)
		}
		arr := arrivals[a.id]
		o := outcomes[a.id]
		dur := (serve.ServiceOverhead + o.Cycles) * arr.Slow
		dur *= uint64((d.busy + d.cores - 1) / d.cores)
		dur += a.linkLat
		a.dur = dur
		a.executing = true
		d.svc.Observe(dur)
		q.Push(serve.Event{At: q.Now() + dur, Kind: evDone, ID: a.id, Gen: a.tok})
	}
	admitNext := func(bk int) {
		d := backends[bk]
		for d.busy < cfg.Workers && len(d.fifo) > 0 {
			tok := d.fifo[0]
			d.fifo = d.fifo[1:]
			a, ok := atts[tok]
			if !ok || a.dead {
				continue
			}
			a.queued = false
			startSvc(a)
		}
	}
	// cancel frees every other live attempt of id at win time: a
	// queued loser leaves the fifo, an executing loser frees its
	// worker slot immediately (the next queued request starts), a lost
	// loser's pending timeout becomes a no-op.
	cancel := func(id int, winner *tAttempt) {
		others := append([]*tAttempt(nil), live[id]...)
		for _, a := range others {
			if a == winner {
				continue
			}
			bk := backends[a.bk]
			switch {
			case a.queued:
				for i, tok := range bk.fifo {
					if tok == a.tok {
						bk.fifo = append(bk.fifo[:i], bk.fifo[i+1:]...)
						break
					}
				}
			case a.executing:
				bk.busy--
			}
			// The losing attempt still teaches the ejector about its
			// link: the late response eventually arrives, and its timing
			// reveals the link's round trip. Without this a gray backend
			// is never ejected — every request it slow-walks is rescued
			// by a hedge, the attempt is cancelled before completing,
			// and the ejector starves for the very samples that would
			// condemn the link. Only the known link latency is charged,
			// so a healthy backend that merely lost a close race
			// observes its true baseline, not a queueing artifact.
			if winner != nil && (a.queued || a.executing) {
				intrinsic := (serve.ServiceOverhead + outcomes[id].Cycles) * arrivals[id].Slow
				if intrinsic > 0 {
					ejector.Observe(a.bk, q.Now(), false, int((a.linkLat+intrinsic)*1000/intrinsic))
				}
			}
			unlive(a)
			if a.executing {
				admitNext(a.bk)
			}
		}
	}

	terminalDone := func(a *tAttempt) {
		id := a.id
		arr := arrivals[id]
		o := outcomes[id]
		d := backends[a.bk]
		done[id] = true
		if a.hedged {
			rep.HedgeWins++
			hedgeWinsC.Inc()
		}
		cancel(id, a)
		unlive(a)
		eval.Done(arr.Class, q.Now()-arr.At, o.Class)
		rep.Done(tlog, arr.Scheme, o)
		d.row.Count(o)
		if br := d.b.Breaker; br != nil {
			br.Record(q.Now(), o.Class == traffic.OutcomeOK)
		}
		// Ejector dilation sample: how much the attempt's occupancy
		// (contention + link) exceeded the request's intrinsic cost.
		intrinsic := (serve.ServiceOverhead + o.Cycles) * arr.Slow
		if intrinsic > 0 {
			ejector.Observe(a.bk, q.Now(), false, int(a.dur*1000/intrinsic))
		}
		if d.ctl != nil {
			idle := (d.cores - d.busy) * 1000 / d.cores
			d.ctl.ObserveLatency(uint64(idle))
		}
	}

	giveUp := func(id int, detail string) {
		arr := arrivals[id]
		done[id] = true
		rep.GiveUp(arr.Scheme)
		clGaveUp.Inc()
		eval.Done(arr.Class, q.Now()-arr.At, traffic.OutcomeGaveUp)
		tlog.Record(telemetry.EvRequestDone, arr.Scheme, detail, q.Now())
	}
	// retryOrGiveUp re-issues a rejected/lost request if the client
	// has retries left AND the cluster's retry budget grants one:
	// under a retry storm the budget is the binding constraint, and a
	// denied retry is a loud terminal give-up, not a silent wait.
	retryOrGiveUp := func(id, attempt int) {
		arr := arrivals[id]
		if attempt >= cfg.Retries {
			giveUp(id, "gave-up:retries")
			return
		}
		if budget != nil && !budget.Spend() {
			rep.BudgetDenied++
			budgetDeniedC.Inc()
			winDenied++
			giveUp(id, "gave-up:retry-budget")
			return
		}
		rep.Retries++
		clRetries.Inc()
		eval.Retry(arr.Class)
		tlog.Record(telemetry.EvRetry, arr.Scheme, "", uint64(attempt+1))
		q.Push(serve.Event{At: q.Now() + backoffs.Delay(id, attempt), Kind: evIssue, ID: id, Attempt: attempt + 1})
	}

	// launch routes one attempt. It returns the attempt when it is in
	// flight (executing, queued, or lost-awaiting-timeout) and nil on
	// a rejection (shed, breaker denial, or empty candidate set) — the
	// caller owns the retry decision.
	launch := func(id, attemptNo, exclude int, hedged bool) *tAttempt {
		arr, now := arrivals[id], q.Now()
		order := route(router, backends, now, candidates(exclude))
		if len(order) == 0 {
			rep.NoBackend++
			noBackendC.Inc()
			winBad++
			tlog.Record(telemetry.EvShed, arr.Scheme, "no_backend", now)
			return nil
		}
		bk := order[0]
		d := backends[bk]
		if br := d.b.Breaker; br != nil && !br.Allow(now) {
			d.row.BreakerDenied++
			rep.BreakerDenied++
			deniedVec.With(fmt.Sprint(bk)).Inc()
			winBad++
			winBkBad[bk]++
			return nil
		}
		a := &tAttempt{id: id, attemptNo: attemptNo, bk: bk, tok: nextTok, hedged: hedged}
		nextTok++
		v := net.Sample(bk, now)
		if v.Drop {
			// The message vanished: no backend resource is held, the
			// sender learns nothing until the timeout fires.
			a.lost = true
			atts[a.tok] = a
			live[id] = append(live[id], a)
			rep.LinkDrops++
			dropVec.With(fmt.Sprint(bk), v.Cause.String()).Inc()
			tlog.Record(telemetry.EvLinkDrop, fmt.Sprintf("backend-%d", bk), v.Cause.String(), now)
			q.Push(serve.Event{At: now + dropTimeout, Kind: evTimeout, ID: id, Gen: a.tok})
			return a
		}
		a.linkLat = v.Latency
		d.row.Routed++
		winBkRouted[bk]++
		routedVec.With(fmt.Sprint(bk)).Inc()
		if d.busy < cfg.Workers {
			atts[a.tok] = a
			live[id] = append(live[id], a)
			startSvc(a)
			return a
		}
		if len(d.fifo) < cfg.Queue {
			a.queued = true
			atts[a.tok] = a
			live[id] = append(live[id], a)
			d.fifo = append(d.fifo, a.tok)
			return a
		}
		d.row.Routed--
		winBkRouted[bk]--
		d.row.Sheds++
		rep.Sheds++
		shedsVec.With(fmt.Sprint(bk)).Inc()
		eval.Shed(arr.Class)
		winBad++
		winBkBad[bk]++
		tlog.Record(telemetry.EvShed, arr.Scheme, fmt.Sprintf("backend-%d queue full", bk), now)
		return nil
	}

	// keyShared asserts the §4.3 hedge precondition: the two backends
	// of a hedge pair must not share PA keys for the request's scheme
	// (an attacker observing one execution must not be able to forge
	// the other's authenticated call stack).
	keyShared := func(bkA, bkB int, scheme string) bool {
		var pa, pb *Machine
		for _, m := range backends[bkA].b.Machines() {
			if m.Scheme == scheme {
				pa = m
				break
			}
		}
		for _, m := range backends[bkB].b.Machines() {
			if m.Scheme == scheme {
				pb = m
				break
			}
		}
		if pa == nil || pb == nil {
			return false
		}
		return supervise.SharedKeys(pa.Proc, pb.Proc)
	}

	for i, a := range arrivals {
		q.Push(serve.Event{At: a.At, Kind: evIssue, ID: i})
		eval.Arrival(a.Class)
	}
	// Periodic controller ticks re-arm themselves only while non-tick
	// work remains; counting them separately keeps two coexisting ticks
	// (brownout + vertical) from sustaining each other forever after
	// the last request drains.
	ticksPending := 0
	if browning {
		q.Push(serve.Event{At: brownoutWindow, Kind: evTick, ID: 0})
		ticksPending++
	}
	if cfg.VerticalAdaptive != nil {
		q.Push(serve.Event{At: vcfg.Interval, Kind: evTick, ID: 1})
		ticksPending++
	}

	for q.Len() > 0 {
		e := q.Pop()
		now, id := e.At, e.ID
		if e.Kind == evTick {
			ticksPending--
		}
		switch e.Kind {
		case evIssue:
			if done[id] {
				break
			}
			arr := arrivals[id]
			if e.Attempt == 0 {
				winArrivals++
				if budget != nil {
					budget.Earn()
				}
				if brownedOut(arr.Class) {
					rep.BrownedOut++
					brownVec.With(model.Classes[arr.Class].Name).Inc()
					eval.Brownout(arr.Class)
					done[id] = true
					rep.GiveUp(arr.Scheme) // terminal for the conservation identity
					break
				}
			}
			a := launch(id, e.Attempt, -1, false)
			if a == nil {
				retryOrGiveUp(id, e.Attempt)
				break
			}
			if cfg.Hedge && e.Attempt == 0 {
				q.Push(serve.Event{At: now + hedgeAfter(arr.Class), Kind: evHedge, ID: id, Gen: a.tok})
			}
		case evHedge:
			primary, ok := atts[e.Gen]
			if done[id] || !ok || primary.dead {
				break // already resolved; nothing to hedge
			}
			if len(candidates(primary.bk)) == 0 {
				break // nowhere independent to hedge to
			}
			if budget != nil && !budget.Spend() {
				rep.BudgetDenied++
				budgetDeniedC.Inc()
				winDenied++
				break
			}
			a := launch(id, primary.attemptNo, primary.bk, true)
			if a == nil {
				break // hedge rejected; the primary races on alone
			}
			rep.Hedges++
			hedgesC.Inc()
			if keyShared(primary.bk, a.bk, arrivals[id].Scheme) {
				rep.HedgeKeyViolations++
			}
			tlog.Record(telemetry.EvHedge, arrivals[id].Scheme,
				fmt.Sprintf("backend-%d->backend-%d", primary.bk, a.bk), now)
		case evTimeout:
			a, ok := atts[e.Gen]
			if !ok || a.dead || !a.lost {
				break // resolved or cancelled before the deadline
			}
			unlive(a)
			rep.Timeouts++
			backends[a.bk].row.Timeouts++
			timeoutVec.With(fmt.Sprint(a.bk)).Inc()
			winBad++
			winBkBad[a.bk]++
			if br := backends[a.bk].b.Breaker; br != nil {
				br.Record(now, false)
			}
			ejector.Observe(a.bk, now, true, 0)
			if done[id] || len(live[id]) > 0 {
				break // a sibling attempt is still racing (or already won)
			}
			retryOrGiveUp(id, a.attemptNo+1)
		case evDone:
			a, ok := atts[e.Gen]
			if !ok || a.dead {
				break // cancelled loser; its slot was freed at win time
			}
			a.executing = false
			d := backends[a.bk]
			d.busy--
			terminalDone(a)
			admitNext(a.bk)
		case evTick:
			switch e.ID {
			case 0: // brownout window
				// Hot signals: retry-budget denials, failure burn
				// (cluster-wide or on any one backend), or sustained
				// fleet pressure — every worker busy with work still
				// queued behind. The pressure term matters because a
				// deep queue is overload the shed/deny counters cannot
				// see yet; without it the controller de-escalates the
				// moment shedding the lowest tier quiets one window,
				// while the fleet is still drowning in admitted work.
				burn := func(bad, n int) bool { return n > 0 && bad*1000 > n*bcfg.BurnPermille }
				// Capacity counts only routable backends: an ejected
				// backend's idle workers are not capacity the router can
				// use, and counting them would blind the pressure signal
				// for exactly as long as the ejection lasts.
				queued, busyTot, capTot := 0, 0, 0
				for bk, d := range backends {
					queued += len(d.fifo)
					busyTot += d.busy
					if !ejector.Ejected(bk, now) {
						capTot += cfg.Workers
					}
				}
				pressured := capTot > 0 && ((busyTot >= capTot && queued > 0) || queued*2 >= capTot)
				hot := winDenied >= bcfg.DenyThreshold || burn(winBad, winArrivals) || pressured
				for bk := range backends {
					if winBkRouted[bk] >= 8 && burn(winBkBad[bk], winBkRouted[bk]) {
						hot = true
					}
				}
				// Calm means recovered, not merely quiet: utilization at
				// half capacity or below with nothing queued. A window
				// that is not-hot only because a long job finished at
				// the right moment must not unwind the brownout.
				calm := !hot && winDenied == 0 && busyTot*2 <= capTot && queued == 0 &&
					!(winArrivals > 0 && winBad*1000*2 > winArrivals*bcfg.BurnPermille)
				switch {
				case hot:
					calmStreak = 0
					if brownLevel < len(shedOrder)-1 { // never shed the most important tier
						brownLevel++
						if brownLevel > rep.BrownoutMaxLevel {
							rep.BrownoutMaxLevel = brownLevel
						}
						tlog.Record(telemetry.EvBrownout, "", fmt.Sprintf("level %d->%d", brownLevel-1, brownLevel), now)
					}
				case calm && brownLevel > 0:
					// De-escalate only after a streak of calm windows:
					// one quiet window mid-overload is noise, and
					// flapping the level re-admits the heavy tiers
					// exactly when they hurt most.
					if calmStreak++; calmStreak >= 3 {
						calmStreak = 0
						brownLevel--
						tlog.Record(telemetry.EvBrownout, "", fmt.Sprintf("level %d->%d", brownLevel+1, brownLevel), now)
					}
				}
				winArrivals, winBad, winDenied = 0, 0, 0
				for i := range winBkBad {
					winBkBad[i], winBkRouted[i] = 0, 0
				}
				if q.Len() > ticksPending {
					q.Push(serve.Event{At: now + brownoutWindow, Kind: evTick, ID: 0})
					ticksPending++
				}
			case 1: // vertical core scaling
				for bk, d := range backends {
					limit := d.ctl.Tick()
					if limit != d.cores {
						resizesC.Inc()
						tlog.Record(telemetry.EvResize, fmt.Sprintf("backend-%d", bk),
							fmt.Sprintf("%d->%d cores", d.cores, limit), uint64(limit))
						d.cores = limit
					}
				}
				if q.Len() > ticksPending {
					q.Push(serve.Event{At: now + vcfg.Interval, Kind: evTick, ID: 1})
					ticksPending++
				}
			}
		}
	}

	rep.Issued = len(arrivals)
	rep.VirtualCycles = q.Now()
	for _, d := range backends {
		rep.InFlightAtEnd += d.busy + len(d.fifo)
		if br := d.b.Breaker; br != nil {
			d.row.BreakerOpens = br.Opens()
		}
		if ej := ejector.Row(d.row.Backend); ej.Ejections > 0 || ej.ErrEWMA > 0 || ej.DilationEWMA != 0 {
			row := ej
			d.row.Ejection = &row
		}
		rep.Ejections += d.row.Ejection.count()
		d.row.Cores = d.cores
		if cfg.VerticalAdaptive != nil {
			st := d.ctl.Stats()
			d.row.CoreStats = &st
		}
		d.row.ServiceP99 = d.svc.Quantile(99, 100)
		rep.PerBackend = append(rep.PerBackend, d.row)
	}
	rep.PerScheme = rep.Close()
	rep.SLO = eval.Report()
	if budget != nil {
		st := budget.Stats()
		rep.Budget = &st
		rep.BudgetBound = budget.Bound(st.Primaries)
	}
	return rep, nil
}

// count is a nil-safe ejection tally for report assembly.
func (e *EjectionRow) count() int {
	if e == nil {
		return 0
	}
	return e.Ejections
}
