// The cluster soak's replay: one event loop on the shared
// discrete-event core (internal/serve's des.go), fed by either arrival
// process. Closed-loop, serve.Clients issue requests back to back and
// scheduled kills take backends down mid-soak. Open-loop, a
// traffic.Model generates the arrival stream, a seeded network fault
// mesh sits between the router and the backends, and the resilience
// machinery that earns its keep under it runs.
//
// Every submission — a fresh issue, a retry, a failover replay, a
// hedge — goes through one admission path: the run of same-instant
// issues is routed, grouped by backend, and each group is arbitrated
// by its breaker's GrantProbes, so racing probe candidates are ordered
// by seed, not by heap order. Every attempt that leaves the fleet
// without finishing — a hedge loser, or an orphan of a killed backend —
// is voided the same way: it drops out of the live set and its pending
// completion is ignored.
//
// A kill migrates the victim's machines to the best survivor with
// re-seeded keys, replays its orphaned requests exactly once on the
// survivors, and charges the failover budget once. Four mechanisms
// serve the open-loop mesh:
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
// parallel as pure functions of arrival identity; every routing
// decision, kill, mesh draw, hedge, ejection and brownout transition
// happens in the serial replay in queue order. Same seed and knobs,
// byte-identical report and telemetry at any -par width;
// TestSoakGoldens pins it.

package cluster

import (
	"context"
	"fmt"
	"math/rand"
	"sort"

	"pacstack/internal/mesh"
	"pacstack/internal/resilience"
	"pacstack/internal/serve"
	"pacstack/internal/supervise"
	"pacstack/internal/telemetry"
	"pacstack/internal/traffic"
)

// The open-loop replay's fixed timing, in virtual cycles. A hedge fires
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

// tAttempt is one attempt (primary, retry, replay or hedge) of one
// request. It is live from placement until it finishes, times out, or
// is voided; the live set is atts and live in replay.
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
	hedged    bool
}

// replay runs the cluster soak. Callers arrive through Soak, which has
// applied defaults and validated the mode.
func replay(ctx context.Context, cfg SoakConfig) (*ClusterReport, error) {
	model := cfg.Traffic
	st, err := cfg.Stream()
	if err != nil {
		return nil, err
	}
	arrivals, clients := st.Arrivals, st.Clients
	rep := &ClusterReport{
		Seed: cfg.Seed, Workload: st.Workload, Schemes: st.Schemes, Backends: cfg.Backends,
		ChaosRate: cfg.ChaosRate, Heal: cfg.Heal, KilledBackend: -1, Traffic: model != nil,
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
	kills := append([]KillSpec(nil), cfg.Kills...)
	for _, k := range kills {
		if k.At == 0 {
			return nil, fmt.Errorf("cluster: kill at virtual instant 0")
		}
		if k.Backend >= cfg.Backends {
			return nil, fmt.Errorf("cluster: kill backend %d out of range (fleet of %d)", k.Backend, cfg.Backends)
		}
	}
	sort.SliceStable(kills, func(i, j int) bool { return kills[i].At < kills[j].At })
	// A traffic run's resident machines are chain images whatever its
	// class mixture.
	workload := "chain"
	if clients != nil {
		workload = cfg.Workload
		rep.Clients, rep.PerClient = cfg.Clients, cfg.Requests
	}
	prog, err := serve.ResolveProgram(workload, nil)
	if err != nil {
		return nil, err
	}

	// A traffic run without an attached set still gets a private one:
	// report fields (per-backend service p99) read the histograms, and
	// the report must not change shape with telemetry plumbed in or out.
	if cfg.Telemetry == nil && model != nil {
		cfg.Telemetry = telemetry.New(telemetry.Options{})
	}
	q := &serve.Queue{}
	q.Stamp(cfg.Telemetry)
	reg := cfg.Telemetry.Registry()
	tlog := cfg.Telemetry.Log()
	// Each arrival process registers only the families it feeds (treg:
	// open-loop, kreg: closed-loop with kills), because a registered
	// family is dumped even when empty.
	treg, kreg := reg, reg
	if model != nil {
		kreg = nil
	} else {
		treg = nil
	}

	routedVec := reg.CounterVec("pacstack_cluster_routed_total", "requests admitted per backend", "backend")
	shedsVec := reg.CounterVec("pacstack_cluster_sheds_total", "arrivals shed per backend (queue full)", "backend")
	deniedVec := reg.CounterVec("pacstack_cluster_breaker_denied_total", "arrivals denied per backend breaker", "backend")
	clRetries := reg.Counter("pacstack_cluster_retries_total", "client retries after a rejection")
	clGaveUp := reg.Counter("pacstack_cluster_gave_up_total", "requests abandoned after the retry budget")
	replayedVec := kreg.CounterVec("pacstack_cluster_replayed_total", "orphaned requests replayed per adopting backend", "backend")
	migrationsVec := kreg.CounterVec("pacstack_cluster_migrations_total", "machine migrations per backend", "backend", "direction")
	migrateBytes := kreg.Counter("pacstack_cluster_migrate_bytes_total", "snapshot image bytes shipped in failovers")
	failovers := kreg.Counter("pacstack_cluster_failovers_total", "backend deaths absorbed by migration and replay")
	budgetCharges := kreg.Counter("pacstack_cluster_budget_charges_total", "failover restart-budget charges")
	dropVec := treg.CounterVec("pacstack_cluster_link_drops_total", "messages the mesh ate per backend", "backend", "cause")
	timeoutVec := treg.CounterVec("pacstack_cluster_timeouts_total", "attempts declared lost per backend", "backend")
	ejectVec := treg.CounterVec("pacstack_cluster_ejections_total", "outlier ejections per backend", "backend")
	svcVec := treg.HistogramVec("pacstack_cluster_service_cycles", "per-attempt service duration by backend", traffic.LatencyBounds, "backend")
	brownVec := treg.CounterVec("pacstack_cluster_brownout_total", "arrivals browned out per class", "class")
	hedgesC := treg.Counter("pacstack_cluster_hedges_total", "hedged attempts launched")
	hedgeWinsC := treg.Counter("pacstack_cluster_hedge_wins_total", "requests whose hedge finished first")
	noBackendC := treg.Counter("pacstack_cluster_no_backend_total", "routing decisions with an empty candidate set")
	budgetDeniedC := treg.Counter("pacstack_cluster_retry_budget_denied_total", "secondary attempts refused by the retry budget")
	resizesC := treg.Counter("pacstack_cluster_core_resizes_total", "vertical core-count changes")

	var vcfg resilience.AIMDConfig
	if cfg.VerticalAdaptive != nil {
		vcfg = *cfg.VerticalAdaptive
		if vcfg.Start == 0 {
			vcfg.Start = cfg.Cores
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
	backends, err := bootFleet(cfg, prog, rep.Schemes)
	if err != nil {
		return nil, err
	}
	for i, d := range backends {
		d.cores, d.svc = cfg.Cores, svcVec.With(fmt.Sprint(i))
		if cfg.VerticalAdaptive != nil {
			d.ctl = resilience.NewAIMD(vcfg)
			d.cores = d.ctl.Limit()
		}
	}
	router := NewRouter(cfg.Seed)
	// Request identity fixes each seed. Which backend ends up executing
	// a request is a routing fact, not an entropy source, which is why a
	// migrated or hedged request can run elsewhere and still produce the
	// same answer.
	outcomes, _, err := serve.Precompute(ctx, cfg.SoakConfig, st)
	if err != nil {
		return nil, err
	}

	// A closed-loop run has no classes; its one-class evaluator is
	// never reported.
	classes := []traffic.Class{{}}
	if model != nil {
		classes = model.Classes
	}
	eval := traffic.NewEvaluator(classes, treg)

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
		sort.Sort(sort.Reverse(sort.IntSlice(shedOrder)))
	}
	brownLevel := 0
	calmStreak := 0
	var winArrivals, winBad, winDenied int
	winBkBad := make([]int, cfg.Backends)
	winBkRouted := make([]int, cfg.Backends)

	backoffs := serve.NewBackoffs(cfg.Seed, clients)

	done := make([]bool, len(arrivals))
	replayed := make([]bool, len(arrivals)) // re-issued by a failover
	live := make([][]*tAttempt, len(arrivals))
	atts := map[int]*tAttempt{}
	nextTok := 0

	alive := func() []int {
		var out []int
		for i, d := range backends {
			if d.row.Alive {
				out = append(out, i)
			}
		}
		return out
	}
	// candidates is the routable fleet at now: alive, not ejected, not
	// the excluded backend.
	candidates := func(exclude int) []int {
		var out []int
		for _, i := range alive() {
			if i != exclude && !ejector.Ejected(i, q.Now()) {
				out = append(out, i)
			}
		}
		return out
	}

	track := func(a *tAttempt) {
		atts[a.tok] = a
		live[a.id] = append(live[a.id], a)
	}
	unlive := func(a *tAttempt) {
		delete(atts, a.tok)
		l := live[a.id]
		for i, x := range l {
			if x == a {
				live[a.id] = append(l[:i], l[i+1:]...)
				break
			}
		}
	}
	// next moves a closed-loop client on from a request that reached
	// its terminal state.
	next := func(id int) {
		if clients != nil {
			clients.Next(q, evIssue, id)
		}
	}
	// startSvc begins one attempt's execution on its backend: the
	// serving soak's contention model (service = (ServiceOverhead +
	// cycles) x slow x ceil(busy/cores), fixed at service start) plus
	// the attempt's mesh link latency. Closed-loop attempts have slow 1,
	// no link, and never more busy workers than cores.
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
			if a, ok := atts[tok]; ok {
				a.queued = false
				startSvc(a)
			}
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
			if a.queued || a.executing {
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
		if replayed[id] {
			d.row.Replayed++
			replayedVec.With(fmt.Sprint(a.bk)).Inc()
		}
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

	// giveUp ends a request without an execution; an empty detail logs
	// no request_done event (a closed-loop client's give-up).
	giveUp := func(id int, detail string) {
		arr := arrivals[id]
		done[id] = true
		rep.GiveUp(arr.Scheme)
		clGaveUp.Inc()
		eval.Done(arr.Class, q.Now()-arr.At, traffic.OutcomeGaveUp)
		if detail != "" {
			tlog.Record(telemetry.EvRequestDone, arr.Scheme, detail, q.Now())
		}
		next(id)
	}
	// retryOrGiveUp re-issues a rejected/lost request if the client
	// has retries left AND the cluster's retry budget grants one:
	// under a retry storm the budget is the binding constraint, and a
	// denied retry is a loud terminal give-up, not a silent wait.
	retryOrGiveUp := func(id, attempt int) {
		arr := arrivals[id]
		if attempt >= cfg.Retries {
			detail := "gave-up:retries"
			if clients != nil {
				detail = ""
			}
			giveUp(id, detail)
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

	// place puts one breaker-granted attempt on its backend: the mesh
	// may eat the message (the attempt stays in flight until its
	// timeout), else it starts, queues, or is shed. It reports whether
	// the attempt is in flight.
	place := func(a *tAttempt) bool {
		now, d := q.Now(), backends[a.bk]
		arr := arrivals[a.id]
		a.tok = nextTok
		nextTok++
		v := net.Sample(a.bk, now)
		if v.Drop {
			// The message vanished: no backend resource is held, the
			// sender learns nothing until the timeout fires.
			a.lost = true
			track(a)
			rep.LinkDrops++
			dropVec.With(fmt.Sprint(a.bk), v.Cause.String()).Inc()
			tlog.Record(telemetry.EvLinkDrop, fmt.Sprintf("backend-%d", a.bk), v.Cause.String(), now)
			q.Push(serve.Event{At: now + dropTimeout, Kind: evTimeout, ID: a.id, Gen: a.tok})
			return true
		}
		a.linkLat = v.Latency
		switch {
		case d.busy < cfg.Workers:
			track(a)
			startSvc(a)
		case len(d.fifo) < cfg.Queue:
			a.queued = true
			track(a)
			d.fifo = append(d.fifo, a.tok)
		default:
			d.row.Sheds++
			rep.Sheds++
			shedsVec.With(fmt.Sprint(a.bk)).Inc()
			eval.Shed(arr.Class)
			winBad++
			winBkBad[a.bk]++
			tlog.Record(telemetry.EvShed, arr.Scheme, fmt.Sprintf("backend-%d queue full", a.bk), now)
			return false
		}
		d.row.Routed++
		winBkRouted[a.bk]++
		routedVec.With(fmt.Sprint(a.bk)).Inc()
		return true
	}
	// admit is the one admission path. It routes each attempt of a run
	// of same-instant submissions (every router decision advances the
	// rotor, spreading load among equals), groups them by chosen
	// backend, and lets each backend's breaker arbitrate its group in
	// one GrantProbes batch: racing probe candidates are ordered by the
	// breaker's seed, not by event-heap order. Winners are placed in
	// grant order, then the losers are denied. settle learns each
	// attempt's fate (in flight or rejected) as soon as it is decided.
	admit := func(batch []*tAttempt, exclude int, settle func(a *tAttempt, inFlight bool)) {
		now := q.Now()
		groups := map[int][]*tAttempt{}
		var chosen []int
		for _, a := range batch {
			order := route(router, backends, now, candidates(exclude))
			switch {
			case len(order) > 0:
				a.bk = order[0]
				if groups[a.bk] == nil {
					chosen = append(chosen, a.bk)
				}
				groups[a.bk] = append(groups[a.bk], a)
				continue
			case len(alive()) == 0:
				// No fleet left: the request can never execute.
				a.attemptNo = cfg.Retries
			default:
				rep.NoBackend++
				noBackendC.Inc()
				winBad++
				tlog.Record(telemetry.EvShed, arrivals[a.id].Scheme, "no_backend", now)
			}
			settle(a, false)
		}
		sort.Ints(chosen)
		for _, bk := range chosen {
			group := groups[bk]
			ids := make([]uint64, len(group))
			byID := make(map[uint64]*tAttempt, len(group))
			for i, a := range group {
				ids[i] = uint64(a.id)
				byID[ids[i]] = a
			}
			granted := ids
			if br := backends[bk].b.Breaker; br != nil {
				granted = br.GrantProbes(now, ids)
			}
			for _, id := range granted {
				a := byID[id]
				delete(byID, id)
				settle(a, place(a))
			}
			for _, id := range ids {
				a, denied := byID[id]
				if !denied {
					continue
				}
				backends[bk].row.BreakerDenied++
				rep.BreakerDenied++
				deniedVec.With(fmt.Sprint(bk)).Inc()
				winBad++
				winBkBad[bk]++
				settle(a, false)
			}
		}
	}
	// issued settles a request's own attempt: a rejection goes to the
	// client's retry path, an in-flight primary gets its hedge deadline.
	issued := func(a *tAttempt, inFlight bool) {
		if !inFlight {
			retryOrGiveUp(a.id, a.attemptNo)
		} else if cfg.Hedge && a.attemptNo == 0 {
			q.Push(serve.Event{At: q.Now() + hedgeAfter(arrivals[a.id].Class), Kind: evHedge, ID: a.id, Gen: a.tok})
		}
	}
	// arrive accounts a request's first attempt (fresh, or a failover
	// replay) and reports whether brownout lets it in: level L sheds
	// the top L tiers of shedOrder.
	arrive := func(id int) bool {
		arr := arrivals[id]
		winArrivals++
		if budget != nil {
			budget.Earn()
		}
		if brownLevel == 0 || model.Classes[arr.Class].Priority < shedOrder[brownLevel-1] {
			return true
		}
		rep.BrownedOut++
		brownVec.With(model.Classes[arr.Class].Name).Inc()
		eval.Brownout(arr.Class)
		done[id] = true
		rep.GiveUp(arr.Scheme) // terminal for the conservation identity
		return false
	}

	// keyShared asserts the §4.3 hedge precondition: the two backends
	// of a hedge pair must not share PA keys for the request's scheme
	// (an attacker observing one execution must not be able to forge
	// the other's authenticated call stack).
	resident := func(bk int, scheme string) *Machine {
		for _, m := range backends[bk].b.Machines() {
			if m.Scheme == scheme {
				return m
			}
		}
		return nil
	}
	keyShared := func(bkA, bkB int, scheme string) bool {
		pa, pb := resident(bkA, scheme), resident(bkB, scheme)
		return pa != nil && pb != nil && supervise.SharedKeys(pa.Proc, pb.Proc)
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
			up := alive()
			if len(up) == 0 {
				return nil
			}
			kb = up[killRNG.Intn(len(up))]
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

		// Orphans: the victim's executing attempts by ascending request
		// id, then its queue in order. Each is voided here, so its
		// pending evDone is ignored.
		var orphans []*tAttempt
		for _, l := range live {
			for _, a := range l {
				if a.bk == kb && a.executing {
					orphans = append(orphans, a)
				}
			}
		}
		rep.OrphansExecuting += len(orphans)
		rep.OrphansQueued += len(d.fifo)
		for _, tok := range d.fifo {
			orphans = append(orphans, atts[tok])
		}
		for _, a := range orphans {
			unlive(a)
		}
		d.busy, d.fifo = 0, nil
		krow.Orphans = len(orphans)

		survivors := alive()
		if rep.BudgetCharged >= cfg.FailoverBudget || len(survivors) == 0 {
			// Nothing absorbs this death: orphans end terminally, loudly.
			for _, a := range orphans {
				rep.Abandoned++
				giveUp(a.id, "abandoned:failover-budget")
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
		survivor := route(router, backends, now, survivors)[0]
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
		// re-issued on the survivors after the migration latency, as a
		// fresh first attempt. The request's outcome (and so its heal
		// attempts) was precomputed once and will be charged once, at its
		// single terminal evDone — a failover hop never multiplies the
		// supervise restart budget.
		seen := make(map[int]bool, len(orphans))
		for _, a := range orphans {
			if seen[a.id] {
				rep.ReplayViolations++
				continue
			}
			seen[a.id] = true
			replayed[a.id] = true
			rep.Replayed++
			krow.Replayed++
			q.Push(serve.Event{At: now + cfg.MigrateLatency, Kind: evIssue, ID: a.id})
		}
		rep.Kills = append(rep.Kills, krow)
		return nil
	}

	// Start: the arrival process schedules its first issues; the kills
	// are first-class events in the same queue, their schedule index
	// carried in the ID field.
	if clients != nil {
		clients.Start(q, evIssue)
	} else {
		for i, a := range arrivals {
			q.Push(serve.Event{At: a.At, Kind: evIssue, ID: i})
			eval.Arrival(a.Class)
		}
	}
	for i, k := range kills {
		q.Push(serve.Event{At: k.At, Kind: evKill, ID: i})
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
		switch e.Kind {
		case evIssue:
			// Drain the maximal run of same-instant issues into one
			// batch, so requests arriving at the same virtual instant
			// race through GrantProbes instead of through queue order.
			var batch []*tAttempt
			for {
				if !done[e.ID] && (e.Attempt > 0 || arrive(e.ID)) {
					batch = append(batch, &tAttempt{id: e.ID, attemptNo: e.Attempt})
				}
				if q.Len() == 0 || q.Peek().At != now || q.Peek().Kind != evIssue {
					break
				}
				e = q.Pop()
			}
			admit(batch, -1, issued)
		case evHedge:
			primary, ok := atts[e.Gen]
			if done[id] || !ok || len(candidates(primary.bk)) == 0 {
				break // resolved already, or nowhere independent to hedge to
			}
			if budget != nil && !budget.Spend() {
				rep.BudgetDenied++
				budgetDeniedC.Inc()
				winDenied++
				break
			}
			hedge := &tAttempt{id: id, attemptNo: primary.attemptNo, hedged: true}
			admit([]*tAttempt{hedge}, primary.bk, func(a *tAttempt, inFlight bool) {
				if !inFlight {
					return // hedge rejected; the primary races on alone
				}
				rep.Hedges++
				hedgesC.Inc()
				if keyShared(primary.bk, a.bk, arrivals[id].Scheme) {
					rep.HedgeKeyViolations++
				}
				tlog.Record(telemetry.EvHedge, arrivals[id].Scheme,
					fmt.Sprintf("backend-%d->backend-%d", primary.bk, a.bk), now)
			})
		case evTimeout:
			a, ok := atts[e.Gen]
			if !ok {
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
			if !ok {
				break // voided: a cancelled hedge loser or a killed backend's orphan
			}
			backends[a.bk].busy--
			terminalDone(a)
			admitNext(a.bk)
			next(id)
		case evKill:
			if err := kill(kills[id]); err != nil {
				return nil, err
			}
		case evTick:
			ticksPending--
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
			d.row.Ejection = &ej
		}
		if model != nil {
			d.row.Cores = d.cores
		}
		if cfg.VerticalAdaptive != nil {
			st := d.ctl.Stats()
			d.row.CoreStats = &st
		}
		d.row.ServiceP99 = d.svc.Quantile(99, 100)
		rep.PerBackend = append(rep.PerBackend, d.row)
	}
	rep.Ejections = ejector.Ejections()
	rep.PerScheme = rep.Close()
	if model != nil {
		rep.SLO = eval.Report()
	}
	if budget != nil {
		st := budget.Stats()
		rep.Budget = &st
		rep.BudgetBound = budget.Bound(st.Primaries)
	}
	return rep, nil
}
