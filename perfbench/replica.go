package main

import (
	"context"
	"encoding/json"
	"fmt"
	"math/rand"
	"time"

	"pacstack/internal/compile"
	"pacstack/internal/fault"
	"pacstack/internal/kernel"
	"pacstack/internal/pa"
	"pacstack/internal/par"
	"pacstack/internal/pool"
	"pacstack/internal/resilience"
	"pacstack/internal/serve"
	"pacstack/internal/supervise"
	"pacstack/internal/telemetry"
)

// daemonSeed is pacstack-serve's default -seed: the replica derives
// request entropy and pool images from it exactly as the daemon does.
const daemonSeed = 1

// span is one traced call: its name (layer.operation), when it started
// and ended relative to the tracer's origin, its parent span (-1 for a
// request's root) and the request it belongs to.
type span struct {
	name       string
	start, end time.Duration
	parent     int
	req        int
}

// tracer records spans in memory. A disabled tracer records nothing;
// its calls cost a branch.
type tracer struct {
	on    bool
	t0    time.Time
	spans []span
}

func newTracer(on bool) *tracer { return &tracer{on: on, t0: time.Now()} }

func (t *tracer) begin(name string, parent, req int) int {
	if !t.on {
		return -1
	}
	t.spans = append(t.spans, span{name: name, start: time.Since(t.t0), parent: parent, req: req})
	return len(t.spans) - 1
}

// finish ends span i. Ending a request's root also ends every span of
// the request a panic left open, at the same instant.
func (t *tracer) finish(i int) {
	if i < 0 {
		return
	}
	now := time.Since(t.t0)
	t.spans[i].end = now
	if t.spans[i].parent < 0 {
		for j := i + 1; j < len(t.spans); j++ {
			if t.spans[j].end == 0 {
				t.spans[j].end = now
			}
		}
	}
}

// replica re-enacts serve.(*Server).Do and its execute step from the
// packages' exported calls, in the order the server makes them, with
// the daemon's default configuration (warm pools, no chaos, no heal,
// breakers at threshold 8). Each call into a layer is a span.
type replica struct {
	adm      *resilience.Admission
	breakers map[string]*resilience.Breaker
	engines  map[string]*fault.Engine
	pools    map[pair]*pool.Pool
	ktels    map[string]*kernel.Telemetry
	sup      *supervise.Telemetry
	cycles   *telemetry.Histogram
	outcomes *telemetry.CounterVec
}

func newReplica(pairs []pair) (*replica, error) {
	tel := telemetry.New(telemetry.Options{})
	reg := tel.Registry()
	r := &replica{
		adm:      resilience.NewAdmission(4, 8),
		breakers: map[string]*resilience.Breaker{},
		engines:  map[string]*fault.Engine{},
		pools:    map[pair]*pool.Pool{},
		ktels:    map[string]*kernel.Telemetry{},
		sup: &supervise.Telemetry{
			Restarts:  reg.Counter("pacstack_supervise_restarts_total", ""),
			ColdBoots: reg.Counter("pacstack_supervise_cold_boots_total", ""),
			Events:    tel.Log(),
		},
		cycles:   reg.Histogram("pacstack_serve_request_cycles", "", []uint64{1_000, 5_000, 25_000, 100_000, 500_000, 2_500_000}),
		outcomes: reg.CounterVec("pacstack_serve_outcomes_total", "", "outcome"),
	}
	poolTel := pool.NewTelemetry(reg)
	for _, p := range pairs {
		sc, err := serve.ParseScheme(p.Scheme)
		if err != nil {
			return nil, err
		}
		if r.engines[p.Workload] == nil {
			prog, err := serve.ResolveProgram(p.Workload, nil)
			if err != nil {
				return nil, err
			}
			r.engines[p.Workload] = fault.NewEngine(prog)
		}
		if r.ktels[p.Scheme] == nil {
			r.ktels[p.Scheme] = kernelTelemetry(tel, p.Scheme)
			r.breakers[p.Scheme] = resilience.NewBreaker(resilience.BreakerConfig{Threshold: 8, Cooldown: uint64(100 * time.Millisecond)})
		}
		img, err := r.engines[p.Workload].Image(sc)
		if err != nil {
			return nil, err
		}
		seed := int64(daemonSeed)
		for _, c := range p.Workload + "/" + p.Scheme {
			seed = mix(seed, int64(c)+0x9001)
		}
		scheme := sc
		pl, err := pool.New(pool.Config{
			Img:       img,
			PA:        pa.DefaultConfig(),
			Seed:      seed,
			Configure: func(p *kernel.Process) { fault.Harden(scheme, p) },
			Shards:    par.Workers(),
			Tel:       poolTel,
		})
		if err != nil {
			return nil, err
		}
		r.pools[p] = pl
	}
	return r, nil
}

// kernelTelemetry builds the per-scheme kernel and PA instrumentation
// bundle the server attaches to every request's kernel.
func kernelTelemetry(tel *telemetry.Set, scheme string) *kernel.Telemetry {
	reg, events := tel.Registry(), tel.Log()
	kc := func(metric string) *telemetry.Counter {
		return reg.CounterVec(metric, "", "scheme").With(scheme)
	}
	return &kernel.Telemetry{
		Quanta:        kc("pacstack_kernel_quanta_total"),
		Instrs:        kc("pacstack_kernel_instrs_total"),
		Cancels:       kc("pacstack_kernel_cancels_total"),
		Kills:         reg.CounterVec("pacstack_kernel_kills_total", "", "scheme", "class").Curry(scheme),
		Signals:       kc("pacstack_kernel_signals_total"),
		SigframeBinds: kc("pacstack_kernel_sigframe_binds_total"),
		Spawns:        kc("pacstack_kernel_spawns_total"),
		Chain: &pa.Trace{
			PACIssued: kc("pacstack_pa_pac_issued_total"),
			AuthOK:    kc("pacstack_pa_auth_ok_total"),
			AuthFail:  kc("pacstack_pa_auth_fail_total"),
			Masks:     kc("pacstack_pa_masks_total"),
			MemoHit:   kc("pacstack_pa_memo_hits_total"),
			MemoMiss:  kc("pacstack_pa_memo_misses_total"),
			Strips:    kc("pacstack_pa_strips_total"),
			PACGAs:    kc("pacstack_pa_pacga_total"),
			Events:    events,
		},
		Events: events,
	}
}

// mix is the server's seed-folding function (a splitmix64 finalizer).
func mix(a, b int64) int64 {
	return int64(splitmix(uint64(a), uint64(b)))
}

func wallNow() uint64 { return uint64(time.Now().UnixNano()) }

// do serves one request the way Server.Do does.
func (r *replica) do(ctx context.Context, req request, tr *tracer) (*serve.Result, error) {
	root := tr.begin("serve.request", -1, req.Index)
	defer tr.finish(root)
	eng, br := r.engines[req.Workload], r.breakers[req.Scheme]
	sc, err := serve.ParseScheme(req.Scheme)
	if err != nil || eng == nil || br == nil {
		return nil, fmt.Errorf("replica: no engine for %s/%s", req.Workload, req.Scheme)
	}
	sp := tr.begin("resilience.breaker", root, req.Index)
	allowed := br.Allow(wallNow())
	tr.finish(sp)
	if !allowed {
		return nil, resilience.ErrBreakerOpen
	}
	sp = tr.begin("resilience.admit", root, req.Index)
	err = r.adm.Acquire(ctx)
	tr.finish(sp)
	if err != nil {
		return nil, err
	}
	var res *serve.Result
	rng := rand.New(rand.NewSource(mix(daemonSeed, req.Seed)))
	runErr := resilience.Protect(func() error {
		var err error
		res, err = r.execute(ctx, eng, sc, req, rng, tr, root)
		return err
	})
	sp = tr.begin("resilience.breaker", root, req.Index)
	br.Record(wallNow(), serve.BackendHealthy(runErr))
	tr.finish(sp)
	if runErr == nil {
		r.outcomes.With("ok").Inc()
	} else {
		r.outcomes.With("error").Inc()
	}
	sp = tr.begin("resilience.release", root, req.Index)
	r.adm.Release()
	tr.finish(sp)
	return res, runErr
}

// execute mirrors the server's execute on the warm path.
func (r *replica) execute(ctx context.Context, eng *fault.Engine, sc compile.Scheme, req request, rng *rand.Rand, tr *tracer, root int) (*serve.Result, error) {
	id := req.Index
	sp := tr.begin("fault.image", root, id)
	img, err := eng.Image(sc)
	tr.finish(sp)
	if err != nil {
		return nil, err
	}
	sp = tr.begin("fault.golden", root, id)
	goldenOut, goldenExit, goldenInstrs, err := eng.Golden(sc)
	tr.finish(sp)
	if err != nil {
		return nil, err
	}
	pl := r.pools[pair{req.Workload, req.Scheme}]
	sp = tr.begin("pool.get", root, id)
	m := pl.Get()
	tr.finish(sp)
	var k *kernel.Kernel
	if m != nil {
		defer func() {
			sp := tr.begin("pool.put", root, id)
			pl.Put(m)
			tr.finish(sp)
		}()
		k = m.K
	} else {
		k = kernel.New(pa.DefaultConfig())
	}
	sp = tr.begin("kernel.seed", root, id)
	k.Seed(rng.Int63())
	tr.finish(sp)
	k.SetTelemetry(r.ktels[req.Scheme])
	sup := supervise.New(img, k, supervise.Policy{
		Respawn: supervise.RespawnExec,
		Budget:  4*goldenInstrs + 10_000,
	})
	sup.Tel = r.sup
	supSpan := tr.begin("supervise.run", root, id)
	run := -1
	endRun := func() {
		tr.finish(run)
		run = -1
	}
	if m != nil {
		sup.Boot = func() (*kernel.Process, error) {
			endRun()
			sp := tr.begin("pool.reset", supSpan, id)
			defer tr.finish(sp)
			return pl.Reset(m)
		}
	}
	sup.Configure = func(p *kernel.Process) { fault.Harden(sc, p) }
	proc, runErr := sup.RunCtx(ctx, func(int, *kernel.Process) {
		endRun()
		run = tr.begin("kernel.run", supSpan, id)
	})
	endRun()
	tr.finish(supSpan)

	sp = tr.begin("fault.classify", root, id)
	outcome, cause, err := eng.ClassifyRun(sc, runErr, proc)
	tr.finish(sp)
	if err != nil {
		return nil, err
	}
	r.cycles.Observe(proc.Cycles())
	attempts := len(sup.Attempts)
	switch outcome {
	case fault.OutcomeDetected:
		return nil, &serve.CorruptionError{Cause: cause, Kill: proc.Kill, Attempts: attempts, Cycles: proc.Cycles()}
	case fault.OutcomeSilent:
		return nil, &serve.SilentCorruptionError{
			Output: string(proc.Output), Want: string(goldenOut),
			ExitCode: proc.ExitCode, WantExit: goldenExit, Cycles: proc.Cycles(),
		}
	}
	return &serve.Result{
		Workload: req.Workload, Scheme: req.Scheme,
		Output: string(proc.Output), ExitCode: proc.ExitCode,
		Instrs: instrs(proc), Cycles: proc.Cycles(),
		Attempts: attempts, Healed: attempts > 1,
		Checkpoints: sup.Commits, Restores: sup.Restores, TornCommits: sup.CommitErrs,
	}, nil
}

// checkOutcome classifies an in-process result or error exactly as
// the daemon's reply to it would be classified.
func checkOutcome(req request, res *serve.Result, err error, refs map[pair]ref) checked {
	status, body := 200, any(res)
	if err != nil {
		status, body = serve.HTTPStatus(err)
	}
	raw, merr := json.Marshal(body)
	if merr != nil {
		return checked{verdict: verdictIncorrect, kind: "unencodable result"}
	}
	return classify(req.Request, status, raw, nil, refs)
}
