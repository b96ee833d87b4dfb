package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"runtime/metrics"
	"sort"
	"strings"
	"time"

	"pacstack/internal/compile"
	"pacstack/internal/fault"
	"pacstack/internal/kernel"
	"pacstack/internal/pa"
	"pacstack/internal/qarma"
	"pacstack/internal/serve"
)

// layerResult is the output of a traced run's in-process part.
type layerResult struct {
	metrics map[string]metric
	tally   *tally
}

// isolated caps how many sample requests each isolated timing uses.
const isolated = 300

// measureLayers replays the workload's sample through the replica
// (untraced, traced) and through an in-process serve.Server, times
// single layers on the same inputs, and combines them with the
// daemon counters the determinism window moved.
func measureLayers(e *env, w serveWorkload, refs map[pair]ref, win *window) (*layerResult, error) {
	sample := make([]request, 0, w.sample+w.contrast)
	for i := 0; i < w.sample; i++ {
		sample = append(sample, w.at(e.seed, i))
	}
	pairs := append([]pair(nil), w.pairs...)
	seen := map[pair]bool{}
	for _, p := range pairs {
		seen[p] = true
	}
	for i := 0; i < w.contrast; i++ {
		r := w.at(e.seed, i)
		r.Scheme = "baseline"
		r.Index = w.sample + i
		sample = append(sample, r)
		if p := (pair{r.Workload, r.Scheme}); !seen[p] {
			seen[p] = true
			pairs = append(pairs, p)
		}
	}
	if len(pairs) > len(w.pairs) {
		extra, err := references(pairs[len(w.pairs):], e.seed)
		if err != nil {
			return nil, err
		}
		for p, r := range extra {
			refs[p] = r
		}
	}
	isContrast := func(r request) bool { return r.Index >= w.sample }

	rep, err := newReplica(pairs)
	if err != nil {
		return nil, err
	}
	srv := serve.New(serve.Config{Warm: true})
	t := newTally()
	ctx := context.Background()
	// Set-up: one request per pair through both, as the daemon's set-up.
	for j, p := range pairs {
		req := request{Index: -1 - j, Request: serve.Request{Workload: p.Workload, Scheme: p.Scheme, Seed: requestSeed(e.seed, -1-j)}}
		res, err := rep.do(ctx, req, newTracer(false))
		t.add(req.Request, checkOutcome(req, res, err, refs))
		res, err = srv.Do(ctx, req.Request)
		t.add(req.Request, checkOutcome(req, res, err, refs))
	}

	// Each request runs three ways — the untraced replica, the traced
	// replica and Server.Do — back to back, in an order that rotates
	// from request to request, so host drift and cache warmth fall on
	// all three alike. Two passes; the spans kept are the last pass's.
	n := len(sample)
	untraced := make([]time.Duration, n)
	tracedTime := make([]time.Duration, n)
	doTime := make([]time.Duration, n)
	results := make([]*serve.Result, n)
	off, traced := newTracer(false), newTracer(true)
	for pass := 0; pass < 2; pass++ {
		traced.spans = traced.spans[:0]
		for i, req := range sample {
			for k := 0; k < 3; k++ {
				var res *serve.Result
				var err error
				t0 := time.Now()
				switch (i + k + pass) % 3 {
				case 0:
					res, err = rep.do(ctx, req, off)
					untraced[i] += time.Since(t0)
				case 1:
					res, err = rep.do(ctx, req, traced)
					tracedTime[i] += time.Since(t0)
					results[i] = res
				case 2:
					res, err = srv.Do(ctx, req.Request)
					doTime[i] += time.Since(t0)
				}
				t.add(req.Request, checkOutcome(req, res, err, refs))
			}
		}
	}
	// Allocation and GC work of the untraced replica alone.
	gcBefore := readGC()
	for _, req := range sample {
		res, err := rep.do(ctx, req, off)
		t.add(req.Request, checkOutcome(req, res, err, refs))
	}
	gc := readGC().minus(gcBefore)
	t.print("in-process replica and Server.Do")

	if err := writeSpans(e, w.name, traced.spans); err != nil {
		return nil, err
	}
	m := map[string]metric{}
	spans := spanStats(traced.spans, func(req int) bool { return req >= 0 && !isContrast(sample[req]) })
	for _, line := range spans.table() {
		fmt.Println(line)
	}
	var untracedTotal, tracedTotal, doTotal time.Duration
	for i, req := range sample {
		if !isContrast(req) {
			untracedTotal += untraced[i]
			tracedTotal += tracedTime[i]
			doTotal += doTime[i]
		}
	}
	m["serve.request_us"] = metric{spans.medianUS("serve.request", true), "us"}
	m["trace.overhead_share"] = metric{float64(tracedTotal)/float64(untracedTotal) - 1, "ratio"}
	m["serve.unexplained_share"] = metric{float64(doTotal-untracedTotal) / float64(doTotal), "ratio"}
	m["resilience.admit_us"] = metric{spans.medianUS("resilience", false), "us"}
	m["pool.lease_us"] = metric{spans.medianUS("pool.get+pool.put", false), "us"}
	m["pool.reset_us"] = metric{spans.medianUS("pool.reset", true), "us"}
	m["kernel.seed_us"] = metric{spans.medianUS("kernel.seed", true), "us"}
	m["kernel.run_us"] = metric{spans.medianUS("kernel.run", true), "us"}
	m["supervise.self_us"] = metric{spans.medianUS("supervise.run", false), "us"}
	m["fault.classify_us"] = metric{spans.medianUS("fault.classify", true), "us"}
	nsPA, nsNoPA := nsPerInstr(traced.spans, sample, results)
	m["cpu.ns_per_instr.pa"] = metric{nsPA, "ns"}
	m["cpu.ns_per_instr.nopa"] = metric{nsNoPA, "ns"}

	m["gc.alloc_kb_per_req"] = metric{gc.allocBytes / 1024 / float64(n), "KiB"}
	m["gc.cpu_share"] = metric{gc.gcCPU / gc.totalCPU, "ratio"}
	m["gc.cycles_per_1k_req"] = metric{gc.cycles * 1000 / float64(n), "count"}

	iso, err := isolatedTimings(rep, sample, results, isContrast)
	if err != nil {
		return nil, err
	}
	for k, v := range iso {
		m[k] = v
	}
	fromWindow(m, win)
	m["serve.http_us"] = metric{httpUS(win, spans), "us"}
	m["qarma.us_per_req"] = metric{m["qarma.encrypt_ns"].Value * win.perReq("pacstack_pa_memo_misses_total") / 1000, "us"}
	return &layerResult{metrics: m, tally: t}, nil
}

// writeSpans writes the traced pass's spans, one JSON object a line,
// to .bench_build/traces/<workload>-seed<N>.jsonl.
func writeSpans(e *env, name string, spans []span) error {
	if err := os.MkdirAll(e.traces, 0o755); err != nil {
		return err
	}
	path := filepath.Join(e.traces, fmt.Sprintf("%s-seed%d.jsonl", name, e.seed))
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	for _, s := range spans {
		if err := enc.Encode(struct {
			Name    string `json:"name"`
			StartNS int64  `json:"start_ns"`
			EndNS   int64  `json:"end_ns"`
			Parent  int    `json:"parent"`
			Request int    `json:"request"`
		}{s.name, int64(s.start), int64(s.end), s.parent, s.req}); err != nil {
			return err
		}
	}
	if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
		return err
	}
	fmt.Printf("%d spans written to %s\n", len(spans), path)
	return nil
}

// httpUS is the HTTP surface's share of a request: the median, over
// requests both the determinism window and the traced replica served,
// of the client-observed latency minus the replica's request time.
func httpUS(win *window, st *spanTotals) float64 {
	var xs []float64
	for _, s := range win.samples {
		if d, ok := st.total["serve.request"][s.req.Index]; ok {
			xs = append(xs, us(s.lat-d))
		}
	}
	return median(xs)
}

// fromWindow fills the per-layer metrics read from the daemon's
// counters over the determinism window.
func fromWindow(m map[string]metric, win *window) {
	auth := win.perReq("pacstack_pa_auth_ok_total") + win.perReq("pacstack_pa_auth_fail_total")
	hits, misses := win.delta["pacstack_pa_memo_hits_total"], win.delta["pacstack_pa_memo_misses_total"]
	m["pa.pac_per_req"] = metric{win.perReq("pacstack_pa_pac_issued_total"), "count"}
	m["pa.auth_per_req"] = metric{auth, "count"}
	m["pa.auth_fail_per_req"] = metric{win.perReq("pacstack_pa_auth_fail_total"), "count"}
	m["pa.memo_hit_ratio"] = metric{hits / (hits + misses), "ratio"}
	m["pool.restores_per_req"] = metric{win.perReq("pacstack_pool_restores_total"), "count"}
	m["pool.key_violations"] = metric{win.delta["pacstack_pool_key_violations_total"], "count"}
	m["kernel.instrs_per_req"] = metric{win.perReq("pacstack_kernel_instrs_total"), "count"}
	m["snap.commits_per_req"] = metric{win.perReq("pacstack_supervise_commits_total"), "count"}
	m["supervise.attempts_per_req"] = metric{1 + win.perReq("pacstack_supervise_restarts_total"), "count"}
	m["fault.detected_per_req"] = metric{win.delta[`pacstack_serve_outcomes_total{outcome="detected"}`] / float64(len(win.samples)), "count"}
	m["telemetry.events_per_req"] = metric{float64(win.events) / float64(len(win.samples)), "count"}
	m["telemetry.scrape_ms"] = metric{win.scrapeMS, "ms"}
}

// spanTotals holds, per request, the summed duration and self time of
// each span name.
type spanTotals struct {
	total map[string]map[int]time.Duration
	self  map[string]map[int]time.Duration
	reqs  []int
}

// spanStats folds spans into per-request totals, keeping requests for
// which keep reports true. A span's self time is its duration minus
// the part its children cover.
func spanStats(spans []span, keep func(req int) bool) *spanTotals {
	st := &spanTotals{total: map[string]map[int]time.Duration{}, self: map[string]map[int]time.Duration{}}
	childTime := make([]time.Duration, len(spans))
	for _, s := range spans {
		if s.parent >= 0 {
			childTime[s.parent] += s.end - s.start
		}
	}
	seen := map[int]bool{}
	for i, s := range spans {
		if !keep(s.req) {
			continue
		}
		if !seen[s.req] {
			seen[s.req] = true
			st.reqs = append(st.reqs, s.req)
		}
		for _, k := range []string{s.name, layerOf(s.name)} {
			if st.total[k] == nil {
				st.total[k], st.self[k] = map[int]time.Duration{}, map[int]time.Duration{}
			}
			st.total[k][s.req] += s.end - s.start
			st.self[k][s.req] += s.end - s.start - childTime[i]
		}
	}
	return st
}

func layerOf(name string) string {
	if i := strings.IndexByte(name, '.'); i > 0 {
		return name[:i]
	}
	return name
}

// medianUS is the median over requests of the summed total (or self)
// time of the named spans ("a+b" adds several names; a bare layer name
// covers all of its spans), in microseconds. A request without such a
// span contributes zero.
func (st *spanTotals) medianUS(names string, total bool) float64 {
	src := st.self
	if total {
		src = st.total
	}
	var xs []float64
	for _, r := range st.reqs {
		var d time.Duration
		for _, n := range strings.Split(names, "+") {
			d += src[n][r]
		}
		xs = append(xs, float64(d)/float64(time.Microsecond))
	}
	return median(xs)
}

// table renders the median self time per request of every layer.
func (st *spanTotals) table() []string {
	var names []string
	for n := range st.self {
		if !strings.Contains(n, ".") {
			names = append(names, n)
		}
	}
	sort.Strings(names)
	out := []string{fmt.Sprintf("layer self time per request (median over %d traced requests):", len(st.reqs))}
	for _, n := range names {
		out = append(out, fmt.Sprintf("  %-11s %9.2f us", n, st.medianUS(n, false)))
	}
	return out
}

// nsPerInstr divides kernel.run time by instructions retired, split
// into the PA and non-PA scheme groups.
func nsPerInstr(spans []span, sample []request, results []*serve.Result) (paNS, noPANS float64) {
	run := map[int]time.Duration{}
	for _, s := range spans {
		if s.name == "kernel.run" {
			run[s.req] += s.end - s.start
		}
	}
	var t [2]time.Duration
	var n [2]uint64
	for i, req := range sample {
		if results[i] == nil {
			continue
		}
		g := 1
		if paSchemes[req.Scheme] {
			g = 0
		}
		t[g] += run[req.Index]
		n[g] += results[i].Instrs
	}
	return float64(t[0]) / float64(n[0]), float64(t[1]) / float64(n[1])
}

// gcReading is a runtime/metrics reading.
type gcReading struct{ allocBytes, cycles, gcCPU, totalCPU float64 }

func readGC() gcReading {
	s := []metrics.Sample{
		{Name: "/gc/heap/allocs:bytes"},
		{Name: "/gc/cycles/total:gc-cycles"},
		{Name: "/cpu/classes/gc/total:cpu-seconds"},
		{Name: "/cpu/classes/total:cpu-seconds"},
	}
	metrics.Read(s)
	v := func(i int) float64 {
		switch s[i].Value.Kind() {
		case metrics.KindUint64:
			return float64(s[i].Value.Uint64())
		case metrics.KindFloat64:
			return s[i].Value.Float64()
		}
		return 0
	}
	return gcReading{v(0), v(1), v(2), v(3)}
}

func (a gcReading) minus(b gcReading) gcReading {
	return gcReading{a.allocBytes - b.allocBytes, a.cycles - b.cycles, a.gcCPU - b.gcCPU, a.totalCPU - b.totalCPU}
}

// sink keeps timed results alive so the compiler cannot drop the
// calls that produce them.
var sink uint64

// isolatedTimings times single layers on the sample's own inputs:
// boot-image restore, key reseeding, cold boot, kernel runs with and
// without telemetry, the JSON wire codec, QARMA encryption under the
// requests' keys, compilation and golden runs.
func isolatedTimings(rep *replica, sample []request, results []*serve.Result, isContrast func(request) bool) (map[string]metric, error) {
	var restore, reseed, boot, codec, enc []float64
	images := map[pair]bool{}
	var compileMS, goldenMS []float64
	cfg := pa.DefaultConfig()
	used := 0
	for i, req := range sample {
		if isContrast(req) || used >= isolated {
			continue
		}
		used++
		p := pair{req.Workload, req.Scheme}
		pl := rep.pools[p]
		eng := rep.engines[req.Workload]
		sc, err := serve.ParseScheme(req.Scheme)
		if err != nil {
			return nil, err
		}
		img, err := eng.Image(sc)
		if err != nil {
			return nil, err
		}
		kseed := kernelSeed(req)

		m := pl.Get()
		if m == nil {
			return nil, fmt.Errorf("pool for %s/%s refused a lease", p.Workload, p.Scheme)
		}
		t0 := time.Now()
		err = pl.Image().Restore(m.Proc)
		restore = append(restore, us(time.Since(t0)))
		if err != nil {
			return nil, err
		}
		m.K.Seed(kseed)
		t0 = time.Now()
		m.Proc.ReseedKeys()
		reseed = append(reseed, us(time.Since(t0)))

		k := kernel.New(cfg)
		k.Seed(kseed)
		t0 = time.Now()
		proc, err := img.Boot(k)
		boot = append(boot, us(time.Since(t0)))
		if err != nil {
			return nil, err
		}
		sink += proc.Cycles()
		pl.Put(m)

		if res := results[i]; res != nil {
			payload, err := json.Marshal(req.Request)
			if err != nil {
				return nil, err
			}
			t0 = time.Now()
			var decoded serve.Request
			dec := json.NewDecoder(bytes.NewReader(payload))
			dec.DisallowUnknownFields()
			err = dec.Decode(&decoded)
			var buf bytes.Buffer
			je := json.NewEncoder(&buf)
			je.SetIndent("", "  ")
			if err == nil {
				err = je.Encode(res)
			}
			codec = append(codec, us(time.Since(t0)))
			if err != nil {
				return nil, err
			}
		}

		if len(enc) < 64 {
			keys := pa.GenerateKeysFrom(rand.New(rand.NewSource(kseed)))
			c := qarma.New(keys[pa.KeyIA].W0, keys[pa.KeyIA].K0, qarma.Config{Rounds: cfg.Rounds, Sbox: cfg.Sbox})
			const n = 2048
			ptr := uint64(0x10040) + uint64(i)<<4
			t0 = time.Now()
			for j := uint64(0); j < n; j++ {
				sink += c.Encrypt(ptr+j<<3, ptr^j)
			}
			enc = append(enc, float64(time.Since(t0))/n)
		}

		if !images[p] && len(images) < 40 {
			images[p] = true
			prog := eng.Prog
			t0 = time.Now()
			if _, err := compile.Compile(prog, sc, compile.DefaultLayout()); err != nil {
				return nil, err
			}
			compileMS = append(compileMS, ms(time.Since(t0)))
			fresh := fault.NewEngine(prog)
			if _, err := fresh.Image(sc); err != nil {
				return nil, err
			}
			t0 = time.Now()
			if _, _, _, err := fresh.Golden(sc); err != nil {
				return nil, err
			}
			goldenMS = append(goldenMS, ms(time.Since(t0)))
		}
	}
	overhead, err := telemetryOverhead(rep, sample, isContrast)
	if err != nil {
		return nil, err
	}
	return map[string]metric{
		"snap.restore_us":          {median(restore), "us"},
		"kernel.reseed_us":         {median(reseed), "us"},
		"compile.boot_us":          {median(boot), "us"},
		"compile.compile_ms":       {median(compileMS), "ms"},
		"fault.golden_ms":          {median(goldenMS), "ms"},
		"serve.codec_us":           {median(codec), "us"},
		"qarma.encrypt_ns":         {median(enc), "ns"},
		"telemetry.overhead_share": {overhead, "ratio"},
	}, nil
}

// kernelSeed is the seed the server gives a request's kernel: the
// first draw of the request's rng.
func kernelSeed(req request) int64 {
	return rand.New(rand.NewSource(mix(daemonSeed, req.Seed))).Int63()
}

// telemetryOverhead is kernel.Process.Run's extra time with the
// scheme's kernel.Telemetry bundle attached over without one: every
// sample request runs twice each way on its restored machine, in an
// order that alternates from run to run.
func telemetryOverhead(rep *replica, sample []request, isContrast func(request) bool) (float64, error) {
	var with, without time.Duration
	for i, req := range sample {
		if isContrast(req) {
			continue
		}
		sc, err := serve.ParseScheme(req.Scheme)
		if err != nil {
			return 0, err
		}
		_, _, goldenInstrs, err := rep.engines[req.Workload].Golden(sc)
		if err != nil {
			return 0, err
		}
		pl := rep.pools[pair{req.Workload, req.Scheme}]
		m := pl.Get()
		if m == nil {
			return 0, fmt.Errorf("pool for %s/%s refused a lease", req.Workload, req.Scheme)
		}
		for j := 0; j < 4; j++ {
			on := (i+j)%2 == 0
			m.K.Seed(kernelSeed(req))
			if on {
				m.K.SetTelemetry(rep.ktels[req.Scheme])
			} else {
				m.K.SetTelemetry(nil)
			}
			p, err := pl.Reset(m)
			if err != nil {
				continue // the warm-pool probe refused this lease
			}
			t0 := time.Now()
			err = p.Run(4*goldenInstrs + 10_000)
			d := time.Since(t0)
			if err != nil {
				return 0, fmt.Errorf("telemetry timing of %s/%s: %w", req.Workload, req.Scheme, err)
			}
			if on {
				with += d
			} else {
				without += d
			}
		}
		pl.Put(m)
	}
	return float64(with)/float64(without) - 1, nil
}

func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }
func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
