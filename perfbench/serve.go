package main

import (
	"fmt"
	"math"
	"sort"
	"strings"
	"time"
)

// sliceLen is the length of one throughput slice of the timed phase;
// throughput and CPU per request are medians over slices, so a short
// stall on a shared host moves one slice, not the result.
const sliceLen = time.Second

// runServe runs one daemon workload: set-up, the determinism window,
// then either the timed phase (--trace 0) or the per-layer
// measurements (--trace 1).
func runServe(e *env, w serveWorkload) (*result, error) {
	s, err := openSession(e, w)
	if err != nil {
		return nil, err
	}
	defer s.d.stop()
	res := &result{Metrics: map[string]metric{}}
	tallies := []*tally{s.setup, s.win.tally}
	if e.trace {
		if err := s.d.stop(); err != nil {
			return nil, err
		}
		lr, err := measureLayers(e, w, s.refs, s.win)
		if err != nil {
			return nil, err
		}
		res.Metrics = lr.metrics
		tallies = append(tallies, lr.tally)
		// The soak DES layers are measured on every workload so that
		// every run reports the same metric set; on the serve
		// workloads a short standard round stands in.
		r, err := runRound(e, newSoakJob(e.seed, 2), true)
		if err != nil {
			return nil, err
		}
		printRound(0, r)
		if bad := r.check(); len(bad) > 0 {
			return nil, fmt.Errorf("soak round: %v", bad)
		}
		if err := addSoakLayers(e, res.Metrics, r, false); err != nil {
			return nil, err
		}
	} else {
		timed, err := runTimed(e, s.d, w, s.refs, res.Metrics)
		if err != nil {
			return nil, err
		}
		timed.print("timed phase")
		tallies = append(tallies, timed)
		res.Metrics["setup_s"] = metric{median(s.setupTimes), "s"}
		res.Metrics["sim_cycles_per_req"] = metric{s.win.cyclesPerReq(), "cycles"}
		if err := s.d.stop(); err != nil {
			return nil, err
		}
		// The timed phase is a fixed count of the seed's requests, so
		// its failures repeat exactly too.
		key := fmt.Sprintf("%s-seed%d-timed%d", w.name, e.seed, e.seconds)
		same, err := repeats(e, key, map[string]any{
			"requests": timed.attempted, "failed_by_kind": timed.failed, "incorrect": len(timed.incorrect),
		})
		if err != nil {
			return nil, err
		}
		s.deterministic = s.deterministic && same
	}
	res.Correct = s.deterministic
	for _, t := range tallies {
		res.Attempted += t.attempted
		res.Failed += t.failures()
		if len(t.incorrect) > 0 {
			res.Correct = false
		}
	}
	return res, nil
}

// session is a daemon after set-up and the determinism window.
type session struct {
	refs          map[pair]ref
	d             *daemon
	setupTimes    []float64
	setup         *tally
	win           *window
	deterministic bool
}

// openSession computes the reference results, sets a daemon up
// w.setups times (once when tracing), keeping the last one, and runs
// the determinism window on it.
func openSession(e *env, w serveWorkload) (*session, error) {
	t0 := time.Now()
	refs, err := references(w.pairs, e.seed)
	if err != nil {
		return nil, err
	}
	fmt.Printf("%s: reference interpreter ran %d pairs in %.2fs\n", w.name, len(w.pairs), time.Since(t0).Seconds())
	s := &session{refs: refs, setup: newTally()}
	setups := w.setups
	if e.trace {
		setups = 1
	}
	for k := 0; k < setups; k++ {
		if s.d != nil {
			if err := s.d.stop(); err != nil {
				return nil, err
			}
		}
		var took float64
		s.d, took, err = setUp(e, w, k, refs, s.setup)
		if err != nil {
			return nil, err
		}
		s.setupTimes = append(s.setupTimes, took)
	}
	s.setup.print("set-up")
	fmt.Printf("set-up times %v s\n", s.setupTimes)
	if s.win, err = runWindow(s.d, w, e.seed, refs); err != nil {
		s.d.stop()
		return nil, err
	}
	s.win.tally.print("determinism window")
	key := fmt.Sprintf("%s-seed%d", w.name, e.seed)
	if s.deterministic, err = repeats(e, key, s.win.record()); err != nil {
		s.d.stop()
		return nil, err
	}
	return s, nil
}

// setUp execs a daemon and sends every pair of the workload once,
// returning the daemon and the seconds from exec until the last pair
// answered correctly.
func setUp(e *env, w serveWorkload, k int, refs map[pair]ref, t *tally) (*daemon, float64, error) {
	start := time.Now()
	d, err := startDaemon(e)
	if err != nil {
		return nil, 0, err
	}
	// A pair that fails (the warm-pool probe can refuse any lease) is
	// sent again with the next set-up seed until it answers correctly.
	pending := make([]int, len(w.pairs))
	for j := range pending {
		pending[j] = j
	}
	for try := 0; len(pending) > 0; try++ {
		if try == setupTries {
			d.stop()
			return nil, 0, fmt.Errorf("set-up: %d pair(s) without a correct answer after %d tries", len(pending), setupTries)
		}
		round := k*setupTries + try
		samples := d.drive(0, func(i int) request { return w.setupAt(e.seed, round, pending[i]) },
			func(i int, _ time.Duration) bool { return i >= len(pending) }, refs)
		pending = pending[:0]
		for _, s := range samples {
			t.add(s.req.Request, s.c)
			if s.c.verdict != verdictOK {
				pending = append(pending, w.setupPair(round, s.req.Index))
			}
		}
	}
	return d, time.Since(start).Seconds(), nil
}

// setupTries bounds how often set-up resends a pair.
const setupTries = 4

// window is the determinism window: the stream's first requests and
// the daemon counters they moved.
type window struct {
	samples []sample
	tally   *tally
	delta   map[string]float64 // /metrics deltas
	events  uint64             // security events recorded
	// scrapeMS is the median time of a GET /metrics after the window.
	scrapeMS float64
}

func runWindow(d *daemon, w serveWorkload, seed int64, refs map[pair]ref) (*window, error) {
	before, err := d.scrape()
	if err != nil {
		return nil, err
	}
	seq0, err := d.eventSeq()
	if err != nil {
		return nil, err
	}
	samples := d.drive(0, func(i int) request { return w.at(seed, i) },
		func(i int, _ time.Duration) bool { return i >= w.window }, refs)
	if d.dead() {
		return nil, d.exitErr()
	}
	after, err := d.scrape()
	if err != nil {
		return nil, err
	}
	seq1, err := d.eventSeq()
	if err != nil {
		return nil, err
	}
	win := &window{samples: samples, tally: newTally(), delta: map[string]float64{}, events: seq1 - seq0}
	for _, s := range samples {
		win.tally.add(s.req.Request, s.c)
	}
	for k, v := range after {
		win.delta[k] = v - before[k]
	}
	var scrapes []float64
	for i := 0; i < 11; i++ {
		t0 := time.Now()
		if _, err := d.get("/metrics"); err != nil {
			return nil, err
		}
		scrapes = append(scrapes, ms(time.Since(t0)))
	}
	win.scrapeMS = median(scrapes)
	return win, nil
}

// cyclesPerReq is the mean simulated victim cycles per correct
// response of the window.
func (win *window) cyclesPerReq() float64 {
	var sum, n float64
	for _, s := range win.samples {
		if s.c.verdict == verdictOK {
			sum += float64(s.c.cycles)
			n++
		}
	}
	return sum / n
}

// perReq divides a /metrics delta by the window's request count.
func (win *window) perReq(name string) float64 {
	return win.delta[name] / float64(len(win.samples))
}

// record is the window's seed-determined values: a pure function of
// the seed, compared across runs.
func (win *window) record() map[string]any {
	var cycles, instrs uint64
	for _, s := range win.samples {
		cycles += s.c.cycles
		instrs += s.c.instrs
	}
	rec := map[string]any{
		"requests":        len(win.samples),
		"response_cycles": cycles,
		"response_instrs": instrs,
		"failed_by_kind":  win.tally.failed,
		"incorrect":       len(win.tally.incorrect),
		"security_events": win.events,
	}
	for _, name := range []string{
		"pacstack_kernel_instrs_total", "pacstack_pa_pac_issued_total",
		"pacstack_pa_auth_ok_total", "pacstack_pa_auth_fail_total",
		"pacstack_pa_memo_hits_total", "pacstack_pa_memo_misses_total",
		"pacstack_pool_restores_total", "pacstack_pool_key_violations_total",
		"pacstack_supervise_restarts_total", "pacstack_serve_requests_total",
	} {
		rec[name] = win.delta[name]
	}
	return rec
}

// runTimed runs the closed loop over the stream's next
// w.perSecond*e.seconds requests, from the end of the window, and
// fills the end-to-end metrics. The phase is a count, not a time, so
// that two runs of one seed send the same requests.
func runTimed(e *env, d *daemon, w serveWorkload, refs map[pair]ref, out map[string]metric) (*tally, error) {
	before, err := d.scrape()
	if err != nil {
		return nil, err
	}
	pid := d.cmd.Process.Pid
	var cpuMarks []time.Duration
	cpuErr := make(chan error, 1)
	stopSampler := make(chan struct{})
	samplerDone := make(chan struct{})
	start := time.Now()
	mark := func() error {
		c, err := procCPU(pid)
		if err == nil {
			cpuMarks = append(cpuMarks, c)
		}
		return err
	}
	if err := mark(); err != nil {
		return nil, err
	}
	// The sampler reads the daemon's CPU time at every slice boundary.
	go func() {
		defer close(samplerDone)
		for s := 1; ; s++ {
			select {
			case <-time.After(time.Until(start.Add(time.Duration(s) * sliceLen))):
				if err := mark(); err != nil {
					cpuErr <- err
					return
				}
			case <-stopSampler:
				return
			}
		}
	}()
	end := w.window + w.perSecond*e.seconds
	samples := d.drive(w.window, func(i int) request { return w.at(e.seed, i) },
		func(i int, _ time.Duration) bool { return i >= end }, refs)
	close(stopSampler)
	<-samplerDone
	if d.dead() {
		return nil, fmt.Errorf("pacstack-serve died in the timed phase: %v", d.exitErr())
	}
	select {
	case err := <-cpuErr:
		return nil, err
	default:
	}
	rss, err := procPeakRSS(pid)
	if err != nil {
		return nil, err
	}
	after, err := d.scrape()
	if err != nil {
		return nil, err
	}

	// Only slices that ended before the last response count. Latency
	// percentiles, like throughput and CPU per request, are taken per
	// slice and reported as their median over the slices, so that a
	// burst of host noise moves a few slices, not the result.
	nSlices := len(cpuMarks) - 1
	t := newTally()
	okPerSlice := make([]float64, nSlices)
	sliceLats := make([][]float64, nSlices)
	var lats []float64
	for _, s := range samples {
		t.add(s.req.Request, s.c)
		lat := float64(s.lat) / float64(time.Millisecond)
		if s.c.verdict != verdictOK {
			lat = math.Inf(1) // a failed request misses every latency limit
		}
		lats = append(lats, lat)
		if sl := int(s.done / sliceLen); sl < nSlices {
			sliceLats[sl] = append(sliceLats[sl], lat)
			if s.c.verdict == verdictOK {
				okPerSlice[sl]++
			}
		}
	}
	var rps, cpuPerReq, p50s, p90s []float64
	for sl := 0; sl < nSlices; sl++ {
		rps = append(rps, okPerSlice[sl]/sliceLen.Seconds())
		cpu := float64(cpuMarks[sl+1]-cpuMarks[sl]) / float64(time.Millisecond)
		if okPerSlice[sl] > 0 {
			cpuPerReq = append(cpuPerReq, cpu/okPerSlice[sl])
			p50s = append(p50s, percentile(sliceLats[sl], 0.5))
			p90s = append(p90s, percentile(sliceLats[sl], 0.9))
		}
	}
	if len(cpuPerReq) == 0 {
		return nil, fmt.Errorf("timed phase completed no slice")
	}
	fmt.Printf("timed phase slices: req/s %.0f; cpu ms/req %.4f; latency p90 ms %.4f\n", rps, cpuPerReq, p90s)
	// Every panic should be the warm-pool probe refusing a lease
	// (pool.Reset's 16-bit key check), which the daemon also counts as
	// a key violation.
	const kv = "pacstack_pool_key_violations_total"
	fmt.Printf("timed phase: %d panic(s), %.0f warm-pool key violation(s)\n", t.failed["panic"], after[kv]-before[kv])
	p99 := percentile(lats, 0.99)
	fmt.Printf("timed phase: %d responses over %d slices of %v; whole-phase latency p50 %.4f, p90 %.4f, p99 %.4f ms (%d samples, %d beyond p99)\n",
		len(samples), nSlices, sliceLen, percentile(lats, 0.5), percentile(lats, 0.9), p99, len(lats), len(lats)/100)
	out["throughput_rps"] = metric{median(rps), "req/s"}
	out["latency_p50_ms"] = metric{median(p50s), "ms"}
	out["latency_p90_ms"] = metric{median(p90s), "ms"}
	out["cpu_ms_per_req"] = metric{median(cpuPerReq), "ms"}
	out["rss_mb"] = metric{rss / (1 << 20), "MiB"}
	return t, nil
}

// kindSummary renders failure counts by kind in a stable order.
func kindSummary(m map[string]int64) string {
	var parts []string
	for k, v := range m {
		parts = append(parts, fmt.Sprintf("%s=%d", k, v))
	}
	sort.Strings(parts)
	return strings.Join(parts, ",")
}
