package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"strconv"
	"syscall"
	"time"
)

// Soak-chaos sizing. A round is one open-loop burst soak run followed
// by one closed-loop cluster run with a mid-run backend kill. A run
// cycles through soakJobs distinct seeded jobs twice: averaging over
// several traffic draws steadies the per-request figures, and each
// job's second round must reproduce its first byte for byte.
const (
	soakJobs   = 3
	soakRounds = 2 * soakJobs
	// soakHorizonPerSecond is the soak's virtual horizon per second of
	// --seconds, sized so a round takes about --seconds/soakRounds on a
	// 2-core host (about 20 requests per million virtual cycles).
	soakHorizonPerSecond = 55_000_000
	// clusterRequestsPerSecond is the cluster run's requests per client
	// per second of --seconds (8 clients).
	clusterRequestsPerSecond = 110
	clusterClients           = 8
	// clusterCyclesPerRequest is the cluster run's virtual cycles per
	// request per client, measured; the kill lands at half the run.
	clusterCyclesPerRequest = 6_500
	// soakSetupsPerRound is how many minimal jobs run before each
	// round; set-up time is the median of all of them.
	soakSetupsPerRound = 3
)

// soakJob is one round's pair of CLI invocations.
type soakJob struct {
	seed                  int64
	soakArgs, clusterArgs []string
}

func newSoakJob(seed int64, seconds int) soakJob {
	horizon := uint64(seconds) * soakHorizonPerSecond / soakRounds
	perClient := seconds * clusterRequestsPerSecond / soakRounds
	if perClient < 1 {
		perClient = 1
	}
	killAt := uint64(perClient) * clusterCyclesPerRequest / 2
	s := strconv.FormatInt(seed, 10)
	return soakJob{
		seed: seed,
		soakArgs: []string{
			"-traffic", "burst", "-adaptive", "-traffic-horizon", strconv.FormatUint(horizon, 10),
			"-chaos-rate", "0.1", "-heal", "1", "-checkpoint-every", "25000", "-retries", "8",
			"-seed", s, "-par", strconv.Itoa(conns), "-json", "-check",
		},
		clusterArgs: []string{
			"-clients", strconv.Itoa(clusterClients), "-requests", strconv.Itoa(perClient),
			"-chaos-rate", "0.1", "-heal", "1", "-kill-at", strconv.FormatUint(killAt, 10),
			"-seed", s, "-par", strconv.Itoa(conns), "-json", "-check",
		},
	}
}

// cliRun is one finished CLI invocation.
type cliRun struct {
	wall    time.Duration
	cpu     time.Duration // user + system
	maxRSS  float64       // bytes
	stdout  []byte
	dump    []byte // -telemetry-dump contents
	profile string // -cpuprofile file, when asked for
}

// runCLI runs one of the built CLIs in the work directory with a
// telemetry dump (and optionally a CPU profile) and returns its
// measurements. A non-zero exit — a failed -check — is an error.
func runCLI(e *env, name string, args []string, profile bool) (*cliRun, error) {
	dump := filepath.Join(e.work, name+"-telemetry.json")
	args = append(append([]string(nil), args...), "-telemetry-dump", dump)
	prof := filepath.Join(e.work, name+".pprof")
	if profile {
		args = append(args, "-cpuprofile", prof)
	}
	cmd := command(e, name, args...)
	var stdout, stderr bytes.Buffer
	cmd.Stdout, cmd.Stderr = &stdout, &stderr
	start := time.Now()
	err := cmd.Run()
	wall := time.Since(start)
	if err != nil {
		return nil, fmt.Errorf("%s %v: %w: %s", name, args, err, stderr.String())
	}
	r := &cliRun{wall: wall, stdout: stdout.Bytes()}
	st := cmd.ProcessState
	r.cpu = st.UserTime() + st.SystemTime()
	if ru, ok := st.SysUsage().(*syscall.Rusage); ok {
		r.maxRSS = float64(ru.Maxrss) * 1024 // kilobytes on Linux
	}
	if r.dump, err = os.ReadFile(dump); err != nil {
		return nil, err
	}
	if profile {
		r.profile = prof
	}
	return r, nil
}

// soakReport is the part of a pacstack-soak or pacstack-cluster -json
// report the benchmark reads.
type soakReport struct {
	Issued        int  `json:"issued"`
	OK            int  `json:"ok"`
	Detected      int  `json:"detected"`
	Silent        int  `json:"silent"`
	GaveUp        int  `json:"gave_up"`
	Abandoned     int  `json:"abandoned"`
	InFlightAtEnd int  `json:"in_flight_at_end"`
	KilledBackend *int `json:"killed_backend"`
}

// telemetryDump is the part of a -telemetry-dump the benchmark reads.
type telemetryDump struct {
	Metrics struct {
		Families []struct {
			Name   string `json:"name"`
			Series []struct {
				Value float64 `json:"value"`
				Sum   float64 `json:"sum"`
				Count float64 `json:"count"`
			} `json:"series"`
		} `json:"families"`
	} `json:"metrics"`
}

// counters sums each dump family's series values; histograms
// contribute name_sum and name_count.
func (t *telemetryDump) counters() map[string]float64 {
	out := map[string]float64{}
	for _, f := range t.Metrics.Families {
		for _, s := range f.Series {
			out[f.Name] += s.Value
			out[f.Name+"_sum"] += s.Sum
			out[f.Name+"_count"] += s.Count
		}
	}
	return out
}

// round is one finished soak-chaos round.
type round struct {
	seed                int64 // the job's seed
	soak, cluster       *cliRun
	soakRep, clusterRep soakReport
	soakTel, clusterTel map[string]float64
}

func (r *round) wall() time.Duration { return r.soak.wall + r.cluster.wall }
func (r *round) issued() int         { return r.soakRep.Issued + r.clusterRep.Issued }

// failed counts gave-up requests: requests that ended without an
// answer. The cluster's gave_up already includes its abandoned
// orphans. Detected faults are the scheme working, not failures.
func (r *round) failed() int {
	return r.soakRep.GaveUp + r.clusterRep.GaveUp
}

// digest identifies the round's seed-determined outputs: both -json
// reports and both telemetry dumps.
func (r *round) digest() map[string]any {
	h := func(b []byte) string {
		s := sha256.Sum256(b)
		return hex.EncodeToString(s[:8])
	}
	return map[string]any{
		"soak_report":       h(r.soak.stdout),
		"soak_telemetry":    h(r.soak.dump),
		"cluster_report":    h(r.cluster.stdout),
		"cluster_telemetry": h(r.cluster.dump),
		"issued":            r.issued(),
		"failed":            r.failed(),
	}
}

func runRound(e *env, job soakJob, profile bool) (*round, error) {
	r := &round{seed: job.seed}
	var err error
	if r.soak, err = runCLI(e, "pacstack-soak", job.soakArgs, profile); err != nil {
		return nil, err
	}
	if r.cluster, err = runCLI(e, "pacstack-cluster", job.clusterArgs, false); err != nil {
		return nil, err
	}
	if err := json.Unmarshal(r.soak.stdout, &r.soakRep); err != nil {
		return nil, fmt.Errorf("decoding pacstack-soak report: %w", err)
	}
	if err := json.Unmarshal(r.cluster.stdout, &r.clusterRep); err != nil {
		return nil, fmt.Errorf("decoding pacstack-cluster report: %w", err)
	}
	var st, ct telemetryDump
	if err := json.Unmarshal(r.soak.dump, &st); err != nil {
		return nil, fmt.Errorf("decoding pacstack-soak telemetry: %w", err)
	}
	if err := json.Unmarshal(r.cluster.dump, &ct); err != nil {
		return nil, fmt.Errorf("decoding pacstack-cluster telemetry: %w", err)
	}
	r.soakTel, r.clusterTel = st.counters(), ct.counters()
	return r, nil
}

// check reports what is wrong with a round's outputs beyond the CLIs'
// own -check: silent corruptions, lost requests, a kill that never
// happened.
func (r *round) check() []string {
	var bad []string
	for name, rep := range map[string]soakReport{"soak": r.soakRep, "cluster": r.clusterRep} {
		if rep.Silent != 0 {
			bad = append(bad, fmt.Sprintf("%s: %d silent corruptions", name, rep.Silent))
		}
		if rep.InFlightAtEnd != 0 || rep.OK+rep.Detected+rep.Silent+rep.GaveUp != rep.Issued {
			bad = append(bad, fmt.Sprintf("%s: requests without a terminal state", name))
		}
	}
	if k := r.clusterRep.KilledBackend; k == nil || *k < 0 {
		bad = append(bad, "cluster: the mid-run backend kill did not happen")
	}
	return bad
}

// simCycles sums victim cycles and executed requests over both dumps.
func (r *round) simCycles() (sum, n float64) {
	for _, t := range []map[string]float64{r.soakTel, r.clusterTel} {
		sum += t["pacstack_serve_request_cycles_sum"]
		n += t["pacstack_serve_request_cycles_count"]
	}
	return sum, n
}

// jobSeed is the seed of the run's j-th distinct soak job.
func jobSeed(seed int64, j int) int64 {
	if j == 0 {
		return seed
	}
	return int64(splitmix(uint64(seed), uint64(j)) >> 1)
}

// runSoak runs the soak-chaos workload: soakRounds rounds cycling
// through soakJobs distinct seeded jobs, so each job runs twice.
func runSoak(e *env) (*result, error) {
	var jobs []soakJob
	for j := 0; j < soakJobs; j++ {
		jobs = append(jobs, newSoakJob(jobSeed(e.seed, j), e.seconds))
	}
	res := &result{Correct: true, Metrics: map[string]metric{}}

	if e.trace {
		r, err := runRound(e, jobs[0], true)
		if err != nil {
			return nil, err
		}
		printRound(0, r)
		res.Correct = soakCorrect(e, []*round{r})
		res.Attempted, res.Failed = int64(r.issued()), int64(r.failed())
		// The served layers are measured on the soak's own request mix,
		// through the daemon and the in-process replica.
		w := soakLayerWorkload()
		s, err := openSession(e, w)
		if err != nil {
			return nil, err
		}
		defer s.d.stop()
		if err := s.d.stop(); err != nil {
			return nil, err
		}
		lr, err := measureLayers(e, w, s.refs, s.win)
		if err != nil {
			return nil, err
		}
		res.Metrics = lr.metrics
		if err := addSoakLayers(e, res.Metrics, r, true); err != nil {
			return nil, err
		}
		for _, t := range []*tally{s.setup, s.win.tally, lr.tally} {
			res.Attempted += t.attempted
			res.Failed += t.failures()
			if len(t.incorrect) > 0 {
				res.Correct = false
			}
		}
		res.Correct = res.Correct && s.deterministic
		return res, nil
	}

	var setups []float64
	var rounds []*round
	for i := 0; i < soakRounds; i++ {
		// Set-up is sampled before every round rather than all at once,
		// so that its median spans the run, as the other metrics do,
		// instead of one moment of the host.
		s, err := soakSetupTimes(e, soakSetupsPerRound)
		if err != nil {
			return nil, err
		}
		setups = append(setups, s...)
		r, err := runRound(e, jobs[i%soakJobs], false)
		if err != nil {
			return nil, err
		}
		printRound(i, r)
		rounds = append(rounds, r)
	}
	res.Correct = soakCorrect(e, rounds)

	var wall, cpu time.Duration
	var issued int
	var cyc, executed float64
	var roundMS, peaks []float64
	for _, r := range rounds {
		wall += r.wall()
		cpu += r.soak.cpu + r.cluster.cpu
		issued += r.issued()
		res.Attempted += int64(r.issued())
		res.Failed += int64(r.failed())
		peaks = append(peaks, max(r.soak.maxRSS, r.cluster.maxRSS))
		s, n := r.simCycles()
		cyc, executed = cyc+s, executed+n
		roundMS = append(roundMS, float64(r.wall())/float64(time.Millisecond))
	}
	res.Metrics["throughput_rps"] = metric{float64(issued) / wall.Seconds(), "req/s"}
	res.Metrics["latency_p50_ms"] = metric{percentile(roundMS, 0.5), "ms"}
	res.Metrics["latency_p90_ms"] = metric{percentile(roundMS, 0.9), "ms"}
	res.Metrics["cpu_ms_per_req"] = metric{float64(cpu) / float64(time.Millisecond) / float64(issued), "ms"}
	// The median round's peak: one round's late garbage collection can
	// raise its own peak by a third.
	res.Metrics["rss_mb"] = metric{median(peaks) / (1 << 20), "MiB"}
	res.Metrics["setup_s"] = metric{median(setups), "s"}
	res.Metrics["sim_cycles_per_req"] = metric{cyc / executed, "cycles"}
	return res, nil
}

// soakCorrect checks every round's outputs, that the two rounds of each
// job produced identical reports and dumps, and that each job's equal
// what earlier runs of the same job produced.
func soakCorrect(e *env, rounds []*round) bool {
	ok := true
	for i, r := range rounds {
		for _, b := range r.check() {
			fmt.Printf("round %d: INCORRECT %s\n", i, b)
			ok = false
		}
		if i < soakJobs {
			key := fmt.Sprintf("soak-chaos-job%d-seconds%d", r.seed, e.seconds)
			same, err := repeats(e, key, r.digest())
			if err != nil {
				fmt.Println("determinism record:", err)
				return false
			}
			ok = same && ok
			continue
		}
		if d, twin := r.digest(), rounds[i-soakJobs].digest(); fmt.Sprint(d) != fmt.Sprint(twin) {
			fmt.Printf("round %d: digest %v differs from round %d's %v\n", i, d, i-soakJobs, twin)
			ok = false
		}
	}
	return ok
}

func printRound(i int, r *round) {
	fmt.Printf("round %d: soak %.2fs (issued %d, ok %d, detected %d, gave up %d), cluster %.2fs (issued %d, ok %d, detected %d, gave up %d, abandoned %d); digest %v\n",
		i, r.soak.wall.Seconds(), r.soakRep.Issued, r.soakRep.OK, r.soakRep.Detected, r.soakRep.GaveUp,
		r.cluster.wall.Seconds(), r.clusterRep.Issued, r.clusterRep.OK, r.clusterRep.Detected, r.clusterRep.GaveUp,
		r.clusterRep.Abandoned, r.digest())
}

// soakSetupTimes measures set-up: the wall time of the two CLIs each
// bringing one chain request up and answering it — process start,
// compilation, the golden run and the first victim — so that the
// figure is the fixed cost every soak job pays. It runs n times.
func soakSetupTimes(e *env, n int) ([]float64, error) {
	s := strconv.FormatInt(e.seed, 10)
	args := []string{"-clients", "1", "-requests", "1", "-chaos-rate", "0", "-seed", s,
		"-par", strconv.Itoa(conns), "-json", "-check"}
	soakArgs, clusterArgs := args, args
	var out []float64
	for i := 0; i < n; i++ {
		a, err := runCLI(e, "pacstack-soak", soakArgs, false)
		if err != nil {
			return nil, err
		}
		b, err := runCLI(e, "pacstack-cluster", clusterArgs, false)
		if err != nil {
			return nil, err
		}
		out = append(out, (a.wall + b.wall).Seconds())
	}
	return out, nil
}

// addSoakLayers adds the soak DES metrics of a profiled round: wall
// time per CLI run and the profile's self time by module. With own
// set, the round is the workload's, and the request counts its dumps
// hold replace the daemon's.
func addSoakLayers(e *env, m map[string]metric, r *round, own bool) error {
	m["soak.serve_s"] = metric{r.soak.wall.Seconds(), "s"}
	m["soak.cluster_s"] = metric{r.cluster.wall.Seconds(), "s"}
	self, err := selfByFunction(e, r.soak.profile)
	if err != nil {
		return fmt.Errorf("pacstack-soak profile: %w", err)
	}
	shares := moduleShares(self)
	for _, mod := range soakModules {
		m["soak.share."+mod] = metric{shares[mod], "ratio"}
	}
	if !own {
		return nil
	}
	var reqs, commits, restarts, detected float64
	for _, t := range []map[string]float64{r.soakTel, r.clusterTel} {
		reqs += t["pacstack_serve_requests_total"]
		commits += t["pacstack_supervise_commits_total"]
		restarts += t["pacstack_supervise_restarts_total"]
	}
	detected = float64(r.soakRep.Detected + r.clusterRep.Detected)
	m["snap.commits_per_req"] = metric{commits / reqs, "count"}
	m["supervise.attempts_per_req"] = metric{1 + restarts/reqs, "count"}
	m["fault.detected_per_req"] = metric{detected / float64(r.issued()), "count"}
	return nil
}
