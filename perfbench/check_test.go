package main

import (
	"encoding/json"
	"errors"
	"net/http"
	"reflect"
	"testing"

	"pacstack/internal/resilience"
	"pacstack/internal/serve"
)

var chainRef = map[pair]ref{
	{"chain", "pacstack"}: {Output: "<wih>", ExitCode: 17, Instrs: 642, Cycles: 4192},
}

func chainReq() serve.Request {
	return serve.Request{Workload: "chain", Scheme: "pacstack", Seed: 7}
}

func okBody(t *testing.T, mutate func(*serve.Result)) []byte {
	t.Helper()
	r := chainRef[pair{"chain", "pacstack"}]
	res := serve.Result{Workload: "chain", Scheme: "pacstack", Output: r.Output,
		ExitCode: r.ExitCode, Instrs: r.Instrs, Cycles: r.Cycles, Attempts: 1}
	if mutate != nil {
		mutate(&res)
	}
	b, err := json.Marshal(res)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

func errBody(kind string) []byte {
	b, _ := json.Marshal(errorBody{Error: "x", Kind: kind})
	return b
}

func TestClassify(t *testing.T) {
	cases := []struct {
		name    string
		status  int
		body    []byte
		err     error
		verdict verdict
		kind    string
	}{
		{"matching 200", http.StatusOK, okBody(t, nil), nil, verdictOK, ""},
		{"cycles off by one", http.StatusOK, okBody(t, func(r *serve.Result) { r.Cycles++ }), nil, verdictIncorrect, "cycles 4193, reference 4192"},
		{"instrs off", http.StatusOK, okBody(t, func(r *serve.Result) { r.Instrs-- }), nil, verdictIncorrect, "instrs 641, reference 642"},
		{"output differs", http.StatusOK, okBody(t, func(r *serve.Result) { r.Output = "<wh>" }), nil, verdictIncorrect, `output "<wh>", reference "<wih>"`},
		{"exit code differs", http.StatusOK, okBody(t, func(r *serve.Result) { r.ExitCode = 0 }), nil, verdictIncorrect, "exit code 0, reference 17"},
		{"undecodable 200", http.StatusOK, []byte("{"), nil, verdictIncorrect, "undecodable 200"},
		{"silent corruption", http.StatusInternalServerError, errBody("silent_corruption"), nil, verdictIncorrect, "silent_corruption"},
		{"panic", http.StatusInternalServerError, errBody("panic"), nil, verdictFailed, "panic"},
		{"detected corruption", http.StatusBadGateway, errBody("detected_corruption"), nil, verdictFailed, "detected_corruption"},
		{"bare 502", http.StatusBadGateway, []byte("bad gateway"), nil, verdictFailed, "http_502"},
		{"shed", http.StatusTooManyRequests, errBody("shed"), nil, verdictFailed, "shed"},
		{"transport", 0, nil, errors.New("connection reset"), verdictFailed, "transport"},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			got := classify(chainReq(), c.status, c.body, c.err, chainRef)
			if got.verdict != c.verdict || got.kind != c.kind {
				t.Fatalf("classify = (%v, %q), want (%v, %q)", got.verdict, got.kind, c.verdict, c.kind)
			}
		})
	}
}

// TestCheckOutcomeMatchesWire pins that in-process outcomes are
// classified exactly as the daemon's replies to them would be.
func TestCheckOutcomeMatchesWire(t *testing.T) {
	req := request{Request: chainReq()}
	var res serve.Result
	if err := json.Unmarshal(okBody(t, nil), &res); err != nil {
		t.Fatal(err)
	}
	if c := checkOutcome(req, &res, nil, chainRef); c.verdict != verdictOK {
		t.Fatalf("matching result classified %v (%s)", c.verdict, c.kind)
	}
	panicErr := resilience.Protect(func() error { panic("nil process") })
	if c := checkOutcome(req, nil, panicErr, chainRef); c.verdict != verdictFailed || c.kind != "panic" {
		t.Fatalf("panic classified (%v, %q), want failed panic", c.verdict, c.kind)
	}
	silent := &serve.SilentCorruptionError{Output: "x", Want: "<wih>"}
	if c := checkOutcome(req, nil, silent, chainRef); c.verdict != verdictIncorrect {
		t.Fatalf("silent corruption classified %v, want incorrect", c.verdict)
	}
}

func TestTally(t *testing.T) {
	tl := newTally()
	tl.add(chainReq(), checked{verdict: verdictOK})
	tl.add(chainReq(), checked{verdict: verdictFailed, kind: "panic"})
	tl.add(chainReq(), checked{verdict: verdictIncorrect, kind: "cycles 1, reference 2"})
	if tl.attempted != 3 || tl.failures() != 1 || len(tl.incorrect) != 1 {
		t.Fatalf("tally attempted %d failed %d incorrect %d, want 3 1 1", tl.attempted, tl.failures(), len(tl.incorrect))
	}
}

// TestStreamsArePureFunctionsOfTheSeed: the same seed gives the same
// requests, another seed other ones, and no seed is ever 0.
func TestStreamsArePureFunctionsOfTheSeed(t *testing.T) {
	for _, w := range []serveWorkload{chainWorkload(), specWorkload(), soakLayerWorkload()} {
		draw := func(seed int64) []request {
			var out []request
			for i := 0; i < 500; i++ {
				out = append(out, w.at(seed, i))
			}
			for j := range w.pairs {
				out = append(out, w.setupAt(seed, 1, j))
			}
			return out
		}
		a, b, c := draw(42), draw(42), draw(43)
		if !reflect.DeepEqual(a, b) {
			t.Fatalf("%s: the same seed gave different requests", w.name)
		}
		same := 0
		for i := range a {
			if a[i].Seed == 0 {
				t.Fatalf("%s: request %d has seed 0", w.name, i)
			}
			if a[i].Seed == c[i].Seed {
				same++
			}
		}
		if same > 0 {
			t.Fatalf("%s: %d request seeds shared between seeds 42 and 43", w.name, same)
		}
	}
	w := specWorkload()
	for _, r := range []int{0, 3, 17} {
		for _, j := range []int{0, 5, len(w.pairs) - 1} {
			if got := w.setupPair(r, w.setupAt(1, r, j).Index); got != j {
				t.Fatalf("setupPair(%d, setupAt(%d, %d)) = %d", r, r, j, got)
			}
		}
	}
	if newSoakJob(5, 20).soakArgs[4] != newSoakJob(6, 20).soakArgs[4] {
		t.Fatal("soak horizon depends on the seed")
	}
	if jobSeed(5, 1) == jobSeed(6, 1) || jobSeed(5, 0) != 5 {
		t.Fatal("soak job seeds are not a function of the workload seed")
	}
}

// TestSpecCoversEveryPair: round-robin visits every (program, scheme)
// pair once per cycle.
func TestSpecCoversEveryPair(t *testing.T) {
	w := specWorkload()
	seen := map[pair]int{}
	for i := 0; i < len(w.pairs); i++ {
		r := w.at(1, i)
		seen[pair{r.Workload, r.Scheme}]++
	}
	if len(seen) != 21*len(schemes) {
		t.Fatalf("one cycle covers %d pairs, want %d", len(seen), 21*len(schemes))
	}
}

func TestPercentile(t *testing.T) {
	xs := []float64{4, 1, 3, 2}
	if got := percentile(xs, 0.5); got != 2.5 {
		t.Fatalf("median = %v, want 2.5", got)
	}
	if got := percentile([]float64{1, 2, 3, 4, 5}, 0.9); got != 4.6 {
		t.Fatalf("p90 = %v, want 4.6", got)
	}
}

func TestParseMetrics(t *testing.T) {
	body := []byte(`# HELP x y
# TYPE pacstack_pa_auth_fail_total counter
pacstack_pa_auth_fail_total{scheme="pacstack"} 3
pacstack_pa_auth_fail_total{scheme="baseline"} 2
pacstack_serve_outcomes_total{outcome="detected"} 4
pacstack_serve_outcomes_total{outcome="ok"} 6
pacstack_pool_key_violations_total 1
`)
	m := parseMetrics(body)
	if m["pacstack_pa_auth_fail_total"] != 5 || m["pacstack_serve_outcomes_total"] != 10 ||
		m[`pacstack_serve_outcomes_total{outcome="detected"}`] != 4 || m["pacstack_pool_key_violations_total"] != 1 {
		t.Fatalf("parseMetrics = %v", m)
	}
}

func TestModuleOf(t *testing.T) {
	for fn, want := range map[string]string{
		"pacstack/internal/cpu.(*Machine).runBlock": "cpu",
		"pacstack/internal/qarma.(*Cipher).Encrypt": "qarma",
		"pacstack/internal/workload.NginxProgram":   "other",
		"runtime.mallocgc":                          "runtime",
		"encoding/json.Marshal":                     "other",
	} {
		if got := moduleOf(fn); got != want {
			t.Errorf("moduleOf(%q) = %q, want %q", fn, got, want)
		}
	}
}

func TestParseTop(t *testing.T) {
	out := []byte(`File: pacstack-soak
Type: cpu
Showing nodes accounting for 880000000ns, 100% of 880000000ns total
      flat  flat%   sum%        cum   cum%
450000000ns 51.14% 51.14% 450000000ns 51.14%  runtime.asyncPreempt
150000000ns 17.05% 68.18% 570000000ns 64.77%  pacstack/internal/cpu.(*Machine).runBlock
30000000ns  3.41% 75.00% 90000000ns 10.23%  pacstack/internal/qarma.rotCell (inline)
         0     0%   100% 10000000ns  1.14%  main.main
`)
	self, err := parseTop(out)
	if err != nil {
		t.Fatal(err)
	}
	want := map[string]float64{
		"runtime.asyncPreempt":                      450e6,
		"pacstack/internal/cpu.(*Machine).runBlock": 150e6,
		"pacstack/internal/qarma.rotCell":           30e6,
		"main.main":                                 0,
	}
	if !reflect.DeepEqual(self, want) {
		t.Fatalf("parseTop = %v, want %v", self, want)
	}
	if _, err := parseTop([]byte("no table")); err == nil {
		t.Fatal("parseTop accepted output without a table")
	}
}

// TestRoundFailedCountsAbandonedOnce: the cluster report's gave_up
// already includes its abandoned orphans.
func TestRoundFailedCountsAbandonedOnce(t *testing.T) {
	killed := 1
	r := &round{
		soakRep:    soakReport{Issued: 10, OK: 9, Detected: 1},
		clusterRep: soakReport{Issued: 8, OK: 7, GaveUp: 1, Abandoned: 1, KilledBackend: &killed},
	}
	if got := r.failed(); got != 1 {
		t.Fatalf("failed() = %d, want 1", got)
	}
	if bad := r.check(); len(bad) != 0 {
		t.Fatalf("check() = %v, want no findings", bad)
	}
}
