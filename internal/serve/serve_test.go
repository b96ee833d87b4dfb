package serve

import (
	"context"
	"encoding/json"
	"errors"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"testing"
	"time"

	"pacstack/internal/fault"
	"pacstack/internal/ir"
	"pacstack/internal/resilience"
	"pacstack/internal/telemetry"
)

// slowProgram exits cleanly after ~2M loop iterations — long enough
// that a request is reliably still in flight while a test pokes at the
// server from outside.
func slowProgram() *ir.Program {
	return &ir.Program{Entry: "main", Functions: []*ir.Function{
		{Name: "main", Body: []ir.Op{
			ir.Loop{Count: 2_000_000, Body: []ir.Op{ir.Compute{Units: 1}}},
		}},
	}}
}

func TestDoCleanRequest(t *testing.T) {
	s := New(Config{Seed: 7})
	res, err := s.Do(context.Background(), Request{Workload: "chain", Scheme: "pacstack", Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	if res.Attempts != 1 || res.Healed || res.Injected != 0 {
		t.Errorf("clean request: attempts=%d healed=%v injected=%d", res.Attempts, res.Healed, res.Injected)
	}
	if res.Scheme != "pacstack" {
		t.Errorf("scheme = %q", res.Scheme)
	}
	st := s.Stats()
	if st.Requests != 1 || st.OK != 1 {
		t.Errorf("stats = %+v", st)
	}
}

func TestDoDeterministicForSeededRequest(t *testing.T) {
	mk := func() (*Result, error) {
		s := New(Config{Seed: 11, Chaos: true, ChaosRate: 1})
		return s.Do(context.Background(), Request{Scheme: "pacstack", Seed: 41})
	}
	r1, e1 := mk()
	r2, e2 := mk()
	if (e1 == nil) != (e2 == nil) {
		t.Fatalf("errors diverged: %v vs %v", e1, e2)
	}
	if e1 != nil {
		if e1.Error() != e2.Error() {
			t.Fatalf("error text diverged:\n%v\n%v", e1, e2)
		}
		return
	}
	if !reflect.DeepEqual(r1, r2) {
		t.Fatalf("results diverged:\n%+v\n%+v", r1, r2)
	}
}

// TestWarmMatchesColdOnProbeCollision: on a seed-1 server, request
// seed 79721 draws keys whose 16-bit PAC of a single probe pointer
// matches the one the boot-image keys produce. A warm lease must still
// serve it with the cold outcome: key freshness is an exact comparison,
// so no key violation is counted, no nil process reaches the
// classifier, and clean serving authenticates nothing that fails.
func TestWarmMatchesColdOnProbeCollision(t *testing.T) {
	req := Request{Workload: "chain", Scheme: "pacstack", Seed: 79721}
	cold, err := New(Config{Seed: 1}).Do(context.Background(), req)
	if err != nil {
		t.Fatalf("cold: %v", err)
	}
	set := telemetry.New(telemetry.Options{})
	warmSrv := New(Config{Seed: 1, Warm: true, Telemetry: set})
	warm, err := warmSrv.Do(context.Background(), req)
	if err != nil {
		t.Fatalf("warm: %v", err)
	}
	if !reflect.DeepEqual(cold, warm) {
		t.Fatalf("warm result diverged from cold:\n%+v\n%+v", warm, cold)
	}
	if restores, _, violations, _ := warmSrv.PoolStats(); restores != 1 || violations != 0 {
		t.Fatalf("pool restores %d, key violations %d; want 1 and 0", restores, violations)
	}
	for _, f := range set.Registry().Gather().Families {
		if f.Name != "pacstack_pa_auth_fail_total" {
			continue
		}
		for _, se := range f.Series {
			if se.Value != 0 {
				t.Fatalf("clean warm request counted %d auth failure(s)", se.Value)
			}
		}
	}
}

func TestBadRequestTyped(t *testing.T) {
	s := New(Config{})
	_, err := s.Do(context.Background(), Request{Workload: "no-such-workload"})
	var bre *BadRequestError
	if !errors.As(err, &bre) {
		t.Fatalf("err = %v, want BadRequestError", err)
	}
	_, err = s.Do(context.Background(), Request{Scheme: "no-such-scheme"})
	if !errors.As(err, &bre) {
		t.Fatalf("err = %v, want BadRequestError", err)
	}
	if st := s.Stats(); st.BadRequests != 2 {
		t.Errorf("bad requests = %d, want 2", st.BadRequests)
	}
}

// TestChaosDetectionsAreTypedNeverSilent: under full-rate chaos with
// the paper's corruption kinds, a PACStack backend must produce only
// clean results and typed CorruptionErrors — no silent divergence.
func TestChaosDetectionsAreTypedNeverSilent(t *testing.T) {
	s := New(Config{
		Seed:             5,
		Chaos:            true,
		ChaosRate:        1,
		ChaosKinds:       []fault.Kind{fault.KindRetAddr},
		BreakerThreshold: -1, // full-rate chaos would trip any breaker
	})
	detected := 0
	for seed := int64(1); seed <= 30; seed++ {
		_, err := s.Do(context.Background(), Request{Scheme: "pacstack", Seed: seed})
		var se *SilentCorruptionError
		if errors.As(err, &se) {
			t.Fatalf("seed %d: silent corruption from PACStack: %v", seed, err)
		}
		var ce *CorruptionError
		if errors.As(err, &ce) {
			detected++
			if ce.Cause == fault.CauseNone {
				t.Errorf("seed %d: detection with no cause", seed)
			}
		} else if err != nil {
			t.Fatalf("seed %d: unexpected error class: %v", seed, err)
		}
	}
	if detected == 0 {
		t.Fatal("30 full-rate chaos requests produced no detection")
	}
	st := s.Stats()
	if st.Silent != 0 {
		t.Errorf("silent = %d, want 0", st.Silent)
	}
	if st.Detected != uint64(detected) {
		t.Errorf("stats detected = %d, loop saw %d", st.Detected, detected)
	}
}

// TestHealRetriesDetectedKills: with a respawn budget, some requests
// that crash on the first attempt come back healed on a fresh-keyed
// incarnation instead of surfacing an error.
func TestHealRetriesDetectedKills(t *testing.T) {
	s := New(Config{
		Seed:             9,
		Chaos:            true,
		ChaosRate:        0.5,
		ChaosKinds:       []fault.Kind{fault.KindRetAddr},
		Heal:             2,
		BreakerThreshold: -1,
	})
	healed := 0
	for seed := int64(1); seed <= 40; seed++ {
		res, err := s.Do(context.Background(), Request{Scheme: "pacstack", Seed: seed})
		if err == nil && res.Healed {
			healed++
			if res.Attempts < 2 {
				t.Errorf("seed %d: healed with %d attempts", seed, res.Attempts)
			}
		}
	}
	if healed == 0 {
		t.Fatal("no request healed across 40 half-rate chaos requests with Heal=2")
	}
	if st := s.Stats(); st.Healed != uint64(healed) {
		t.Errorf("stats healed = %d, loop saw %d", st.Healed, healed)
	}
}

func TestDeadlineSurfacesAsTypedError(t *testing.T) {
	s := New(Config{Seed: 1, Programs: map[string]*ir.Program{"slow": slowProgram()}})
	ctx, cancel := context.WithTimeout(context.Background(), time.Millisecond)
	defer cancel()
	_, err := s.Do(ctx, Request{Workload: "slow", Seed: 2})
	if !errors.Is(err, ErrDeadline) {
		t.Fatalf("err = %v, want ErrDeadline", err)
	}
	if st := s.Stats(); st.DeadlineExceeded != 1 {
		t.Errorf("deadline counter = %d, want 1", st.DeadlineExceeded)
	}
	if got := s.InFlight(); got != 0 {
		t.Errorf("in flight after deadline = %d, want 0", got)
	}
}

// waitInFlight polls until the server has n admitted requests.
func waitInFlight(t *testing.T, s *Server, n int) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for s.InFlight() != n {
		if time.Now().After(deadline) {
			t.Fatalf("in flight never reached %d (now %d)", n, s.InFlight())
		}
		time.Sleep(time.Millisecond)
	}
}

func TestOverloadShedsAndDrainLosesNothing(t *testing.T) {
	s := New(Config{
		Workers: 1, Queue: -1, Seed: 1,
		Programs: map[string]*ir.Program{"slow": slowProgram()},
	})

	done := make(chan error, 1)
	go func() {
		_, err := s.Do(context.Background(), Request{Workload: "slow", Seed: 2})
		done <- err
	}()
	waitInFlight(t, s, 1)

	// Single worker busy, zero queue: the next request is shed, not
	// queued and not allowed to block.
	_, err := s.Do(context.Background(), Request{Workload: "slow", Seed: 3})
	if !errors.Is(err, resilience.ErrShed) {
		t.Fatalf("err = %v, want ErrShed", err)
	}

	// Begin drain: new work is rejected with the draining error...
	s.BeginDrain()
	_, err = s.Do(context.Background(), Request{Workload: "slow", Seed: 4})
	if !errors.Is(err, resilience.ErrDraining) {
		t.Fatalf("err = %v, want ErrDraining", err)
	}

	// ...but the in-flight request finishes and Drain waits for it. Do
	// counts its outcome before it releases its admission slot, so once
	// Drain returns the request is finished and counted; only the
	// goroutine's send of Do's result may still be on its way.
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := s.Drain(ctx); err != nil {
		t.Fatalf("drain: %v", err)
	}
	st := s.Stats()
	if st.OK != 1 || s.InFlight() != 0 {
		t.Fatalf("drain returned before the in-flight request finished: ok %d, in flight %d", st.OK, s.InFlight())
	}
	if err := <-done; err != nil {
		t.Fatalf("in-flight request lost to drain: %v", err)
	}
	if st.Shed != 1 || st.RejectedDraining != 1 {
		t.Errorf("stats = %+v", st)
	}
}

func TestBreakerOpensAfterConsecutiveFailures(t *testing.T) {
	s := New(Config{
		Seed:             3,
		Chaos:            true,
		ChaosRate:        1,
		ChaosKinds:       []fault.Kind{fault.KindRetAddr},
		BreakerThreshold: 3,
		BreakerCooldown:  uint64(time.Hour), // never half-opens during the test
	})
	sawDenied := false
	for seed := int64(1); seed <= 60 && !sawDenied; seed++ {
		_, err := s.Do(context.Background(), Request{Scheme: "pacstack", Seed: seed})
		if errors.Is(err, resilience.ErrBreakerOpen) {
			sawDenied = true
		}
	}
	if !sawDenied {
		t.Fatal("breaker never opened under full-rate chaos with threshold 3")
	}
	st := s.Stats()
	if st.BreakerDenied == 0 || st.BreakerOpens["pacstack"] == 0 {
		t.Errorf("stats = %+v", st)
	}
}

func TestHTTPStatusMapping(t *testing.T) {
	s := New(Config{Seed: 5, Chaos: true, ChaosRate: 1, ChaosKinds: []fault.Kind{fault.KindRetAddr}, BreakerThreshold: -1})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	post := func(body string) (int, map[string]any) {
		t.Helper()
		resp, err := http.Post(ts.URL+"/v1/run", "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var m map[string]any
		if err := json.NewDecoder(resp.Body).Decode(&m); err != nil {
			t.Fatal(err)
		}
		return resp.StatusCode, m
	}

	if code, m := post(`{"scheme":"bogus"}`); code != http.StatusBadRequest || m["kind"] != "bad_request" {
		t.Errorf("bad scheme: %d %v", code, m)
	}
	if code, m := post(`{"unknown_field":1}`); code != http.StatusBadRequest || m["kind"] != "bad_request" {
		t.Errorf("unknown field: %d %v", code, m)
	}

	saw502 := false
	for seed := 1; seed <= 30 && !saw502; seed++ {
		body, _ := json.Marshal(Request{Scheme: "pacstack", Seed: int64(seed)})
		code, m := post(string(body))
		switch code {
		case http.StatusOK:
		case http.StatusBadGateway:
			saw502 = true
			if m["kind"] != "detected_corruption" || m["cause"] == "" {
				t.Errorf("502 body: %v", m)
			}
		default:
			t.Fatalf("unexpected status %d: %v", code, m)
		}
	}
	if !saw502 {
		t.Error("no 502 across 30 full-rate chaos requests")
	}

	resp, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Errorf("healthz = %d", resp.StatusCode)
	}
	s.BeginDrain()
	resp, err = http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Errorf("healthz while draining = %d, want 503", resp.StatusCode)
	}

	resp, err = http.Get(ts.URL + "/v1/stats")
	if err != nil {
		t.Fatal(err)
	}
	var snap Snapshot
	if err := json.NewDecoder(resp.Body).Decode(&snap); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if snap.Requests == 0 || !snap.Draining {
		t.Errorf("stats snapshot = %+v", snap)
	}
}

func soakConfigForTest() SoakConfig {
	return SoakConfig{
		Clients:   4,
		Requests:  8,
		Schemes:   []string{"pacstack"},
		Seed:      17,
		ChaosRate: 0.3,
		Workers:   2,
		Queue:     2,
	}
}

// TestSoakGracefulAndNeverSilent: under ~30% injected faults every
// request reaches a terminal state, detections are typed, and PACStack
// records zero silent corruptions.
func TestSoakGracefulAndNeverSilent(t *testing.T) {
	rep, err := Soak(context.Background(), soakConfigForTest())
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Graceful() {
		t.Fatalf("soak not graceful: %+v", rep)
	}
	if rep.Silent != 0 {
		t.Errorf("silent corruptions = %d, want 0", rep.Silent)
	}
	if rep.Detected == 0 {
		t.Error("no detections under 30% chaos")
	}
	if rep.Issued != 32 {
		t.Errorf("issued = %d, want 32", rep.Issued)
	}
	sum := rep.OK + rep.Detected + rep.Silent + rep.GaveUp
	if sum != rep.Issued {
		t.Errorf("accounting: ok+detected+silent+gaveup = %d, issued = %d", sum, rep.Issued)
	}
}

// TestSoakShedsUnderPressure: a tight server model with one worker
// and no queue forces contention the report must account for.
func TestSoakShedsUnderPressure(t *testing.T) {
	cfg := SoakConfig{
		Clients:  8,
		Requests: 6,
		Seed:     23,
		Workers:  1,
		Queue:    -1,
		Retries:  2,
	}
	rep, err := Soak(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Sheds == 0 {
		t.Error("no sheds with 8 clients on 1 worker and no queue")
	}
	if rep.Retries == 0 {
		t.Error("no retries recorded")
	}
	if !rep.Graceful() {
		t.Fatalf("not graceful: %+v", rep)
	}
}

func TestSoakRejectsUnknownScheme(t *testing.T) {
	_, err := Soak(context.Background(), SoakConfig{Schemes: []string{"bogus"}})
	var bre *BadRequestError
	if !errors.As(err, &bre) {
		t.Fatalf("err = %v, want BadRequestError", err)
	}
}

// TestSoakReportCheck: a report passes its check only when nothing was
// silently corrupted and every issued request reached a terminal state.
func TestSoakReportCheck(t *testing.T) {
	rep := &SoakReport{Tally: Tally{Issued: 5, Counts: Counts{OK: 3, Detected: 1}, GaveUp: 1}}
	if err := rep.Check(); err != nil {
		t.Fatalf("clean report: %v", err)
	}
	silent := *rep
	silent.OK, silent.Silent = 2, 1
	if err := silent.Check(); err == nil || !strings.Contains(err.Error(), "1 silent corruption(s)") {
		t.Errorf("silent corruption: %v", err)
	}
	lost := *rep
	lost.InFlightAtEnd = 1
	if err := lost.Check(); err == nil || !strings.Contains(err.Error(), "not graceful") {
		t.Errorf("request left in flight: %v", err)
	}
}
