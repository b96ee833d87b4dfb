package serve

import (
	"context"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"pacstack/internal/telemetry"
)

// TestStatsMatchesRegistry: the migrated Stats() accessor and the raw
// registry must agree — one source of truth, two surfaces.
func TestStatsMatchesRegistry(t *testing.T) {
	set := telemetry.New(telemetry.Options{})
	s := New(Config{Workers: 2, Chaos: true, ChaosRate: 1, Seed: 3, Telemetry: set})
	for i := 0; i < 8; i++ {
		_, _ = s.Do(context.Background(), Request{Workload: "chain", Scheme: "pacstack", Seed: int64(i + 1)})
	}
	st := s.Stats()
	if st.Requests != 8 {
		t.Fatalf("requests = %d, want 8", st.Requests)
	}
	if st.OK+st.Detected+st.Silent+st.Internal+st.Panics != st.Requests {
		t.Errorf("outcomes don't sum to requests: %+v", st)
	}
	var regRequests uint64
	for _, f := range set.Registry().Gather().Families {
		if f.Name == "pacstack_serve_requests_total" {
			regRequests = f.Series[0].Value
		}
	}
	if regRequests != st.Requests {
		t.Errorf("registry says %d requests, Stats says %d", regRequests, st.Requests)
	}
}

// TestTelemetryEndpoints drives /metrics, /events and /v1/telemetry
// over real HTTP.
func TestTelemetryEndpoints(t *testing.T) {
	s := New(Config{Workers: 2, Seed: 5})
	if _, err := s.Do(context.Background(), Request{Workload: "chain", Scheme: "pacstack", Seed: 11}); err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	get := func(path string) (string, string) {
		resp, err := http.Get(ts.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("GET %s = %d", path, resp.StatusCode)
		}
		b, _ := io.ReadAll(resp.Body)
		return string(b), resp.Header.Get("Content-Type")
	}

	body, ct := get("/metrics")
	if !strings.HasPrefix(ct, "text/plain") {
		t.Errorf("/metrics content-type = %q", ct)
	}
	for _, frag := range []string{
		"# TYPE pacstack_serve_requests_total counter",
		`pacstack_serve_outcomes_total{outcome="ok"} 1`,
		`pacstack_pa_pac_issued_total{scheme="pacstack"}`,
	} {
		if !strings.Contains(body, frag) {
			t.Errorf("/metrics missing %q in:\n%s", frag, body)
		}
	}

	body, ct = get("/events")
	if !strings.HasPrefix(ct, "application/json") {
		t.Errorf("/events content-type = %q", ct)
	}
	if !strings.Contains(body, `"next_seq"`) {
		t.Errorf("/events missing ring bookkeeping:\n%s", body)
	}

	body, _ = get("/v1/telemetry")
	if !strings.Contains(body, `"metrics"`) || !strings.Contains(body, `"events"`) {
		t.Errorf("/v1/telemetry missing sections:\n%s", body)
	}
}

// TestWarmChainRingEventsPerRequest: a clean warm chain request leaves
// at most one event in the security-event ring (its checkpoint
// restore), so the ring keeps real auth_fail and kill events for
// thousands of requests instead of wrapping on chain operations.
func TestWarmChainRingEventsPerRequest(t *testing.T) {
	const requests = 50
	tel := telemetry.New(telemetry.Options{})
	s := New(Config{Workers: 1, Seed: 1, Warm: true, Telemetry: tel})
	for i := int64(1); i <= requests; i++ {
		if _, err := s.Do(context.Background(), Request{Workload: "chain", Scheme: "pacstack", Seed: i}); err != nil {
			t.Fatal(err)
		}
	}
	n := tel.Log().Snapshot().NextSeq
	t.Logf("%d ring events over %d clean warm chain requests", n, requests)
	if n > requests {
		t.Errorf("%d clean warm chain requests recorded %d ring events, want at most %d", requests, n, requests)
	}
}
