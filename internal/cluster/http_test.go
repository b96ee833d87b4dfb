package cluster

import (
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"pacstack/internal/serve"
)

// httpCall sends one request to srv and returns the status, the
// headers and the body.
func httpCall(t *testing.T, srv *httptest.Server, method, path, body string) (int, http.Header, []byte) {
	t.Helper()
	req, err := http.NewRequest(method, srv.URL+path, strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	if body != "" {
		req.Header.Set("Content-Type", "application/json")
	}
	res, err := srv.Client().Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer res.Body.Close()
	data, err := io.ReadAll(res.Body)
	if err != nil {
		t.Fatal(err)
	}
	return res.StatusCode, res.Header, data
}

// wantKind asserts an error envelope's status and kind.
func wantKind(t *testing.T, what string, status int, body []byte, wantStatus int, kind string) {
	t.Helper()
	var env struct {
		Error string `json:"error"`
		Kind  string `json:"kind"`
	}
	if err := json.Unmarshal(body, &env); err != nil {
		t.Fatalf("%s: body %q is not an error envelope: %v", what, body, err)
	}
	if status != wantStatus || env.Kind != kind || env.Error == "" {
		t.Fatalf("%s: status %d kind %q error %q, want %d %q", what, status, env.Kind, env.Error, wantStatus, kind)
	}
}

// TestClusterHTTPSurface pins the live cluster's HTTP surface for a
// 2-backend fleet: /v1/run answers like a standalone serve.Server, a
// bad body is a 400 bad_request, an all-down mesh is a 503 link_down
// and a dead fleet a 503 no_backend (both with Retry-After), /healthz
// follows the fleet's liveness, and the telemetry routes keep their
// content types.
func TestClusterHTTPSurface(t *testing.T) {
	cl, err := New(Config{Backends: 2, Seed: 4, Backend: serve.Config{Workers: 2}})
	if err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(cl.Handler())
	defer srv.Close()
	single := httptest.NewServer(serve.New(serve.Config{Seed: 9}).Handler())
	defer single.Close()

	run := `{"workload": "chain", "scheme": "pacstack", "seed": 17}`
	status, hdr, got := httpCall(t, srv, "POST", "/v1/run", run)
	_, _, want := httpCall(t, single, "POST", "/v1/run", run)
	if status != http.StatusOK || string(got) != string(want) {
		t.Fatalf("seeded /v1/run: status %d body\n%s\nwant 200 and the standalone server's\n%s", status, got, want)
	}
	if ct := hdr.Get("Content-Type"); ct != "application/json" {
		t.Fatalf("/v1/run Content-Type %q", ct)
	}

	for _, c := range []struct{ name, body string }{
		{"malformed body", `{"workload": `},
		{"unknown field", `{"workload": "chain", "scheme": "pacstack", "bogus": 1}`},
		{"oversized body", `{"workload": "` + strings.Repeat("x", 1<<16) + `"}`},
	} {
		status, _, body := httpCall(t, srv, "POST", "/v1/run", c.body)
		wantKind(t, c.name, status, body, http.StatusBadRequest, "bad_request")
	}

	status, hdr, body := httpCall(t, srv, "GET", "/metrics", "")
	if status != http.StatusOK || !strings.HasPrefix(hdr.Get("Content-Type"), "text/plain; version=0.0.4") {
		t.Fatalf("/metrics: status %d Content-Type %q", status, hdr.Get("Content-Type"))
	}
	if !strings.Contains(string(body), "pacstack_cluster_routed_total") {
		t.Fatalf("/metrics lacks pacstack_cluster_routed_total:\n%s", body)
	}
	for _, path := range []string{"/events", "/v1/telemetry"} {
		status, hdr, body := httpCall(t, srv, "GET", path, "")
		if status != http.StatusOK || hdr.Get("Content-Type") != "application/json" || !json.Valid(body) {
			t.Fatalf("%s: status %d Content-Type %q valid JSON %v", path, status, hdr.Get("Content-Type"), json.Valid(body))
		}
	}

	if status, _, body := httpCall(t, srv, "POST", "/v1/mesh", `{"links": {"0": {"down": true}, "1": {"down": true}}}`); status != http.StatusOK {
		t.Fatalf("POST /v1/mesh: status %d: %s", status, body)
	}
	status, hdr, body = httpCall(t, srv, "POST", "/v1/run", run)
	wantKind(t, "every link down", status, body, http.StatusServiceUnavailable, "link_down")
	if ra := hdr.Get("Retry-After"); ra != "1" {
		t.Fatalf("link_down Retry-After %q, want 1", ra)
	}
	if status, _, body := httpCall(t, srv, "POST", "/v1/mesh", `{}`); status != http.StatusOK {
		t.Fatalf("clearing the mesh: status %d: %s", status, body)
	}

	if status, _, _ := httpCall(t, srv, "GET", "/healthz", ""); status != http.StatusOK {
		t.Fatalf("/healthz with the fleet alive: status %d", status)
	}
	for _, idx := range []string{"0", "1"} {
		httpCall(t, srv, "POST", "/v1/kill?backend="+idx, "")
	}
	status, hdr, body = httpCall(t, srv, "POST", "/v1/run", run)
	wantKind(t, "every backend dead", status, body, http.StatusServiceUnavailable, "no_backend")
	if ra := hdr.Get("Retry-After"); ra != "1" {
		t.Fatalf("no_backend Retry-After %q, want 1", ra)
	}
	if status, _, _ := httpCall(t, srv, "GET", "/healthz", ""); status != http.StatusServiceUnavailable {
		t.Fatalf("/healthz with every backend dead: status %d, want 503", status)
	}
}
