// HTTP/JSON surface: POST /v1/run executes one workload, GET /v1/stats
// exposes the counter snapshot, GET /metrics is the Prometheus-text
// exposition of the telemetry registry, GET /events is the security
// event ring as JSON, GET /v1/telemetry is the combined dump
// (cmd/pacstack-metrics consumes it), and GET /healthz flips to 503
// once draining so load balancers stop routing here during shutdown.
// Every typed failure of the pipeline maps to a distinct status code —
// the point is that a client can tell "your request found a corrupted
// victim" (502) from "we are overloaded, back off" (429) from "we are
// going away" (503) without parsing prose. Frontend holds the routes,
// the decoding and the error envelope that the cluster tier
// (internal/cluster) mounts as well.

package serve

import (
	"context"
	"encoding/json"
	"errors"
	"net/http"
	"time"

	"pacstack/internal/resilience"
	"pacstack/internal/telemetry"
)

// maxBodyBytes bounds a request body; run requests are tiny.
const maxBodyBytes = 1 << 16

// ErrorBody is the JSON error envelope of both serving tiers.
type ErrorBody struct {
	Error string `json:"error"`
	// Kind is the machine-readable failure class: shed, draining,
	// breaker_open, deadline, detected_corruption, silent_corruption,
	// panic, bad_request, internal; the cluster adds its own routing
	// and operator kinds.
	Kind string `json:"kind"`
	// Cause carries the kernel's detection cause on 502s (auth,
	// segfault, cfi, canary, sigreturn, watchdog, other).
	Cause    string `json:"cause,omitempty"`
	Attempts int    `json:"attempts,omitempty"`
	Kill     string `json:"kill,omitempty"`
}

// HTTPStatus maps a pipeline error to its HTTP status and error body.
// The cluster maps its routing errors first and falls through to it, so
// both tiers speak the same error vocabulary.
func HTTPStatus(err error) (int, ErrorBody) {
	var ce *CorruptionError
	var se *SilentCorruptionError
	var pe *resilience.PanicError
	var bre *BadRequestError
	switch {
	case errors.As(err, &bre):
		return http.StatusBadRequest, ErrorBody{Error: err.Error(), Kind: "bad_request"}
	case errors.Is(err, resilience.ErrShed):
		return http.StatusTooManyRequests, ErrorBody{Error: err.Error(), Kind: "shed"}
	case errors.Is(err, resilience.ErrDraining):
		return http.StatusServiceUnavailable, ErrorBody{Error: err.Error(), Kind: "draining"}
	case errors.Is(err, resilience.ErrBreakerOpen):
		return http.StatusServiceUnavailable, ErrorBody{Error: err.Error(), Kind: "breaker_open"}
	case errors.Is(err, ErrDeadline), errors.Is(err, context.DeadlineExceeded), errors.Is(err, context.Canceled):
		return http.StatusGatewayTimeout, ErrorBody{Error: err.Error(), Kind: "deadline"}
	case errors.As(err, &ce):
		body := ErrorBody{Error: err.Error(), Kind: "detected_corruption", Cause: ce.Cause.String(), Attempts: ce.Attempts}
		if ce.Kill != nil {
			body.Kill = ce.Kill.String()
		}
		return http.StatusBadGateway, body
	case errors.As(err, &se):
		return http.StatusInternalServerError, ErrorBody{Error: err.Error(), Kind: "silent_corruption"}
	case errors.As(err, &pe):
		return http.StatusInternalServerError, ErrorBody{Error: err.Error(), Kind: "panic"}
	default:
		return http.StatusInternalServerError, ErrorBody{Error: err.Error(), Kind: "internal"}
	}
}

// WriteJSON answers with status and v as indented JSON.
func WriteJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	_ = enc.Encode(v)
}

// DecodeBody decodes r's JSON body into v: at most 64 KiB, and no
// unknown fields.
func DecodeBody(w http.ResponseWriter, r *http.Request, v any) error {
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxBodyBytes))
	dec.DisallowUnknownFields()
	return dec.Decode(v)
}

// Frontend is the HTTP front end both serving tiers mount: POST /v1/run
// runs a request through Do under the Timeout deadline and maps its
// error with Status, and /metrics, /events and /v1/telemetry expose Tel.
type Frontend struct {
	Do      func(context.Context, Request) (*Result, error)
	Timeout time.Duration // 0: none
	Status  func(error) (int, ErrorBody)
	Tel     *telemetry.Set
}

// Mux returns a mux serving the front end's routes, for the tier to add
// its own to.
func (f Frontend) Mux() *http.ServeMux {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/run", f.run)
	mux.HandleFunc("GET /metrics", func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		_, _ = w.Write([]byte(telemetry.Prometheus(f.Tel.Registry().Gather())))
	})
	mux.HandleFunc("GET /events", func(w http.ResponseWriter, _ *http.Request) {
		WriteJSON(w, http.StatusOK, f.Tel.Log().Snapshot())
	})
	mux.HandleFunc("GET /v1/telemetry", func(w http.ResponseWriter, _ *http.Request) {
		WriteJSON(w, http.StatusOK, f.Tel.Dump())
	})
	return mux
}

func (f Frontend) run(w http.ResponseWriter, r *http.Request) {
	var req Request
	if err := DecodeBody(w, r, &req); err != nil {
		WriteJSON(w, http.StatusBadRequest, ErrorBody{Error: "malformed request: " + err.Error(), Kind: "bad_request"})
		return
	}
	ctx := r.Context()
	if f.Timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, f.Timeout)
		defer cancel()
	}
	res, err := f.Do(ctx, req)
	if err != nil {
		status, body := f.Status(err)
		if status == http.StatusTooManyRequests || status == http.StatusServiceUnavailable {
			w.Header().Set("Retry-After", "1")
		}
		WriteJSON(w, status, body)
		return
	}
	WriteJSON(w, http.StatusOK, res)
}

// Handler returns the server's HTTP surface: the shared front end plus
// /v1/stats and /healthz.
func (s *Server) Handler() http.Handler {
	mux := Frontend{Do: s.Do, Timeout: s.cfg.Timeout, Status: HTTPStatus, Tel: s.tel}.Mux()
	mux.HandleFunc("GET /v1/stats", func(w http.ResponseWriter, _ *http.Request) {
		WriteJSON(w, http.StatusOK, s.Stats())
	})
	mux.HandleFunc("GET /healthz", func(w http.ResponseWriter, _ *http.Request) {
		if s.Draining() {
			WriteJSON(w, http.StatusServiceUnavailable, map[string]string{"status": "draining"})
			return
		}
		WriteJSON(w, http.StatusOK, map[string]string{"status": "ok"})
	})
	return mux
}
