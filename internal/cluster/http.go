// HTTP/JSON surface of the live cluster. It mounts the serving tier's
// front end (serve.Frontend) with the router's Do, the backends'
// deadline and the routing-error mapping, so POST /v1/run, /metrics,
// /events and /v1/telemetry decode, answer and fail exactly as the
// single-backend daemon does and dashboards point at either tier
// unchanged. The cluster adds GET /v1/cluster, the fleet status
// (per-backend liveness, breaker state, resident machines, serve
// counters), POST /v1/kill?backend=N, the operator kill-and-failover,
// the /v1/mesh link state, and /healthz, which stays 200 while at least
// one backend is alive — the whole point of the tier.

package cluster

import (
	"errors"
	"net/http"
	"strconv"

	"pacstack/internal/mesh"
	"pacstack/internal/serve"
)

// Handler returns the cluster's HTTP surface.
func (c *Cluster) Handler() http.Handler {
	mux := serve.Frontend{Do: c.Do, Timeout: c.cfg.Backend.Timeout, Status: statusOf, Tel: c.tel}.Mux()
	mux.HandleFunc("GET /v1/cluster", c.handleCluster)
	mux.HandleFunc("POST /v1/kill", c.handleKill)
	mux.HandleFunc("GET /v1/mesh", c.handleMeshGet)
	mux.HandleFunc("POST /v1/mesh", c.handleMeshSet)
	mux.HandleFunc("GET /healthz", c.handleHealthz)
	return mux
}

// statusOf maps routing errors first, then falls through to the serve
// layer's mapping for execution outcomes.
func statusOf(err error) (int, serve.ErrorBody) {
	if errors.Is(err, ErrNoBackend) {
		return http.StatusServiceUnavailable, serve.ErrorBody{Error: err.Error(), Kind: "no_backend"}
	}
	if errors.Is(err, ErrLinkDown) {
		return http.StatusServiceUnavailable, serve.ErrorBody{Error: err.Error(), Kind: "link_down"}
	}
	return serve.HTTPStatus(err)
}

func (c *Cluster) handleCluster(w http.ResponseWriter, _ *http.Request) {
	serve.WriteJSON(w, http.StatusOK, c.Status())
}

func (c *Cluster) handleKill(w http.ResponseWriter, r *http.Request) {
	idx, err := strconv.Atoi(r.URL.Query().Get("backend"))
	if err != nil {
		serve.WriteJSON(w, http.StatusBadRequest, serve.ErrorBody{Error: "kill: backend query parameter must be an integer", Kind: "bad_request"})
		return
	}
	rep, err := c.Kill(r.Context(), idx)
	if err != nil {
		status := http.StatusConflict
		if errors.Is(err, ErrDeadBackend) {
			status = http.StatusGone
		}
		serve.WriteJSON(w, status, serve.ErrorBody{Error: err.Error(), Kind: "kill_failed"})
		return
	}
	serve.WriteJSON(w, http.StatusOK, rep)
}

// handleMeshGet reports the live link state; handleMeshSet replaces it
// wholesale — POST the full mesh config, an empty/absent links map
// clears every fault. Wholesale replacement keeps the operator surface
// honest: what you GET is exactly what was last POSTed, ruled at the
// current clock.
func (c *Cluster) handleMeshGet(w http.ResponseWriter, _ *http.Request) {
	serve.WriteJSON(w, http.StatusOK, c.MeshStatus())
}

func (c *Cluster) handleMeshSet(w http.ResponseWriter, r *http.Request) {
	var cfg mesh.Config
	if err := serve.DecodeBody(w, r, &cfg); err != nil {
		serve.WriteJSON(w, http.StatusBadRequest, serve.ErrorBody{Error: "malformed mesh config: " + err.Error(), Kind: "bad_request"})
		return
	}
	if err := c.SetMesh(cfg); err != nil {
		serve.WriteJSON(w, http.StatusBadRequest, serve.ErrorBody{Error: err.Error(), Kind: "bad_mesh"})
		return
	}
	serve.WriteJSON(w, http.StatusOK, c.MeshStatus())
}

func (c *Cluster) handleHealthz(w http.ResponseWriter, _ *http.Request) {
	st := c.Status()
	if st.Alive == 0 {
		serve.WriteJSON(w, http.StatusServiceUnavailable, map[string]any{"status": "dead", "alive": 0})
		return
	}
	serve.WriteJSON(w, http.StatusOK, map[string]any{"status": "ok", "alive": st.Alive})
}
