// The canned mesh-gate scenario: one fleet, one gray backend, the
// heavy-tail burst traffic from the serving tier's overload gate —
// run twice. The naive run has the classical machinery only (router,
// breakers, client retries) and must demonstrably blow at least one
// class SLO: the gray link's added round trip sits at the web class's
// p99 target, so everything interactive routed through it without a
// hedge is a violation by construction. The resilient run adds the
// full chaos-mesh defense — hedged requests, the cluster-global retry
// budget, outlier ejection, priority brownout — and must hold every
// class SLO through the same faults, with retry amplification provably
// inside the configured budget. A gray link too weak to hurt the
// naive run proves nothing, so that also fails the gate.

package cluster

import (
	"pacstack/internal/mesh"
	"pacstack/internal/resilience"
	"pacstack/internal/serve"
	"pacstack/internal/traffic"
)

// MeshGateConfig returns the canned gray-backend scenario for the
// given seed: the PR8 burst traffic model over a 3-backend fleet with
// backend 0 behind a mesh.Gray link. With resilient set it enables
// hedging, the retry budget, outlier ejection and priority brownout;
// without, the cluster faces the mesh naively.
func MeshGateConfig(seed int64, resilient bool) SoakConfig {
	model := traffic.BurstScenario(seed)
	cfg := SoakConfig{
		SoakConfig: serve.SoakConfig{
			Workers: 4, Queue: 8, Cores: 4, Seed: seed, ChaosRate: 0.02, Heal: 1, Traffic: &model,
		},
		Backends: 3,
		Mesh:     &mesh.Config{Links: map[int]mesh.LinkConfig{0: mesh.Gray()}},
	}
	if resilient {
		cfg.Hedge = true
		// Secondaries (hedges + retries) capped at 30% of primaries
		// plus a 30-token burst — generous enough for the hedge rate a
		// single gray backend induces, tight enough that a retry storm
		// is provably impossible.
		cfg.RetryBudget = &resilience.RetryBudgetConfig{Num: 3, Den: 10, Burst: 30}
		// A gray backend should leave the candidate set fast (its
		// dilation EWMA is orders of magnitude over threshold) and
		// stay out long enough that re-sampling it costs little.
		cfg.Outlier = &OutlierConfig{MinSamples: 8, Cooldown: 2_000_000}
		// Brownout biased hot: under the burst the heavy low-priority
		// tiers carry ~90% of offered work, and shedding them early is
		// what keeps the interactive tier inside its p99.
		cfg.Brownout = &BrownoutConfig{BurnPermille: 150, DenyThreshold: 2}
	}
	return cfg
}
