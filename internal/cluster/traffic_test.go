package cluster

import (
	"bytes"
	"context"
	"fmt"
	"testing"

	"pacstack/internal/mesh"
	"pacstack/internal/resilience"
	"pacstack/internal/traffic"
)

// sloSummary renders an SLO report compactly for test failure output.
func sloSummary(rep *ClusterReport) string {
	var b bytes.Buffer
	fmt.Fprintf(&b, "issued %d ok %d detected %d gaveup %d sheds %d retries %d hedges %d(w%d) timeouts %d drops %d noBackend %d browned %d ejections %d budgetDenied %d\n",
		rep.Issued, rep.OK, rep.Detected, rep.GaveUp, rep.Sheds, rep.Retries,
		rep.Hedges, rep.HedgeWins, rep.Timeouts, rep.LinkDrops, rep.NoBackend,
		rep.BrownedOut, rep.Ejections, rep.BudgetDenied)
	for _, c := range rep.SLO.Classes {
		fmt.Fprintf(&b, "  %-7s arr %4d off-ok %4d browned %4d p50 %8d p99 %8d shed %4d‰ err %4d‰ pass=%v %v\n",
			c.Class, c.Arrivals, c.OK, c.BrownedOut, c.P50, c.P99, c.ShedPermille, c.ErrorPermille, c.Pass, c.Violations)
	}
	return b.String()
}

// TestMeshGateNaiveVsResilient is the tentpole acceptance test: under
// the canned gray-backend scenario the naive cluster must blow at
// least one class SLO, while the resilient one (hedges + retry budget
// + ejection + brownout) holds every class — with retry amplification
// provably inside the configured budget and the gray backend actually
// ejected.
func TestMeshGateNaiveVsResilient(t *testing.T) {
	run := func(resilient bool) *ClusterReport {
		rep, err := Soak(context.Background(), MeshGateConfig(42, resilient))
		if err != nil {
			t.Fatal(err)
		}
		if !rep.Graceful() {
			t.Fatalf("resilient=%v: not graceful:\n%s", resilient, sloSummary(rep))
		}
		return rep
	}
	naive := run(false)
	resilient := run(true)
	t.Logf("naive:\n%s", sloSummary(naive))
	t.Logf("resilient:\n%s", sloSummary(resilient))

	if naive.SLO.Pass {
		t.Errorf("naive cluster survived the gray backend — the scenario exercises nothing:\n%s", sloSummary(naive))
	}
	if !resilient.SLO.Pass {
		t.Errorf("resilient cluster out of SLO:\n%s", sloSummary(resilient))
	}
	if err := resilient.Check(); err != nil {
		t.Errorf("resilient Check: %v", err)
	}
	if resilient.Hedges == 0 {
		t.Error("resilient run never hedged")
	}
	if resilient.HedgeKeyViolations != 0 {
		t.Errorf("%d hedge pair(s) share PA keys", resilient.HedgeKeyViolations)
	}
	if resilient.Ejections == 0 {
		t.Error("the gray backend was never ejected")
	}
	if resilient.Budget == nil {
		t.Fatal("no retry-budget accounting")
	}
	if got, bound := resilient.Budget.Granted, resilient.BudgetBound; got > bound {
		t.Errorf("retry amplification %d secondaries over the bound %d", got, bound)
	}
}

// TestTrafficSoakAllLinksDown: a mesh that eats every message on every
// link must not hang or panic the DES. Every arrival times out, the
// ejector eventually removes every backend from the candidate set, and
// from then on admission fails deterministically with the distinct
// no_backend outcome — terminally accounted, conservation intact.
func TestTrafficSoakAllLinksDown(t *testing.T) {
	model := traffic.Default(7)
	model.Horizon = 2_000_000
	cfg := SoakConfig{
		Backends: 3,
		Workers:  2,
		Seed:     7,
		Traffic:  &model,
		Mesh: &mesh.Config{Links: map[int]mesh.LinkConfig{
			0: {Down: true}, 1: {Down: true}, 2: {Down: true},
		}},
		Outlier: &OutlierConfig{MinSamples: 4, Cooldown: 10_000_000},
	}
	rep, err := Soak(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Graceful() {
		t.Fatalf("not graceful: issued %d, terminal %d, in flight %d",
			rep.Issued, rep.OK+rep.Detected+rep.Silent+rep.GaveUp, rep.InFlightAtEnd)
	}
	if rep.OK != 0 {
		t.Errorf("%d requests completed through an all-down mesh", rep.OK)
	}
	if rep.GaveUp != rep.Issued {
		t.Errorf("want all %d requests gave-up, got %d", rep.Issued, rep.GaveUp)
	}
	if rep.NoBackend == 0 {
		t.Error("no no_backend outcomes despite a fully ejected fleet")
	}
	if rep.Ejections == 0 {
		t.Error("no ejections despite every link being down")
	}
	if rep.Timeouts == 0 {
		t.Error("no timeouts despite every message being dropped")
	}
}

// TestTrafficSoakHedgePairKeys: hedged execution is only §4.3-safe on
// key-independent machines. Force heavy hedging and assert no hedge
// pair ever shared PA keys.
func TestTrafficSoakHedgePairKeys(t *testing.T) {
	model := traffic.Default(3)
	model.Horizon = 3_000_000
	cfg := SoakConfig{
		Backends: 3,
		Workers:  2,
		Seed:     3,
		Traffic:  &model,
		// A modest uniform latency on every link delays every request
		// past the web hedge deadline, so nearly every arrival hedges.
		Mesh: &mesh.Config{Links: map[int]mesh.LinkConfig{
			0: {Latency: 40_000}, 1: {Latency: 40_000}, 2: {Latency: 40_000},
		}},
		Hedge:       &HedgeConfig{},
		RetryBudget: &resilience.RetryBudgetConfig{Num: 9, Den: 10, Burst: 50},
	}
	rep, err := Soak(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Hedges == 0 {
		t.Fatal("scenario produced no hedges")
	}
	if rep.HedgeKeyViolations != 0 {
		t.Errorf("%d of %d hedge pair(s) share PA keys", rep.HedgeKeyViolations, rep.Hedges)
	}
	if !rep.Graceful() {
		t.Error("run not graceful")
	}
}

// TestVerticalScalingConverges: under sustained load the per-backend
// vertical AIMD grows the modelled core count from a deliberately
// small start until contention dilation subsides, and holds inside
// the configured band — it must neither stay at the start nor slam
// into the ceiling.
func TestVerticalScalingConverges(t *testing.T) {
	model := traffic.Default(11)
	model.Horizon = 6_000_000
	model.Rate = 0.04 // sustained pressure: twice the default base rate
	cfg := SoakConfig{
		Backends:         3,
		Workers:          8,
		Cores:            1,
		Seed:             11,
		Traffic:          &model,
		VerticalAdaptive: &resilience.AIMDConfig{Start: 1, Max: 32, Interval: 20_000},
	}
	rep, err := Soak(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Graceful() {
		t.Fatal("run not graceful")
	}
	for _, row := range rep.PerBackend {
		if row.CoreStats == nil {
			t.Fatalf("backend %d: no vertical-scaling stats", row.Backend)
		}
		st := row.CoreStats
		if st.Increases == 0 {
			t.Errorf("backend %d: cores never grew under sustained load (stats %+v)", row.Backend, st)
		}
		if st.LimitMax <= 1 {
			t.Errorf("backend %d: cores stuck at the start (max %d)", row.Backend, st.LimitMax)
		}
		if st.LimitMax >= 32 {
			t.Errorf("backend %d: cores slammed into the ceiling (max %d) — no convergence", row.Backend, st.LimitMax)
		}
		if row.Cores != st.Limit {
			t.Errorf("backend %d: report cores %d != controller limit %d", row.Backend, row.Cores, st.Limit)
		}
	}
}

// TestBrownoutShedsByPriority: a brownout forced by an undersized
// fleet sheds the hostile low-priority tiers at admission while the
// protected web tier keeps being offered service; browned arrivals
// are recorded per class and SLO-exempt.
func TestBrownoutShedsByPriority(t *testing.T) {
	model := traffic.BurstScenario(5)
	cfg := SoakConfig{
		Backends:  2,
		Workers:   2, // deliberately undersized: brownout must engage
		Queue:     2,
		Cores:     2,
		Seed:      5,
		Traffic:   &model,
		Retries:   2,
		Brownout:  &BrownoutConfig{},
		ChaosRate: 0.02,
		Heal:      1,
	}
	rep, err := Soak(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Graceful() {
		t.Fatal("run not graceful")
	}
	if rep.BrownedOut == 0 {
		t.Fatalf("undersized fleet never browned out:\n%s", sloSummary(rep))
	}
	if rep.BrownoutMaxLevel == 0 {
		t.Error("brownout level never escalated")
	}
	web := rep.SLO.Class("web")
	if web == nil {
		t.Fatal("no web class in the SLO report")
	}
	if web.BrownedOut != 0 {
		t.Errorf("the protected web tier was browned out %d time(s)", web.BrownedOut)
	}
	browned := 0
	for _, c := range rep.SLO.Classes {
		browned += c.BrownedOut
	}
	if browned != rep.BrownedOut {
		t.Errorf("per-class browned %d != report total %d", browned, rep.BrownedOut)
	}
	// SLO exemption: a browned class's rates are judged on offered
	// traffic only, so denominators must reflect arrivals - browned.
	for _, c := range rep.SLO.Classes {
		if c.BrownedOut > c.Arrivals {
			t.Errorf("class %s: browned %d > arrivals %d", c.Class, c.BrownedOut, c.Arrivals)
		}
	}
}

// TestTrafficModeValidation: the resilience knobs require traffic
// mode, and traffic mode excludes the kill schedule.
func TestTrafficModeValidation(t *testing.T) {
	if _, err := Soak(context.Background(), SoakConfig{Hedge: &HedgeConfig{}}); err == nil {
		t.Error("hedging without traffic mode must fail")
	}
	if _, err := Soak(context.Background(), SoakConfig{Mesh: &mesh.Config{}}); err == nil {
		t.Error("mesh without traffic mode must fail")
	}
	model := traffic.Default(1)
	if _, err := Soak(context.Background(), SoakConfig{Traffic: &model, KillAt: 5}); err == nil {
		t.Error("traffic mode with a kill schedule must fail")
	}
	if _, err := Soak(context.Background(), SoakConfig{
		Traffic: &model,
		Mesh:    &mesh.Config{Links: map[int]mesh.LinkConfig{9: {}}},
	}); err == nil {
		t.Error("mesh link beyond the fleet must fail")
	}
}

// TestRetryBudgetBound: the token bucket's integer arithmetic holds
// its own bound exactly, and denials begin exactly when the bucket
// runs dry.
func TestRetryBudgetBound(t *testing.T) {
	b := resilience.NewRetryBudget(resilience.RetryBudgetConfig{Num: 1, Den: 10, Burst: 2})
	granted := 0
	for i := 0; i < 100; i++ {
		b.Earn()
		if b.Spend() {
			granted++
		}
	}
	st := b.Stats()
	if st.Primaries != 100 {
		t.Fatalf("primaries %d", st.Primaries)
	}
	if granted != st.Granted {
		t.Fatalf("granted mismatch: %d vs %d", granted, st.Granted)
	}
	if bound := b.Bound(100); st.Granted > bound {
		t.Errorf("granted %d over bound %d", st.Granted, bound)
	}
	// 100 primaries at 1/10 earn 10 tokens plus the burst of 2, minus
	// the very first earn, which clamps against the still-full bucket.
	if st.Granted != 11 {
		t.Errorf("granted %d, want 11", st.Granted)
	}
	if st.Denied != 89 {
		t.Errorf("denied %d, want 89", st.Denied)
	}
}
