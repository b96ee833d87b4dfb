package serve

import (
	"context"
	"strings"
	"testing"

	"pacstack/internal/resilience"
	"pacstack/internal/telemetry"
	"pacstack/internal/traffic"
)

// slowStormModel is a pool-sized-to-starve scenario: half the traffic
// holds a worker slot ~200x longer than its compute justifies.
func slowStormModel(seed int64) traffic.Model {
	lenient := traffic.SLO{ShedPermille: -1, ErrorPermille: -1}
	return traffic.Model{
		Horizon: 4_000_000,
		Rate:    0.03,
		Classes: []traffic.Class{
			{Name: "web", Workloads: []string{"chain"}, Weight: 0.5, SLO: lenient},
			{Name: "slow", Workloads: []string{"chain"}, Weight: 0.5, Slow: 200, SLO: lenient},
		},
		Seed: seed,
	}
}

// Slow clients must exhaust the pool into shedding, never into a
// deadlock: every arrival still reaches a terminal state.
func TestTrafficSlowClientsShedNotDeadlock(t *testing.T) {
	m := slowStormModel(9)
	rep, err := Soak(context.Background(), SoakConfig{
		Seed: 9, Traffic: &m, Workers: 2, Queue: 2, Cores: 2,
	})
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Graceful() {
		t.Fatalf("slow-client storm lost requests: %+v", rep)
	}
	if rep.Sheds == 0 {
		t.Fatal("a 200x slow class against 2 workers must shed")
	}
	if rep.GaveUp == 0 {
		t.Fatal("retry budgets should exhaust under sustained slot starvation")
	}
	slow := rep.SLO.Class("slow")
	if slow == nil || slow.Arrivals == 0 {
		t.Fatal("slow class missing from the SLO report")
	}
}

// A poison storm (every request guaranteed-hostile) must burn through
// the supervised respawn path without ever exceeding the restart
// budget or producing a silent outcome.
func TestTrafficPoisonStormRestartBudget(t *testing.T) {
	const heal = 2
	m := traffic.Model{
		Horizon: 4_000_000,
		Rate:    0.01,
		Classes: []traffic.Class{
			{Name: "poison", Workloads: []string{"chain"}, Weight: 1, Poison: true,
				SLO: traffic.SLO{ShedPermille: -1, ErrorPermille: 1000}},
		},
		Seed: 13,
	}
	set := telemetry.New(telemetry.Options{EventCap: 64})
	rep, err := Soak(context.Background(), SoakConfig{
		Seed: 13, Traffic: &m, Workers: 4, Heal: heal, Telemetry: set,
	})
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Graceful() {
		t.Fatalf("poison storm lost requests: %+v", rep)
	}
	if rep.Silent != 0 {
		t.Fatalf("poison requests produced %d silent outcomes under pacstack", rep.Silent)
	}
	if rep.Detected == 0 {
		t.Fatal("a guaranteed-kill storm detected nothing")
	}
	// Every arrival executes exactly once in the precompute phase; a
	// detected outcome means the respawn budget was fully spent, so the
	// injection count must carry at least Heal+1 attempts per detection
	// and the supervisor must never restart past Issued*Heal.
	if rep.Injected < rep.Detected*(heal+1) {
		t.Fatalf("injected %d < detected %d x (heal+1)", rep.Injected, rep.Detected)
	}
	var restarts uint64
	for _, f := range set.Registry().Gather().Families {
		if f.Name == "pacstack_supervise_restarts_total" {
			for _, s := range f.Series {
				restarts += s.Value
			}
		}
	}
	if restarts > uint64(rep.Issued*heal) {
		t.Fatalf("restart budget breached: %d restarts > %d issued x %d heal", restarts, rep.Issued, heal)
	}
	if restarts < uint64(rep.Detected*heal) {
		t.Fatalf("detected outcomes must have spent the full budget: %d restarts < %d", restarts, rep.Detected*heal)
	}
}

func burstConfig(seed int64, adaptive bool) SoakConfig {
	m := traffic.BurstScenario(seed)
	cfg := SoakConfig{
		Seed: seed, Traffic: &m, Workers: 4, Cores: 32,
		ChaosRate: 0.02, Heal: 1,
	}
	if adaptive {
		cfg.Adaptive = &resilience.AIMDConfig{Max: 48, Step: 4}
	}
	return cfg
}

// The tentpole claim: under the canned 10x burst the static pool
// blows the web class's budgets while the adaptive controller grows
// into the host's spare cores and holds every SLO.
func TestTrafficAdaptiveHoldsBurstSLOWhereStaticFails(t *testing.T) {
	static, err := Soak(context.Background(), burstConfig(42, false))
	if err != nil {
		t.Fatal(err)
	}
	adaptive, err := Soak(context.Background(), burstConfig(42, true))
	if err != nil {
		t.Fatal(err)
	}
	if !static.Graceful() || !adaptive.Graceful() {
		t.Fatal("burst runs lost requests")
	}
	if static.SLO.Pass {
		t.Fatal("static admission passed the 10x burst; the scenario is not stressing it")
	}
	web := static.SLO.Class("web")
	if web == nil || len(web.Violations) == 0 {
		t.Fatalf("static web class should violate its SLO: %+v", web)
	}
	if !adaptive.SLO.Pass {
		t.Fatalf("adaptive admission failed the burst: %+v", adaptive.SLO.Classes)
	}
	aweb := adaptive.SLO.Class("web")
	if aweb.P99 > aweb.SLO.P99 {
		t.Fatalf("adaptive web p99 %d above target %d", aweb.P99, aweb.SLO.P99)
	}
	st := adaptive.SLO.Controller
	if st == nil || st.Increases == 0 || st.LimitMax <= 4 {
		t.Fatalf("controller never grew under the burst: %+v", st)
	}
}

// TestWarmPoolBeatsColdBoot grades the warm pools against the cold-boot
// baseline at the closed-loop soak flag set -clients 6 -requests 12
// -seed 7 -chaos-rate 0.1 -heal 1. Two comparisons:
//
//   - Closed loop, breakers and shedding off, so the terminals are a
//     pure function of the precomputed outcomes: the cold- and
//     warm-model runs must agree exactly on every outcome count (the
//     §4.3 draw-parity property, end to end) with no silent corruption,
//     and warm must deliver at least 10x the cold requests per virtual
//     second.
//   - The boot-dominated open-loop fork-server scenario, where warm must
//     clear 20x. Outcomes are not compared: under overload the two cost
//     models legitimately shed different arrivals.
//
// Both warm runs must serve from the pools and record zero image-key
// violations.
func TestWarmPoolBeatsColdBoot(t *testing.T) {
	run := func(cfg SoakConfig, boot string) *SoakReport {
		t.Helper()
		cfg.BootModel = boot
		rep, err := Soak(context.Background(), cfg)
		if err != nil {
			t.Fatal(err)
		}
		if !rep.Graceful() {
			t.Errorf("%s run not graceful: %+v", boot, rep)
		}
		return rep
	}
	// Breakers and retries off, and a queue as deep as the client count:
	// at most Clients requests are outstanding, so nothing sheds.
	closed := SoakConfig{
		Clients: 6, Requests: 12, Seed: 7, ChaosRate: 0.1, Heal: 1,
		Queue: 6, BreakerThreshold: -1, Retries: -1,
	}
	cold, warm := run(closed, "cold"), run(closed, "warm")
	open := func() SoakConfig {
		m := traffic.ForkServerScenario(7)
		return SoakConfig{Seed: 7, Traffic: &m, ChaosRate: 0.1, Heal: 1}
	}
	tCold, tWarm := run(open(), "cold"), run(open(), "warm")

	if cold.OK != warm.OK || cold.Detected != warm.Detected || cold.Silent != warm.Silent ||
		cold.GaveUp != warm.GaveUp || cold.Injected != warm.Injected {
		t.Errorf("closed-loop outcomes diverged across boot models: cold ok/detected/silent/gave-up/injected %d/%d/%d/%d/%d, warm %d/%d/%d/%d/%d",
			cold.OK, cold.Detected, cold.Silent, cold.GaveUp, cold.Injected,
			warm.OK, warm.Detected, warm.Silent, warm.GaveUp, warm.Injected)
	}
	if warm.Silent != 0 {
		t.Errorf("%d silent corruption(s) under the warm pool", warm.Silent)
	}
	if warm.PoolKeyViolations != 0 || tWarm.PoolKeyViolations != 0 {
		t.Errorf("image-key violations: closed %d, traffic %d — a restore kept the snapshot's PA keys",
			warm.PoolKeyViolations, tWarm.PoolKeyViolations)
	}
	if warm.PoolRestores == 0 || tWarm.PoolRestores == 0 {
		t.Errorf("a warm run served no pool restores (closed %d, traffic %d)", warm.PoolRestores, tWarm.PoolRestores)
	}
	ratio := func(w, c uint64) float64 {
		if c == 0 {
			return 0
		}
		return float64(w) / float64(c)
	}
	closedX, trafficX := ratio(warm.RPVSMilli, cold.RPVSMilli), ratio(tWarm.RPVSMilli, tCold.RPVSMilli)
	t.Logf("warm/cold requests per virtual second: closed loop %.1fx, fork-server traffic %.1fx", closedX, trafficX)
	if closedX < 10 {
		t.Errorf("closed-loop warm/cold throughput %.2fx, need >= 10x", closedX)
	}
	if trafficX < 20 {
		t.Errorf("fork-server traffic warm/cold throughput %.2fx, need >= 20x", trafficX)
	}
}

// TestSoakTrafficModeValidation: the contention model and the adaptive
// controller act only on open-loop traffic, so a closed-loop soak that
// sets them is refused instead of running as if they were unset.
func TestSoakTrafficModeValidation(t *testing.T) {
	for _, c := range []struct {
		name string
		cfg  SoakConfig
		want string
	}{
		{"cores", SoakConfig{Clients: 1, Requests: 1, Cores: 4}, "a core count requires traffic mode"},
		{"adaptive", SoakConfig{Clients: 1, Requests: 1, Adaptive: &resilience.AIMDConfig{}}, "adaptive admission requires traffic mode"},
	} {
		if _, err := Soak(context.Background(), c.cfg); err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("%s: got %v, want an error containing %q", c.name, err, c.want)
		}
	}
}
