package cluster

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"testing"

	"pacstack/internal/fault"
	"pacstack/internal/resilience"
	"pacstack/internal/serve"
	"pacstack/internal/supervise"
	"pacstack/internal/telemetry"
)

// TestMigrateMachinesReseedsKeys is the §4.3 invariant end to end: a
// machine shipped off a dead backend restores on the survivor with
// fresh keys (no PAC sealed by the dead incarnation verifies), and —
// because the shipped snapshot is chain-neutral boot state — the
// restored machine still runs its program to the golden output.
func TestMigrateMachinesReseedsKeys(t *testing.T) {
	eng := fault.NewEngine(fault.DefaultProgram())
	from := NewBackend(0, 42)
	to := NewBackend(1, 42)
	m, err := from.BootMachine(eng, "pacstack")
	if err != nil {
		t.Fatal(err)
	}
	from.Kill()

	rep, err := MigrateMachines(from, to)
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Machines) != 1 || rep.SharedKeyViolations != 0 {
		t.Fatalf("migration report: %+v", rep)
	}
	mm := rep.Machines[0]
	if !mm.KeysReseeded || mm.SharedKeys {
		t.Fatalf("machine migration: keys_reseeded=%v shared=%v, want true/false", mm.KeysReseeded, mm.SharedKeys)
	}

	var migrated *Machine
	for _, cand := range to.Machines() {
		if cand.Migrated {
			migrated = cand
		}
	}
	if migrated == nil {
		t.Fatal("survivor adopted no machine")
	}
	if supervise.SharedKeys(m.Proc, migrated.Proc) {
		t.Fatal("migrated machine authenticates under the dead backend's keys")
	}

	// The re-seeded machine must still be a working incarnation: run it
	// and compare against the golden run.
	goldenOut, goldenExit, goldenInstrs, err := eng.Golden(migrated.Img.Scheme)
	if err != nil {
		t.Fatal(err)
	}
	if err := migrated.Proc.Run(4*goldenInstrs + 10_000); err != nil {
		t.Fatalf("migrated machine run: %v", err)
	}
	if string(migrated.Proc.Output) != string(goldenOut) || migrated.Proc.ExitCode != goldenExit {
		t.Fatalf("migrated machine diverged: output %q exit %d, golden %q exit %d",
			migrated.Proc.Output, migrated.Proc.ExitCode, goldenOut, goldenExit)
	}
}

// killSoakConfig is the kill-a-backend-mid-soak scenario the tests
// share.
func killSoakConfig(tel *telemetry.Set) SoakConfig {
	return SoakConfig{
		SoakConfig: serve.SoakConfig{Clients: 6, Requests: 10, Seed: 11, ChaosRate: 0.1, Heal: 1, Telemetry: tel},
		Backends:   3, Kills: []KillSpec{{At: 40_000, Backend: -1}},
	}
}

// TestClusterSoakKillAccounting: a backend death mid-soak loses
// nothing. Every in-flight request of the victim is replayed exactly
// once or terminally accounted; the budget is charged exactly once;
// machines migrate with re-seeded keys.
func TestClusterSoakKillAccounting(t *testing.T) {
	rep, err := Soak(context.Background(), killSoakConfig(nil))
	if err != nil {
		t.Fatal(err)
	}
	if err := rep.Check(); err != nil {
		t.Fatalf("Check: %v", err)
	}
	if rep.KilledBackend < 0 {
		t.Fatal("kill never fired")
	}
	if rep.BudgetCharged != 1 {
		t.Fatalf("budget charged %d times, want 1", rep.BudgetCharged)
	}
	if got := rep.OrphansExecuting + rep.OrphansQueued; rep.Replayed+rep.Abandoned != got {
		t.Fatalf("orphans %d but replayed %d + abandoned %d", got, rep.Replayed, rep.Abandoned)
	}
	if rep.Migration == nil {
		t.Fatal("no migration report")
	}
	if rep.Migration.SharedKeyViolations != 0 {
		t.Fatalf("%d shared-key violations", rep.Migration.SharedKeyViolations)
	}
	dead := rep.PerBackend[rep.KilledBackend]
	if dead.Alive {
		t.Fatal("killed backend still marked alive")
	}
	if dead.MigratedOut != len(rep.Migration.Machines) {
		t.Fatalf("dead backend migrated out %d, migration shipped %d", dead.MigratedOut, len(rep.Migration.Machines))
	}
	// Replays landed on survivors, and are visible per backend.
	replayedOn := 0
	for _, row := range rep.PerBackend {
		replayedOn += row.Replayed
	}
	if replayedOn != rep.Replayed {
		t.Fatalf("per-backend replayed rows sum to %d, report says %d", replayedOn, rep.Replayed)
	}
}

// TestClusterSoakNoKill: without a kill the fleet behaves like a
// load-balanced soak — no migration, no budget charge, graceful.
func TestClusterSoakNoKill(t *testing.T) {
	rep, err := Soak(context.Background(), SoakConfig{
		SoakConfig: serve.SoakConfig{Clients: 6, Requests: 8, Seed: 7, ChaosRate: 0.1, Heal: 1},
		Backends:   3,
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := rep.Check(); err != nil {
		t.Fatalf("Check: %v", err)
	}
	if rep.KilledBackend != -1 || rep.BudgetCharged != 0 || rep.Migration != nil {
		t.Fatalf("phantom failover: killed=%d charged=%d migration=%v",
			rep.KilledBackend, rep.BudgetCharged, rep.Migration)
	}
	// The router actually spreads load: every backend served something.
	for _, row := range rep.PerBackend {
		if row.Routed == 0 {
			t.Fatalf("backend %d never routed to: %+v", row.Backend, rep.PerBackend)
		}
	}
}

// TestClusterSoakBudgetExhausted: with no failover budget the victim's
// orphans are abandoned — terminally, loudly, never silently.
func TestClusterSoakBudgetExhausted(t *testing.T) {
	cfg := killSoakConfig(nil)
	cfg.FailoverBudget = -1
	rep, err := Soak(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Graceful() {
		t.Fatalf("not graceful: %+v", rep)
	}
	if rep.Silent != 0 {
		t.Fatalf("%d silent", rep.Silent)
	}
	if rep.BudgetCharged != 0 || rep.Migration != nil {
		t.Fatalf("budget-exhausted kill still migrated: charged=%d", rep.BudgetCharged)
	}
	if rep.Replayed != 0 {
		t.Fatalf("replayed %d orphans without budget", rep.Replayed)
	}
	if rep.OrphansExecuting+rep.OrphansQueued > 0 && rep.Abandoned == 0 {
		t.Fatalf("orphans existed but none accounted as abandoned: %+v", rep)
	}
}

// TestRouterOrder: closed beats half-open beats open, and the rotor
// spreads decisions among equals deterministically per seed.
func TestRouterOrder(t *testing.T) {
	states := map[int]resilience.BreakerState{
		0: resilience.BreakerOpen,
		1: resilience.BreakerClosed,
		2: resilience.BreakerHalfOpen,
		3: resilience.BreakerClosed,
	}
	stateOf := func(i int) resilience.BreakerState { return states[i] }
	r := NewRouter(5)
	order := r.Order(0, []int{0, 1, 2, 3}, stateOf, nil)
	if len(order) != 4 {
		t.Fatalf("order %v, want 4 entries", order)
	}
	// Closed backends (1, 3) must occupy the first two slots, the
	// half-open one next, the open one last.
	if !((order[0] == 1 || order[0] == 3) && (order[1] == 1 || order[1] == 3)) {
		t.Fatalf("closed backends not preferred: %v", order)
	}
	if order[2] != 2 || order[3] != 0 {
		t.Fatalf("half-open/open tail wrong: %v", order)
	}

	// Same seed, same decision sequence.
	a, b := NewRouter(9), NewRouter(9)
	for i := 0; i < 50; i++ {
		oa := a.Order(uint64(i), []int{0, 1, 2, 3}, stateOf, nil)
		ob := b.Order(uint64(i), []int{0, 1, 2, 3}, stateOf, nil)
		for j := range oa {
			if oa[j] != ob[j] {
				t.Fatalf("decision %d differs: %v vs %v", i, oa, ob)
			}
		}
	}
	// The rotor rotates: across many decisions both closed backends get
	// the top slot at least once.
	top := map[int]bool{}
	for i := 0; i < 50; i++ {
		top[a.Order(uint64(i), []int{1, 3}, stateOf, nil)[0]] = true
	}
	if !top[1] || !top[3] {
		t.Fatalf("rotor pinned one backend: top slots %v", top)
	}
}

// TestLiveClusterKillFailover drives the live (wall-clock) tier: a
// request routes, the operator kills a backend, machines migrate with
// re-seeded keys, and the fleet keeps serving.
func TestLiveClusterKillFailover(t *testing.T) {
	cl, err := New(Config{
		Backends: 3, Seed: 3,
		Backend:          serve.Config{Workers: 2},
		BreakerThreshold: -1,
	})
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	if _, err := cl.Do(ctx, serve.Request{Workload: "chain", Scheme: "pacstack", Seed: 9}); err != nil {
		t.Fatalf("Do before kill: %v", err)
	}

	rep, err := cl.Kill(ctx, 1)
	if err != nil {
		t.Fatalf("Kill: %v", err)
	}
	if len(rep.Machines) == 0 || rep.SharedKeyViolations != 0 {
		t.Fatalf("migration report: %+v", rep)
	}
	if _, err := cl.Kill(ctx, 1); !errors.Is(err, ErrDeadBackend) {
		t.Fatalf("second kill of backend 1: %v, want ErrDeadBackend", err)
	}

	st := cl.Status()
	if st.Alive != 2 || st.Backends[1].Alive {
		t.Fatalf("status after kill: %+v", st)
	}
	if st.FailoverCharged != 1 {
		t.Fatalf("budget charged %d, want 1", st.FailoverCharged)
	}

	// The fleet still serves.
	for i := 0; i < 4; i++ {
		if _, err := cl.Do(ctx, serve.Request{Workload: "chain", Scheme: "pacstack", Seed: int64(20 + i)}); err != nil {
			t.Fatalf("Do after kill: %v", err)
		}
	}
	// Killing the rest exhausts the fleet; budget refuses a second
	// migration first.
	if _, err := cl.Kill(ctx, 0); err == nil {
		t.Fatal("second failover should exhaust the budget")
	}
	if _, err := cl.Kill(ctx, 2); err == nil {
		t.Fatal("last backend death has no survivor")
	}
	if _, err := cl.Do(ctx, serve.Request{Workload: "chain", Scheme: "pacstack"}); !errors.Is(err, ErrNoBackend) {
		t.Fatalf("Do with dead fleet: %v, want ErrNoBackend", err)
	}
}

// TestLiveRoutedCountsAdmittedOnly: pacstack_cluster_routed_total
// counts the requests a backend admitted, not the ones it shed. One
// backend with one worker and no queue takes six concurrent nginx
// requests; the first admitted one holds the worker while it compiles
// and runs, so the others are shed.
func TestLiveRoutedCountsAdmittedOnly(t *testing.T) {
	cl, err := New(Config{
		Backends: 1, Seed: 3,
		Backend:          serve.Config{Workers: 1, Queue: -1},
		BreakerThreshold: -1,
	})
	if err != nil {
		t.Fatal(err)
	}
	const n = 6
	start := make(chan struct{})
	errs := make(chan error, n)
	for i := 0; i < n; i++ {
		go func() {
			<-start
			_, err := cl.Do(context.Background(), serve.Request{Workload: "nginx", Scheme: "pacstack", Seed: 7})
			errs <- err
		}()
	}
	close(start)
	shed := 0
	for i := 0; i < n; i++ {
		switch err := <-errs; {
		case errors.Is(err, resilience.ErrShed):
			shed++
		case err != nil:
			t.Fatalf("request: %v", err)
		}
	}
	if shed == 0 {
		t.Fatal("no request was shed; the test needs overlapping requests")
	}
	if got := familyTotal(cl.Telemetry().Registry(), "pacstack_cluster_routed_total", "0"); got != uint64(n-shed) {
		t.Fatalf("routed_total %d, want %d (%d of %d requests shed)", got, n-shed, shed, n)
	}
}

// TestStatusRowsArePerBackend routes 24 chain requests over three
// backends: each /v1/cluster row reports only its own backend, the
// rows' routed counts add up to the 24, and the serving counters,
// which every backend counts into one telemetry set, appear once, as
// the fleet's.
func TestStatusRowsArePerBackend(t *testing.T) {
	cl, err := New(Config{Backends: 3, Seed: 3, BreakerThreshold: -1})
	if err != nil {
		t.Fatal(err)
	}
	const n = 24
	for i := 0; i < n; i++ {
		if _, err := cl.Do(context.Background(), serve.Request{Workload: "chain", Scheme: "pacstack", Seed: int64(i + 1)}); err != nil {
			t.Fatal(err)
		}
	}
	st := cl.Status()
	if st.Fleet.Requests != n || st.Fleet.OK != n {
		t.Errorf("fleet counters: %d requests, %d ok, want %d each", st.Fleet.Requests, st.Fleet.OK, n)
	}
	var routed uint64
	for _, row := range st.Backends {
		routed += row.Routed
		if row.Routed == n {
			t.Errorf("backend %d routed all %d requests; the test needs them spread", row.Backend, n)
		}
		if want := familyTotal(cl.Telemetry().Registry(), "pacstack_cluster_routed_total", fmt.Sprint(row.Backend)); row.Routed != want {
			t.Errorf("backend %d row routed %d, pacstack_cluster_routed_total %d", row.Backend, row.Routed, want)
		}
	}
	if routed != n {
		t.Errorf("rows routed %d requests in all, want %d", routed, n)
	}
	raw, err := json.Marshal(st.Backends)
	if err != nil {
		t.Fatal(err)
	}
	var rows []map[string]any
	if err := json.Unmarshal(raw, &rows); err != nil {
		t.Fatal(err)
	}
	for _, row := range rows {
		for _, fleetOnly := range []string{"stats", "requests", "ok"} {
			if _, ok := row[fleetOnly]; ok {
				t.Errorf("backend %v row carries the fleet's %q", row["backend"], fleetOnly)
			}
		}
	}
}

// familyTotal sums the series of the named metric family, or only the
// series labelled backend=<backend> when backend is not empty.
func familyTotal(reg *telemetry.Registry, name, backend string) uint64 {
	var total uint64
	for _, fam := range reg.Gather().Families {
		if fam.Name != name {
			continue
		}
		for _, s := range fam.Series {
			match := backend == ""
			for _, l := range s.Labels {
				match = match || l.Name == "backend" && l.Value == backend
			}
			if match {
				total += s.Value
			}
		}
	}
	return total
}

// TestWarmFailoverAnswersLikeCold: a warm fleet and a cold fleet with
// the same seed give the same answer to every request, before and
// after a backend dies. A warm restore re-keys the machine (§4.3) in
// the same entropy order as a cold boot, so the migrated machines and
// the pools that outlive the failover change cost, never results.
func TestWarmFailoverAnswersLikeCold(t *testing.T) {
	ctx := context.Background()
	run := func(warm bool) ([]*serve.Result, *Cluster) {
		cl, err := New(Config{
			Backends: 3, Seed: 3,
			Backend:          serve.Config{Workers: 2, Warm: warm},
			BreakerThreshold: -1,
		})
		if err != nil {
			t.Fatal(err)
		}
		var out []*serve.Result
		serveSeeds := func(from int64) {
			for seed := from; seed < from+12; seed++ {
				res, err := cl.Do(ctx, serve.Request{Workload: "chain", Scheme: "pacstack", Seed: seed})
				if err != nil {
					t.Fatalf("warm=%v seed %d: %v", warm, seed, err)
				}
				out = append(out, res)
			}
		}
		serveSeeds(100)
		rep, err := cl.Kill(ctx, 1)
		if err != nil {
			t.Fatalf("warm=%v Kill: %v", warm, err)
		}
		// The backends share one registry, so a backend's own count is
		// its routed series.
		reg, survivor := cl.Telemetry().Registry(), fmt.Sprint(rep.To)
		before := familyTotal(reg, "pacstack_cluster_routed_total", survivor)
		serveSeeds(200)
		if familyTotal(reg, "pacstack_cluster_routed_total", survivor) == before {
			t.Fatalf("warm=%v: survivor backend %d served nothing after the kill", warm, rep.To)
		}
		return out, cl
	}
	cold, _ := run(false)
	warm, cl := run(true)
	for i := range cold {
		if *cold[i] != *warm[i] {
			t.Fatalf("request %d: warm %+v, cold %+v", i, *warm[i], *cold[i])
		}
	}
	reg := cl.Telemetry().Registry()
	if n := familyTotal(reg, "pacstack_pool_restores_total", ""); n == 0 {
		t.Fatal("warm fleet counted no pool restores")
	}
	if n := familyTotal(reg, "pacstack_pool_key_violations_total", ""); n != 0 {
		t.Fatalf("warm fleet counted %d pool key violations", n)
	}
}

// TestRouterLoadAware: within one breaker-state class the router
// prefers the least-loaded backend; the rotor only breaks ties among
// equal loads.
func TestRouterLoadAware(t *testing.T) {
	closed := func(int) resilience.BreakerState { return resilience.BreakerClosed }
	loads := map[int]int{0: 5, 1: 0, 2: 3}
	r := NewRouter(5)
	for i := 0; i < 20; i++ {
		order := r.Order(uint64(i), []int{0, 1, 2}, closed, func(i int) int { return loads[i] })
		if order[0] != 1 || order[1] != 2 || order[2] != 0 {
			t.Fatalf("decision %d not load-ordered: %v (loads %v)", i, order, loads)
		}
	}
	// Breaker state still dominates load: a drained closed backend
	// beats an idle half-open one.
	states := map[int]resilience.BreakerState{0: resilience.BreakerClosed, 1: resilience.BreakerHalfOpen}
	order := r.Order(0, []int{0, 1}, func(i int) resilience.BreakerState { return states[i] },
		func(i int) int { return map[int]int{0: 9, 1: 0}[i] })
	if order[0] != 0 {
		t.Fatalf("half-open backend outranked a closed one: %v", order)
	}
	// Equal loads fall back to the rotor: both backends reach the top.
	top := map[int]bool{}
	for i := 0; i < 50; i++ {
		top[r.Order(uint64(i), []int{0, 2}, closed, func(int) int { return 1 })[0]] = true
	}
	if !top[0] || !top[2] {
		t.Fatalf("rotor pinned one equally-loaded backend: %v", top)
	}
}

// TestClusterSoakCascadingKills: two backends die at different virtual
// instants with budget for both. Each absorbed kill charges the budget
// once, ships its own migration, and replays its own orphans exactly
// once; requests orphaned twice (replayed onto a backend that then
// also died) replay once per failover without tripping the violation
// counter.
func TestClusterSoakCascadingKills(t *testing.T) {
	cfg := SoakConfig{
		SoakConfig: serve.SoakConfig{Clients: 6, Requests: 10, Seed: 11, ChaosRate: 0.1, Heal: 1},
		Backends:   3, FailoverBudget: 2,
		Kills: []KillSpec{{At: 40_000, Backend: -1}, {At: 60_000, Backend: -1}},
	}
	rep, err := Soak(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := rep.Check(); err != nil {
		t.Fatalf("Check: %v", err)
	}
	if len(rep.Kills) != 2 {
		t.Fatalf("executed %d kills, want 2: %+v", len(rep.Kills), rep.Kills)
	}
	if rep.Kills[0].Backend == rep.Kills[1].Backend {
		t.Fatalf("both kills hit backend %d", rep.Kills[0].Backend)
	}
	for i, k := range rep.Kills {
		if !k.Absorbed {
			t.Fatalf("kill %d not absorbed with budget to spare: %+v", i, k)
		}
		if k.Replayed != k.Orphans {
			t.Fatalf("kill %d replayed %d of %d orphans", i, k.Replayed, k.Orphans)
		}
	}
	if rep.BudgetCharged != 2 {
		t.Fatalf("budget charged %d times for 2 absorbed kills", rep.BudgetCharged)
	}
	if len(rep.Migrations) != 2 || rep.Migration != rep.Migrations[0] {
		t.Fatalf("want 2 migration reports with the first aliased: %d", len(rep.Migrations))
	}
	if rep.ReplayViolations != 0 {
		t.Fatalf("%d replay violations", rep.ReplayViolations)
	}
	alive := 0
	for _, row := range rep.PerBackend {
		if row.Alive {
			alive++
		}
	}
	if alive != 1 {
		t.Fatalf("%d backends alive after 2 kills of 3", alive)
	}
}

// TestClusterSoakCascadeBeyondBudget: the second kill exceeds a budget
// of one — its orphans are abandoned loudly (gave-up, never silent)
// and the accounting still closes.
func TestClusterSoakCascadeBeyondBudget(t *testing.T) {
	cfg := SoakConfig{
		SoakConfig: serve.SoakConfig{Clients: 6, Requests: 10, Seed: 11, ChaosRate: 0.1, Heal: 1},
		Backends:   3, FailoverBudget: 1,
		Kills: []KillSpec{{At: 40_000, Backend: -1}, {At: 60_000, Backend: -1}},
	}
	rep, err := Soak(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := rep.Check(); err != nil {
		t.Fatalf("Check: %v", err)
	}
	if len(rep.Kills) != 2 || !rep.Kills[0].Absorbed || rep.Kills[1].Absorbed {
		t.Fatalf("want first kill absorbed, second not: %+v", rep.Kills)
	}
	if rep.BudgetCharged != 1 {
		t.Fatalf("budget charged %d times, want 1", rep.BudgetCharged)
	}
	k2 := rep.Kills[1]
	if k2.Abandoned != k2.Orphans {
		t.Fatalf("unabsorbed kill abandoned %d of %d orphans", k2.Abandoned, k2.Orphans)
	}
	if rep.Silent != 0 {
		t.Fatalf("%d silent outcomes", rep.Silent)
	}
	if len(rep.Migrations) != 1 {
		t.Fatalf("%d migrations for 1 absorbed kill", len(rep.Migrations))
	}
}

// TestRefusedProbeKeepsBreakerHalfOpen: a half-open backend breaker
// grants a probe to a request that the backend then refuses (here,
// because it is draining). Nothing ran, so the probe proved nothing:
// the breaker must stay half-open for the next candidate, not close
// as if the backend had served it.
func TestRefusedProbeKeepsBreakerHalfOpen(t *testing.T) {
	cl, err := New(Config{
		Backends: 1, Seed: 3,
		Backend:          serve.Config{Workers: 1, Chaos: true, ChaosRate: 1},
		BreakerThreshold: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	clock := uint64(1)
	cl.now = func() uint64 { return clock }
	br := cl.backends[0].Breaker
	req := serve.Request{Workload: "chain", Scheme: "pacstack"}
	for seed := int64(1); br.State(clock) != resilience.BreakerOpen; seed++ {
		if seed > 20 {
			t.Fatal("20 chaos requests raised no detected corruption")
		}
		req.Seed = seed
		_, err := cl.Do(context.Background(), req)
		var ce *serve.CorruptionError
		if err != nil && !errors.As(err, &ce) {
			t.Fatalf("chaos request: %v", err)
		}
	}
	clock += liveBreakerCooldown
	if st := br.State(clock); st != resilience.BreakerHalfOpen {
		t.Fatalf("breaker reads %s after its cooldown, want half-open", st)
	}
	cl.backends[0].Srv.BeginDrain()
	if _, err := cl.Do(context.Background(), req); !errors.Is(err, resilience.ErrDraining) {
		t.Fatalf("request to a draining backend: %v, want ErrDraining", err)
	}
	if st := br.State(clock); st != resilience.BreakerHalfOpen {
		t.Errorf("breaker reads %s after a refused probe, want half-open", st)
	}
	if !br.Allow(clock) {
		t.Error("the next candidate was refused the probe the refused request handed back")
	}
}
