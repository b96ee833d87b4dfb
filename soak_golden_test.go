package pacstack

import (
	"bytes"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"pacstack/internal/cluster"
	"pacstack/internal/compile"
	"pacstack/internal/par"
	"pacstack/internal/resilience"
	"pacstack/internal/serve"
	"pacstack/internal/snap"
	"pacstack/internal/telemetry"
	"pacstack/internal/traffic"
)

var update = flag.Bool("update", false, "rewrite the soak and crash-matrix goldens under testdata")

// soakCell is one pinned soak scenario. Exactly one of serveCfg and
// clusterCfg builds its config; eventCap bounds its telemetry ring
// (0: the CLI default).
type soakCell struct {
	name       string
	serveCfg   func() serve.SoakConfig
	clusterCfg func() cluster.SoakConfig
	eventCap   int
}

func trafficModel(m traffic.Model, horizon uint64) *traffic.Model {
	if horizon > 0 {
		m.Horizon = horizon
	}
	return &m
}

// closedSoak is the closed-loop soak flag set
// -clients 6 -requests 12 -seed 7 -chaos-rate 0.1 -heal 1, which
// internal/serve's warm-pool gate test also runs, with the CLI's
// defaults filled in.
func closedSoak() serve.SoakConfig {
	return serve.SoakConfig{
		Clients: 6, Requests: 12, Workload: "chain", Schemes: []string{"pacstack"},
		Seed: 7, ChaosRate: 0.1, Heal: 1, Workers: 4, Retries: 3, BreakerThreshold: 8,
	}
}

// burstSoak is the open-loop burst traffic under AIMD admission, as the
// soak CLI's -traffic burst -adaptive builds it.
func burstSoak(seed int64) serve.SoakConfig {
	return serve.SoakConfig{
		Seed: seed, Traffic: trafficModel(traffic.BurstScenario(seed), 0),
		Workers: 4, Cores: 32, ChaosRate: 0.02, Heal: 1, Retries: 3, BreakerThreshold: 8,
		Adaptive: &resilience.AIMDConfig{Max: 48, Step: 4},
	}
}

// clusterKill is the cluster failover flag set
// -backends 3 -clients 6 -requests 10 -seed 11 -chaos-rate 0.1 -heal 1
// with the given kill schedule and the CLI's defaults.
func clusterKill(kills ...cluster.KillSpec) cluster.SoakConfig {
	return cluster.SoakConfig{
		SoakConfig: serve.SoakConfig{
			Clients: 6, Requests: 10, Workload: "chain", Schemes: []string{"pacstack"},
			Seed: 11, ChaosRate: 0.1, Heal: 1, Workers: 2, Retries: 3, BreakerThreshold: 8,
		},
		Backends: 3, Kills: kills, MigrateLatency: 5_000, FailoverBudget: 1,
	}
}

// soakCells is the golden matrix: the scenarios the package gate tests
// grade (closed-loop and warm soaks, the adaptive burst, the kill and
// cascade failovers, the resilient mesh), the two soak-chaos job
// shapes of perfbench/soak.go at a short horizon, and the configs of
// the serial-vs-parallel identity tests this table replaced.
var soakCells = []soakCell{
	{name: "soak", serveCfg: closedSoak},
	{name: "soak-warm", serveCfg: func() serve.SoakConfig {
		c := closedSoak()
		c.BootModel = "warm"
		return c
	}},
	{name: "traffic-burst", serveCfg: func() serve.SoakConfig { return burstSoak(42) }},
	{name: "cluster-kill", clusterCfg: func() cluster.SoakConfig {
		return clusterKill(cluster.KillSpec{At: 40_000, Backend: -1})
	}},
	{name: "cluster-cascade", clusterCfg: func() cluster.SoakConfig {
		c := clusterKill(cluster.KillSpec{At: 40_000, Backend: -1}, cluster.KillSpec{At: 60_000, Backend: -1})
		c.FailoverBudget = 2
		return c
	}},
	{name: "mesh-resilient", clusterCfg: func() cluster.SoakConfig { return cluster.MeshGateConfig(42, true) }},

	// perfbench's soak-chaos round at seed 1: the pacstack-soak job
	// (-traffic burst -adaptive -chaos-rate 0.1 -heal 1
	// -checkpoint-every 25000 -retries 8) and the pacstack-cluster job
	// (8 clients, a kill at half the run).
	{name: "chaos-serve", serveCfg: func() serve.SoakConfig {
		c := burstSoak(1)
		c.Traffic = trafficModel(traffic.BurstScenario(1), 2_000_000)
		c.Cores = 0
		c.ChaosRate, c.CheckpointEvery, c.Retries = 0.1, 25_000, 8
		return c
	}},
	{name: "chaos-cluster", clusterCfg: func() cluster.SoakConfig {
		c := clusterKill(cluster.KillSpec{At: 20 * 6_500 / 2, Backend: -1})
		c.Clients, c.Requests, c.Seed = 8, 20, 1
		return c
	}},

	// The configs of the identity tests the table replaced.
	{name: "soak-chaos30", serveCfg: soakChaos30},
	{name: "soak-checkpoint", serveCfg: func() serve.SoakConfig {
		c := soakChaos30()
		c.Heal, c.CheckpointEvery, c.CheckpointCrash = 2, 300, 0.5
		return c
	}},
	{name: "soak-two-schemes", eventCap: 1024, serveCfg: func() serve.SoakConfig {
		return serve.SoakConfig{
			Clients: 4, Requests: 6, Schemes: []string{"pacstack", "baseline"},
			Seed: 7, ChaosRate: 0.4, Heal: 1, Workers: 2, Queue: 1,
		}
	}},
	{name: "traffic-burst-seed7", eventCap: 512, serveCfg: func() serve.SoakConfig { return burstSoak(7) }},
	{name: "mesh-vertical", clusterCfg: func() cluster.SoakConfig {
		c := cluster.MeshGateConfig(42, true)
		c.VerticalAdaptive = &resilience.AIMDConfig{Start: 2, Max: 16}
		return c
	}},

	// Overload cells for the replay paths the cells above leave idle:
	// sheds, breaker trips, give-ups, boot-cost models in both arrival
	// processes, and a kill beyond the failover budget.
	{name: "soak-overload-cold", serveCfg: func() serve.SoakConfig {
		return serve.SoakConfig{
			Clients: 8, Requests: 6, Schemes: []string{"pacstack", "baseline"},
			Seed: 23, ChaosRate: 0.6, Workers: 1, Queue: 1, Retries: 2,
			BreakerThreshold: 2, BreakerCooldown: 20_000, BootModel: "cold",
		}
	}},
	{name: "traffic-static-cold", serveCfg: func() serve.SoakConfig {
		c := burstSoak(42)
		c.Traffic = trafficModel(traffic.BurstScenario(42), 6_000_000)
		c.Adaptive, c.BreakerThreshold, c.BootModel = nil, 2, "cold"
		c.ChaosRate, c.Heal = 0.5, 0
		return c
	}},
	{name: "traffic-forkserver-warm", serveCfg: func() serve.SoakConfig {
		return serve.SoakConfig{
			Seed: 3, Traffic: trafficModel(traffic.ForkServerScenario(3), 1_000_000),
			Workers: 4, ChaosRate: 0.1, Heal: 1, BootModel: "warm",
		}
	}},
	{name: "cluster-overload", clusterCfg: func() cluster.SoakConfig {
		return cluster.SoakConfig{
			SoakConfig: serve.SoakConfig{
				Clients: 8, Requests: 8, Schemes: []string{"pacstack", "pacstack-nomask"},
				Seed: 5, ChaosRate: 0.6, Workers: 1, Queue: 1, Retries: 2,
				BreakerThreshold: 2, BreakerCooldown: 20_000,
			},
			Backends: 3, Kills: []cluster.KillSpec{{At: 20_000, Backend: -1}, {At: 40_000, Backend: -1}},
		}
	}},
	// The open-loop replay's breaker path: chaos trips the backend
	// breakers, so attempts meet open breakers (denials) and half-open
	// ones (probe admissions).
	{name: "cluster-traffic-breaker", clusterCfg: func() cluster.SoakConfig {
		return cluster.SoakConfig{
			SoakConfig: serve.SoakConfig{
				Seed: 11, Traffic: trafficModel(traffic.Default(11), 2_000_000),
				ChaosRate: 0.6, Workers: 1, Queue: 1, Retries: 2,
				BreakerThreshold: 2, BreakerCooldown: 20_000,
			},
			Backends: 3,
		}
	}},
}

func soakChaos30() serve.SoakConfig {
	return serve.SoakConfig{
		Clients: 4, Requests: 8, Schemes: []string{"pacstack"},
		Seed: 17, ChaosRate: 0.3, Workers: 2, Queue: 2,
	}
}

// soakOutputs is what a cell pins: the -json report, the SLO report
// (traffic runs only) and the telemetry dump.
type soakOutputs struct {
	report, slo, dump []byte
}

// run executes the cell and checks the invariants every soak must
// hold: a graceful end, no silent corruption on a PACStack scheme, and
// for the cluster the failover acceptance criteria and a routed_total
// per backend equal to the report's routed count.
func (c soakCell) run(t *testing.T) soakOutputs {
	t.Helper()
	tel := telemetry.New(telemetry.Options{EventCap: c.eventCap})
	var rep any
	var slo *traffic.SLOReport
	if c.serveCfg != nil {
		cfg := c.serveCfg()
		cfg.Telemetry = tel
		r, err := serve.Soak(context.Background(), cfg)
		if err != nil {
			t.Fatal(err)
		}
		if !r.Graceful() {
			t.Errorf("not graceful: issued %d, in flight %d", r.Issued, r.InFlightAtEnd)
		}
		for _, row := range r.PerScheme {
			if row.Silent > 0 && strings.HasPrefix(row.Scheme, "pacstack") {
				t.Errorf("%d silent corruption(s) under %s", row.Silent, row.Scheme)
			}
		}
		rep, slo = r, r.SLO
	} else {
		cfg := c.clusterCfg()
		cfg.Telemetry = tel
		r, err := cluster.Soak(context.Background(), cfg)
		if err != nil {
			t.Fatal(err)
		}
		if err := r.Check(); err != nil {
			t.Error(err)
		}
		routed := map[string]uint64{}
		for _, f := range tel.Registry().Gather().Families {
			if f.Name == "pacstack_cluster_routed_total" {
				for _, s := range f.Series {
					routed[s.Labels[0].Value] = s.Value
				}
			}
		}
		for _, row := range r.PerBackend {
			if got := routed[fmt.Sprint(row.Backend)]; got != uint64(row.Routed) {
				t.Errorf("backend %d: pacstack_cluster_routed_total %d, report routed %d", row.Backend, got, row.Routed)
			}
		}
		rep, slo = r, r.SLO
	}
	var out soakOutputs
	var err error
	if out.report, err = json.MarshalIndent(rep, "", "  "); err != nil {
		t.Fatal(err)
	}
	out.report = append(out.report, '\n')
	if slo != nil {
		if out.slo, err = json.MarshalIndent(slo, "", "  "); err != nil {
			t.Fatal(err)
		}
		out.slo = append(out.slo, '\n')
	}
	var dump bytes.Buffer
	if err := tel.WriteJSON(&dump); err != nil {
		t.Fatal(err)
	}
	out.dump = dump.Bytes()
	return out
}

// TestSoakGoldens pins every cell's outputs against testdata/soak at
// precompute widths 1 and 8: a refactor of the replay must keep them
// byte-identical, and a deliberate behaviour change re-records them
// with -update. Every file there must belong to a cell, so a renamed
// or deleted cell cannot leave its stale pins behind.
func TestSoakGoldens(t *testing.T) {
	owned := map[string]bool{}
	for _, c := range soakCells {
		owned[c.name+".report.json"], owned[c.name+".telemetry.json"] = true, true
		if c.serveCfg != nil && c.serveCfg().Traffic != nil || c.clusterCfg != nil && c.clusterCfg().Traffic != nil {
			owned[c.name+".slo.json"] = true
		}
	}
	files, err := os.ReadDir(filepath.Join("testdata", "soak"))
	if err != nil {
		t.Fatal(err)
	}
	for _, f := range files {
		if !owned[f.Name()] {
			t.Errorf("testdata/soak/%s belongs to no cell", f.Name())
		}
	}

	for _, c := range soakCells {
		c := c
		t.Run(c.name, func(t *testing.T) {
			for _, width := range []int{1, 8} {
				restore := par.SetWorkers(width)
				out := c.run(t)
				restore()
				for _, f := range []struct {
					suffix string
					got    []byte
				}{{"report.json", out.report}, {"slo.json", out.slo}, {"telemetry.json", out.dump}} {
					path := filepath.Join("testdata", "soak", c.name+"."+f.suffix)
					if *update && width == 1 {
						writeGolden(t, path, f.got)
						continue
					}
					want, err := os.ReadFile(path)
					if os.IsNotExist(err) && f.got == nil {
						continue
					}
					if err != nil {
						t.Fatal(err)
					}
					if !bytes.Equal(want, f.got) {
						t.Errorf("width %d: %s differs from the golden:\n%s", width, path, lineDiff(want, f.got))
					}
				}
			}
		})
	}
}

// TestCrashMatrixGolden runs the default torn-write crash-matrix
// campaign (8 seeds from 1 under pacstack, 24 image-region samples,
// telemetry clock pinned to 0), holds it clean — no silent restore,
// replay divergence or recovery panic — and pins it against the bytes
// pacstack-snap -crash-matrix -json prints.
func TestCrashMatrixGolden(t *testing.T) {
	tel := telemetry.New(telemetry.Options{Clock: func() uint64 { return 0 }})
	rep, err := snap.RunMatrix(snap.MatrixConfig{
		Seeds: 8, BaseSeed: 1, Scheme: compile.SchemePACStack, ImageSamples: 24,
		Tel: snap.NewTelemetry(tel.Registry()),
	})
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Clean() {
		t.Errorf("campaign not clean: %+v", rep.Totals)
	}
	got, err := json.MarshalIndent(struct {
		*snap.MatrixReport
		Telemetry telemetry.Dump `json:"telemetry"`
	}{rep, tel.Dump()}, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	got = append(got, '\n')
	path := filepath.Join("testdata", "crash-matrix.json")
	if *update {
		writeGolden(t, path, got)
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(want, got) {
		t.Errorf("%s differs from the golden:\n%s", path, lineDiff(want, got))
	}
}

func writeGolden(t *testing.T, path string, data []byte) {
	t.Helper()
	if data == nil {
		if err := os.Remove(path); err != nil && !os.IsNotExist(err) {
			t.Fatal(err)
		}
		return
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
}

// lineDiff renders the first differing lines of want and got with a
// little context, enough to see which field moved.
func lineDiff(want, got []byte) string {
	w, g := strings.Split(string(want), "\n"), strings.Split(string(got), "\n")
	first := 0
	for first < len(w) && first < len(g) && w[first] == g[first] {
		first++
	}
	var b strings.Builder
	fmt.Fprintf(&b, "first difference at line %d (golden %d lines, got %d)\n", first+1, len(w), len(g))
	for i := max(0, first-3); i < first; i++ {
		fmt.Fprintf(&b, "  %s\n", w[i])
	}
	for i := first; i < min(len(w), first+8); i++ {
		fmt.Fprintf(&b, "- %s\n", w[i])
	}
	for i := first; i < min(len(g), first+8); i++ {
		fmt.Fprintf(&b, "+ %s\n", g[i])
	}
	return b.String()
}
