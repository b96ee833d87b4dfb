package harness

import (
	"strings"
	"testing"

	"pacstack/internal/attack"
	"pacstack/internal/compile"
	"pacstack/internal/confirm"
	"pacstack/internal/fault"
	"pacstack/internal/stats"
	"pacstack/internal/supervise"
	"pacstack/internal/workload"
)

func TestTable1Render(t *testing.T) {
	cells := []attack.Table1Cell{
		{Kind: attack.OnGraph, Masked: false, Expected: 1,
			Measured: stats.Binomial{Successes: 99, Trials: 100}},
		{Kind: attack.OnGraph, Masked: true, Expected: 0.0039,
			Measured: stats.Binomial{Successes: 1, Trials: 100}},
	}
	out := Table1(cells, 8)
	for _, want := range []string{"Table 1", "Measured [95% CI]", "on-graph", "yes", "no", "0.99"} {
		if !strings.Contains(out, want) {
			t.Errorf("missing %q in:\n%s", want, out)
		}
	}
}

func TestFigure5AndTable2Render(t *testing.T) {
	b := workload.SPEC[0]
	results := []workload.Result{
		{Benchmark: b, Scheme: compile.SchemePACStack, Overhead: 0.08},
		{Benchmark: b, Scheme: compile.SchemeCanary, Overhead: 0.004},
	}
	out := Figure5(results)
	if !strings.Contains(out, b.Name) || !strings.Contains(out, "8.00%") {
		t.Errorf("figure 5 render:\n%s", out)
	}
	t2 := map[compile.Scheme]map[workload.Suite]float64{
		compile.SchemePACStack: {workload.SPECrate: 0.028, workload.SPECspeed: 0.031},
	}
	out = Table2(t2)
	if !strings.Contains(out, "2.80%") || !strings.Contains(out, "2.75%") {
		t.Errorf("table 2 render:\n%s", out)
	}
}

func TestTable3Render(t *testing.T) {
	rows := []workload.NginxResult{
		{Scheme: compile.SchemeNone, Workers: 4, RequestsPerSec: 14100},
		{Scheme: compile.SchemePACStack, Workers: 4, RequestsPerSec: 13100, OverheadVsBase: 0.076},
	}
	out := Table3(rows)
	if !strings.Contains(out, "14100") || !strings.Contains(out, "14200") {
		t.Errorf("table 3 render:\n%s", out)
	}
}

func TestAttackRenders(t *testing.T) {
	if out := Reuse([]attack.ReuseResult{{Scheme: compile.SchemePACStack}}); !strings.Contains(out, "PACStack") {
		t.Error("reuse render")
	}
	res := attack.BirthdayResult{Bits: 16, ExpectedDraws: 320.9, MeanDraws: 318, Trials: 10}
	if out := Birthday(res); !strings.Contains(out, "320.9") {
		t.Error("birthday render")
	}
	bf := []attack.BruteForceResult{{Strategy: attack.ForkedSiblings, Bits: 6, ExpectedGuesses: 64, MeanGuesses: 66.1}}
	if out := BruteForce(bf); !strings.Contains(out, "66.1") {
		t.Error("bruteforce render")
	}
	if out := Ablation(stats.Binomial{Successes: 9, Trials: 10}, 8, 96); !strings.Contains(out, "Listing 3") {
		t.Error("ablation render")
	}
}

func TestConfirmRender(t *testing.T) {
	results := []confirm.Result{
		{Test: "tail-call", Scheme: compile.SchemeNone, Pass: true},
		{Test: "tail-call", Scheme: compile.SchemePACStack, Pass: true},
		{Test: "callback", Scheme: compile.SchemePACStack, Pass: false},
	}
	out := Confirm(results)
	if !strings.Contains(out, "tail-call") || !strings.Contains(out, "FAIL") || !strings.Contains(out, "pass") {
		t.Errorf("confirm render:\n%s", out)
	}
}

func TestDetectionCoverageRender(t *testing.T) {
	reports := []fault.Report{
		{Scheme: compile.SchemeNone, Kind: fault.KindRetAddr, Trials: 10, Detected: 2, Benign: 3, Silent: 5},
		{Scheme: compile.SchemePACStack, Kind: fault.KindRetAddr, Trials: 10, Detected: 9, Benign: 1,
			ByCause: func() (bc [fault.NumCauses]int) { bc[fault.CauseAuth] = 9; return }()},
	}
	out := DetectionCoverage(reports)
	for _, want := range []string{"return-address overwrite", "silent", "auth:9", "50.0%"} {
		if !strings.Contains(out, want) {
			t.Errorf("coverage table missing %q:\n%s", want, out)
		}
	}
}

func TestSupervisionRender(t *testing.T) {
	out := Supervision([]attack.SupervisedResult{{
		Respawn: supervise.RespawnFork, PACBits: 3, Attempts: 8,
		Crashes: 7, AuthKills: 7, Enumerated: true, Downtime: 1234,
	}})
	for _, want := range []string{"fork (shared keys)", "Section 4.3", "1234"} {
		if !strings.Contains(out, want) {
			t.Errorf("supervision table missing %q:\n%s", want, out)
		}
	}
}
