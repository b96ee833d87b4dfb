// Package harness renders experiment results in the shape of the
// paper's tables and figures, so that cmd/pacstack-bench and
// cmd/pacstack-attack print directly comparable output and
// EXPERIMENTS.md can record paper-vs-measured side by side. It also
// renders the soak reports and writes the output that cmd/pacstack-soak
// and cmd/pacstack-cluster share (SoakOutput).
package harness

import (
	"fmt"
	"sort"
	"strings"

	"pacstack/internal/attack"
	"pacstack/internal/compile"
	"pacstack/internal/confirm"
	"pacstack/internal/stats"
	"pacstack/internal/workload"
)

// Table1 renders the Section 6.2 violation-probability grid.
func Table1(cells []attack.Table1Cell, bits int) string {
	var b strings.Builder
	fmt.Fprintf(&b, "Table 1: maximum success probability of call-stack integrity violations (b = %d)\n", bits)
	fmt.Fprintf(&b, "%-34s %-10s %-12s %-22s\n", "Violation type", "Masking", "Expected", "Measured [95% CI]")
	for _, c := range cells {
		mask := "no"
		if c.Masked {
			mask = "yes"
		}
		lo, hi := c.Measured.Wilson(1.96)
		fmt.Fprintf(&b, "%-34s %-10s %-12.3g %.3g [%.3g, %.3g]\n",
			c.Kind, mask, c.Expected, c.Measured.Rate(), lo, hi)
	}
	return b.String()
}

// Figure5 renders the per-benchmark overhead grid.
func Figure5(results []workload.Result) string {
	type key struct {
		bench  string
		scheme compile.Scheme
	}
	byKey := map[key]float64{}
	var benches []workload.Benchmark
	seen := map[string]bool{}
	for _, r := range results {
		byKey[key{r.Benchmark.Name, r.Scheme}] = r.Overhead
		if !seen[r.Benchmark.Name] {
			seen[r.Benchmark.Name] = true
			benches = append(benches, r.Benchmark)
		}
	}
	schemes := []compile.Scheme{
		compile.SchemeCanary, compile.SchemeBranchProtection, compile.SchemeShadowStack,
		compile.SchemePACStackNoMask, compile.SchemePACStack,
	}
	var b strings.Builder
	b.WriteString("Figure 5: run-time overhead relative to the uninstrumented baseline (%)\n")
	fmt.Fprintf(&b, "%-18s %5s", "benchmark", "lang")
	for _, s := range schemes {
		fmt.Fprintf(&b, " %12s", shortScheme(s))
	}
	b.WriteString("\n")
	for _, bench := range benches {
		fmt.Fprintf(&b, "%-18s %5s", bench.Name, bench.Lang)
		for _, s := range schemes {
			fmt.Fprintf(&b, " %11.2f%%", 100*byKey[key{bench.Name, s}])
		}
		b.WriteString("\n")
	}
	return b.String()
}

func shortScheme(s compile.Scheme) string {
	switch s {
	case compile.SchemeCanary:
		return "canary"
	case compile.SchemeBranchProtection:
		return "branch-prot"
	case compile.SchemeShadowStack:
		return "shadowstack"
	case compile.SchemePACStackNoMask:
		return "pacs-nomask"
	case compile.SchemePACStack:
		return "pacstack"
	}
	return s.String()
}

// paperTable2 holds the published geometric means for side-by-side
// printing.
var paperTable2 = map[compile.Scheme]map[workload.Suite]float64{
	compile.SchemePACStack:         {workload.SPECrate: 0.0275, workload.SPECspeed: 0.0328},
	compile.SchemePACStackNoMask:   {workload.SPECrate: 0.0086, workload.SPECspeed: 0.0156},
	compile.SchemeShadowStack:      {workload.SPECrate: 0.0085, workload.SPECspeed: 0.0077},
	compile.SchemeBranchProtection: {workload.SPECrate: 0.0043, workload.SPECspeed: 0.0072},
	compile.SchemeCanary:           {workload.SPECrate: 0.0043, workload.SPECspeed: 0.0025},
}

// Table2 renders the geometric-mean aggregation next to the paper's
// published numbers.
func Table2(t2 map[compile.Scheme]map[workload.Suite]float64) string {
	var b strings.Builder
	b.WriteString("Table 2: geometric mean of measured overheads (paper values in parentheses)\n")
	fmt.Fprintf(&b, "%-26s %22s %22s\n", "", "SPECrate", "SPECspeed")
	order := []compile.Scheme{
		compile.SchemePACStack, compile.SchemePACStackNoMask, compile.SchemeShadowStack,
		compile.SchemeBranchProtection, compile.SchemeCanary,
	}
	for _, s := range order {
		m, ok := t2[s]
		if !ok {
			continue
		}
		p := paperTable2[s]
		fmt.Fprintf(&b, "%-26s %8.2f%% (%5.2f%%) %13.2f%% (%5.2f%%)\n",
			s,
			100*m[workload.SPECrate], 100*p[workload.SPECrate],
			100*m[workload.SPECspeed], 100*p[workload.SPECspeed])
	}
	return b.String()
}

// paperTable3 holds the published req/s figures.
var paperTable3 = map[[2]int]float64{
	{4, int(compile.SchemeNone)}:           14200,
	{4, int(compile.SchemePACStackNoMask)}: 13700,
	{4, int(compile.SchemePACStack)}:       13500,
	{8, int(compile.SchemeNone)}:           30700,
	{8, int(compile.SchemePACStackNoMask)}: 28600,
	{8, int(compile.SchemePACStack)}:       27200,
}

// Table3 renders the NGINX SSL TPS comparison.
func Table3(rows []workload.NginxResult) string {
	var b strings.Builder
	b.WriteString("Table 3: NGINX SSL transactions per second (paper values in parentheses)\n")
	fmt.Fprintf(&b, "%-10s %-26s %14s %14s %10s\n",
		"workers", "configuration", "req/s", "paper req/s", "overhead")
	for _, r := range rows {
		paper := paperTable3[[2]int{r.Workers, int(r.Scheme)}]
		fmt.Fprintf(&b, "%-10d %-26s %14.0f %14.0f %9.1f%%\n",
			r.Workers, r.Scheme, r.RequestsPerSec, paper, 100*r.OverheadVsBase)
	}
	return b.String()
}

// Reuse renders the Section 6.1 reuse-attack matrix.
func Reuse(results []attack.ReuseResult) string {
	var b strings.Builder
	b.WriteString("Section 6.1: SP-modifier reuse attack (Listing 6)\n")
	for _, r := range results {
		fmt.Fprintf(&b, "  %s\n", r)
	}
	return b.String()
}

// Birthday renders the harvest experiment.
func Birthday(res attack.BirthdayResult) string {
	var b strings.Builder
	fmt.Fprintf(&b, "Section 6.2.1: token harvesting until collision (b = %d, %d trials)\n",
		res.Bits, res.Trials)
	fmt.Fprintf(&b, "  expected draws (sqrt(pi*2^b/2)): %8.1f\n", res.ExpectedDraws)
	fmt.Fprintf(&b, "  measured mean draws:             %8.1f\n", res.MeanDraws)
	fmt.Fprintf(&b, "  P[collision within expectation]: %s\n", res.CollisionProbAt)
	return b.String()
}

// BruteForce renders the Section 4.3 guessing comparison.
func BruteForce(results []attack.BruteForceResult) string {
	var b strings.Builder
	b.WriteString("Section 4.3: brute-force guessing cost (guesses to land an arbitrary jump)\n")
	fmt.Fprintf(&b, "%-44s %6s %12s %12s\n", "victim configuration", "b", "expected", "measured")
	for _, r := range results {
		fmt.Fprintf(&b, "%-44s %6d %12.0f %12.1f\n",
			r.Strategy, r.Bits, r.ExpectedGuesses, r.MeanGuesses)
	}
	return b.String()
}

// Confirm renders the compatibility matrix.
func Confirm(results []confirm.Result) string {
	tests := map[string]map[compile.Scheme]bool{}
	var names []string
	for _, r := range results {
		if tests[r.Test] == nil {
			tests[r.Test] = map[compile.Scheme]bool{}
			names = append(names, r.Test)
		}
		tests[r.Test][r.Scheme] = r.Pass
	}
	sort.Strings(names)
	var b strings.Builder
	b.WriteString("Section 7.3: ConFIRM compatibility suite\n")
	fmt.Fprintf(&b, "%-24s", "test")
	for _, s := range compile.Schemes {
		fmt.Fprintf(&b, " %12s", shortSchemeAll(s))
	}
	b.WriteString("\n")
	for _, n := range names {
		fmt.Fprintf(&b, "%-24s", n)
		for _, s := range compile.Schemes {
			mark := "FAIL"
			if tests[n][s] {
				mark = "pass"
			}
			fmt.Fprintf(&b, " %12s", mark)
		}
		b.WriteString("\n")
	}
	return b.String()
}

func shortSchemeAll(s compile.Scheme) string {
	if s == compile.SchemeNone {
		return "baseline"
	}
	return shortScheme(s)
}

// Ablation renders the masked-collision modelling note measurement.
func Ablation(res stats.Binomial, bits, harvest int) string {
	var b strings.Builder
	b.WriteString("Modelling note: literal Listing 3 semantics vs. the Appendix A model\n")
	fmt.Fprintf(&b, "  visible masked-token collision exploitation (b=%d, %d harvested): %s\n",
		bits, harvest, res)
	b.WriteString("  (the formal model bounds the masked on-graph attack at 2^-b; see DESIGN.md)\n")
	return b.String()
}
