package harness

import (
	"encoding/json"
	"fmt"
	"log"
	"os"
	"strings"

	"pacstack/internal/serve"
	"pacstack/internal/telemetry"
	"pacstack/internal/traffic"
)

// Soak renders a chaos-soak report (internal/serve.Soak) as the
// deterministic end-of-run summary cmd/pacstack-soak prints. The text
// is a pure function of the report, so byte-identical reports render
// byte-identically.
func Soak(r *serve.SoakReport) string {
	var b strings.Builder
	if r.Traffic {
		b.WriteString("Traffic soak: seeded open-loop heavy-tail replay against the serving layer (internal/serve + internal/traffic)\n")
		fmt.Fprintf(&b, "seed %d | schemes %s | %d arrivals | chaos %.1f%% | heal %d\n",
			r.Seed, strings.Join(r.Schemes, ","), r.Issued, 100*r.ChaosRate, r.Heal)
	} else {
		b.WriteString("Chaos soak: seeded virtual-time traffic against the serving layer (internal/serve)\n")
		fmt.Fprintf(&b, "seed %d | workload %s | schemes %s | %d clients x %d requests | chaos %.1f%% | heal %d\n",
			r.Seed, r.Workload, strings.Join(r.Schemes, ","), r.Clients, r.PerClient, 100*r.ChaosRate, r.Heal)
	}

	schemeTable(&b, r.PerScheme, &r.Tally)
	faultLines(&b, &r.Tally)
	if len(r.BreakerOpens) > 0 {
		fmt.Fprintf(&b, "breaker opens: %s\n", counts(r.BreakerOpens))
	}

	fmt.Fprintf(&b, "virtual cycles %d | in flight at end %d\n", r.VirtualCycles, r.InFlightAtEnd)
	if r.BootModel != "" {
		fmt.Fprintf(&b, "boot model %s | %d.%03d requests/virtual-second\n",
			r.BootModel, r.RPVSMilli/1000, r.RPVSMilli%1000)
		if r.BootModel == "warm" {
			fmt.Fprintf(&b, "pool restores %d | cold fallbacks %d | key violations %d\n",
				r.PoolRestores, r.PoolColdFallbacks, r.PoolKeyViolations)
		}
	}
	if r.Graceful() {
		fmt.Fprintf(&b, "graceful: every request reached a terminal state (%d+%d+%d+%d = %d issued)\n",
			r.OK, r.Detected, r.Silent, r.GaveUp, r.Issued)
	} else {
		fmt.Fprintf(&b, "NOT GRACEFUL: ok+detected+silent+gave-up = %d of %d issued, %d in flight\n",
			r.OK+r.Detected+r.Silent+r.GaveUp, r.Issued, r.InFlightAtEnd)
	}
	b.WriteString(SLO(r.SLO))
	return b.String()
}

// SoakOutput is the output side that pacstack-soak and pacstack-cluster
// share: their -slo-report, -telemetry-dump, -json and -check flags,
// and the one path that writes a finished run.
type SoakOutput struct {
	SLOReport     string // the SLO evaluation as JSON goes here (traffic mode)
	TelemetryDump string // the run's telemetry as JSON goes here
	JSON          bool   // print the report as JSON instead of text
	Check         bool   // exit 1 unless the report's Check passes

	tel *telemetry.Set
}

// Telemetry returns the set the run records into: a fresh one when a
// telemetry dump is asked for, else nil.
func (o *SoakOutput) Telemetry() *telemetry.Set {
	if o.tel == nil && o.TelemetryDump != "" {
		o.tel = telemetry.New(telemetry.Options{})
	}
	return o.tel
}

// Write writes a finished run: the SLO evaluation and the telemetry
// dump to their files, then the report on stdout, as JSON or as text.
// It ends the process on failure, through the log package: any error
// is fatal, and with Check set a report that fails its check logs why,
// leaves the full report in a temp file named after cmd, and exits 1.
func (o *SoakOutput) Write(cmd string, rep interface{ Check() error }, slo *traffic.SLOReport, text string) {
	must := func(err error) {
		if err != nil {
			log.Fatal(err)
		}
	}
	if o.SLOReport != "" {
		if slo == nil {
			log.Fatal("-slo-report needs a traffic-mode run (-traffic)")
		}
		out, err := json.MarshalIndent(slo, "", "  ")
		must(err)
		must(os.WriteFile(o.SLOReport, append(out, '\n'), 0o644))
	}
	if o.TelemetryDump != "" {
		f, err := os.Create(o.TelemetryDump)
		must(err)
		must(o.tel.WriteJSON(f))
		must(f.Close())
	}
	if o.JSON {
		out, err := json.MarshalIndent(rep, "", "  ")
		must(err)
		fmt.Println(string(out))
	} else {
		fmt.Print(text)
	}
	if !o.Check {
		return
	}
	if err := rep.Check(); err != nil {
		log.Printf("CHECK FAILED: %v", err)
		// Leave the full report on disk so the failure can be diffed
		// against a known-good run.
		if f, err := os.CreateTemp("", cmd+"-failed-*.json"); err == nil {
			enc := json.NewEncoder(f)
			enc.SetIndent("", "  ")
			if enc.Encode(rep) == nil {
				log.Printf("failing report written to %s", f.Name())
			}
			f.Close()
		}
		os.Exit(1)
	}
}

// schemeTable renders the per-scheme outcome table with its totals
// row, as both soak reports print it.
func schemeTable(b *strings.Builder, rows []serve.SoakRow, t *serve.Tally) {
	fmt.Fprintf(b, "\n%-26s %9s %8s %8s %8s %8s %8s\n",
		"scheme", "requests", "ok", "healed", "detected", "silent", "gave-up")
	for _, row := range rows {
		fmt.Fprintf(b, "%-26s %9d %8d %8d %8d %8d %8d\n",
			row.Scheme, row.Requests, row.OK, row.Healed, row.Detected, row.Silent, row.GaveUp)
	}
	fmt.Fprintf(b, "%-26s %9d %8d %8d %8d %8d %8d\n",
		"total", t.Issued, t.OK, t.Healed, t.Detected, t.Silent, t.GaveUp)
}

// faultLines renders the fault, checkpoint and detection-cause lines
// of a soak's tally.
func faultLines(b *strings.Builder, t *serve.Tally) {
	fmt.Fprintf(b, "\ninjected faults %d | retries %d | sheds %d | breaker denied %d\n",
		t.Injected, t.Retries, t.Sheds, t.BreakerDenied)
	if t.Checkpoints > 0 || t.TornCommits > 0 || t.Restores > 0 {
		fmt.Fprintf(b, "checkpoints %d | warm restores %d | torn commits %d\n",
			t.Checkpoints, t.Restores, t.TornCommits)
	}
	if len(t.Causes) > 0 {
		fmt.Fprintf(b, "detections by cause: %s\n", counts(t.Causes))
	}
}

// counts joins name:count pairs with spaces.
func counts(cs []serve.SchemeCount) string {
	parts := make([]string, 0, len(cs))
	for _, c := range cs {
		parts = append(parts, fmt.Sprintf("%s:%d", c.Scheme, c.Count))
	}
	return strings.Join(parts, " ")
}
