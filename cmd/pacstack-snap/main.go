// Command pacstack-snap drives the crash-consistency experiments for
// the snapshot subsystem (internal/snap): for each seed it runs a
// PACStack victim, commits a checkpoint, then re-commits under a
// simulated power cut at every interesting byte offset of the commit
// protocol — the image-write region at its boundaries plus seeded
// samples, then every metadata step and journal-append offset
// exhaustively — plus seeded post-hoc bit rot, truncation and
// duplicate-rename faults. Recovery after each fault must restore
// exactly the previous or the new snapshot (never a torn hybrid),
// must report the damage whenever damage exists, and the restored
// machine must replay to a final state byte-identical to the
// uninterrupted run.
//
// The report is a pure function of the flags: run it twice and the
// output is byte-identical. The -json report embeds the campaign's
// telemetry dump (store commits, recoveries, anomaly tallies by kind)
// under a pinned clock, and TestCrashMatrixGolden (root package) pins
// the default campaign's -json bytes, telemetry included, against
// testdata/crash-matrix.json.
//
// Usage:
//
//	pacstack-snap -crash-matrix [-seeds N] [-base-seed N]
//	              [-scheme NAME] [-samples N] [-json]
//
// Exit status is non-zero unless the campaign is clean: zero silent
// corruptions, zero restore panics, zero replay divergences.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"log"
	"os"

	"pacstack/internal/harness"
	"pacstack/internal/serve"
	"pacstack/internal/snap"
	"pacstack/internal/telemetry"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("pacstack-snap: ")
	crashMatrix := flag.Bool("crash-matrix", false, "run the torn-write crash matrix")
	seeds := flag.Int("seeds", 8, "kernel seeds to sweep")
	baseSeed := flag.Int64("base-seed", 1, "first seed; seed i is base+i")
	scheme := flag.String("scheme", "pacstack", "protection scheme the victim is compiled under")
	samples := flag.Int("samples", 24, "seeded torn offsets inside the image-write region (its boundaries and everything after it are exhaustive)")
	asJSON := flag.Bool("json", false, "emit the report as JSON instead of the table")
	flag.Parse()

	if !*crashMatrix {
		log.Fatal("nothing to do: pass -crash-matrix (see -h)")
	}
	sc, err := serve.ParseScheme(*scheme)
	if err != nil {
		log.Fatal(err)
	}
	// The matrix has no timeline — pin the clock to zero so the
	// embedded telemetry dump is a pure function of the flags.
	tel := telemetry.New(telemetry.Options{Clock: func() uint64 { return 0 }})
	rep, err := snap.RunMatrix(snap.MatrixConfig{
		Seeds:        *seeds,
		BaseSeed:     *baseSeed,
		Scheme:       sc,
		ImageSamples: *samples,
		Tel:          snap.NewTelemetry(tel.Registry()),
	})
	if err != nil {
		log.Fatal(err)
	}

	if *asJSON {
		out, err := json.MarshalIndent(struct {
			*snap.MatrixReport
			Telemetry telemetry.Dump `json:"telemetry"`
		}{rep, tel.Dump()}, "", "  ")
		if err != nil {
			log.Fatal(err)
		}
		fmt.Println(string(out))
	} else {
		fmt.Print(harness.CrashMatrix(rep))
	}

	if !rep.Clean() {
		log.Printf("CHECK FAILED: silent=%d replay-mismatches=%d panics=%d",
			rep.Totals.Silent, rep.Totals.ReplayMismatches, rep.Totals.Panics)
		os.Exit(1)
	}
}
