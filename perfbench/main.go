package main

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"sort"
)

// metric is one reported number with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the benchmark's final output line.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// env is one benchmark invocation: where the binaries are, where it
// may write, and the arguments it was given.
type env struct {
	bin     string // built binaries
	work    string // working directory of this run, removed at exit
	state   string // determinism records kept across runs of the same code
	traces  string // span files of traced runs
	seed    int64
	seconds int
	trace   bool
}

func main() {
	os.Exit(run())
}

func run() int {
	workload := flag.String("workload", "", "serve-chain, serve-spec or soak-chaos")
	seed := flag.Int64("seed", 1, "workload seed: the same seed gives the same inputs")
	seconds := flag.Int("seconds", 25, "size of the measured phase, in seconds of work on a 2-core host")
	trace := flag.Int("trace", 0, "0: end-to-end metrics; 1: per-layer metrics")
	flag.Parse()

	if *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(os.Stderr, "perfbench: --seconds must be >= 1 and --trace 0 or 1")
		return 2
	}
	wl, ok := workloads[*workload]
	if !ok {
		fmt.Fprintf(os.Stderr, "perfbench: unknown --workload %q (want %s)\n", *workload, workloadNames())
		return 2
	}
	root, err := os.Getwd()
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	build := filepath.Join(root, ".bench_build")
	e := &env{
		bin:     filepath.Join(build, "bin"),
		traces:  filepath.Join(build, "traces"),
		seed:    *seed,
		seconds: *seconds,
		trace:   *trace == 1,
	}
	for _, name := range []string{"pacstack-serve", "pacstack-soak", "pacstack-cluster"} {
		if _, err := os.Stat(filepath.Join(e.bin, name)); err != nil {
			fmt.Fprintf(os.Stderr, "perfbench: %s is not built (run perfbench/run.sh): %v\n", name, err)
			return 1
		}
	}
	id, err := codeID(e.bin)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	fmt.Printf("code under test: %s\n", id)
	e.state = filepath.Join(build, "determinism", id)
	if err := os.MkdirAll(filepath.Join(build, "tmp"), 0o755); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	e.work, err = os.MkdirTemp(filepath.Join(build, "tmp"), *workload+"-")
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	defer os.RemoveAll(e.work)

	res, err := wl(e)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	printMetrics(res)
	for name, m := range res.Metrics {
		if math.IsNaN(m.Value) || math.IsInf(m.Value, 0) {
			fmt.Fprintf(os.Stderr, "perfbench: %s was not measured (%v)\n", name, m.Value)
			return 1
		}
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	fmt.Println(string(line))
	return 0
}

// workloads maps each --workload name to the function that runs it.
var workloads = map[string]func(*env) (*result, error){
	"serve-chain": func(e *env) (*result, error) { return runServe(e, chainWorkload()) },
	"serve-spec":  func(e *env) (*result, error) { return runServe(e, specWorkload()) },
	"soak-chaos":  runSoak,
}

func workloadNames() string {
	var names []string
	for n := range workloads {
		names = append(names, n)
	}
	sort.Strings(names)
	return fmt.Sprint(names)
}

// codeID identifies the code under test: a hash of the three built
// CLIs and of the benchmark's own binary. Determinism records are kept
// per code identity, so a run is compared only with earlier runs of the
// same code, never with records another build left in the checkout.
func codeID(bin string) (string, error) {
	self, err := os.Executable()
	if err != nil {
		return "", err
	}
	h := sha256.New()
	for _, path := range []string{
		filepath.Join(bin, "pacstack-serve"), filepath.Join(bin, "pacstack-soak"),
		filepath.Join(bin, "pacstack-cluster"), self,
	} {
		f, err := os.Open(path)
		if err != nil {
			return "", err
		}
		_, err = io.Copy(h, f)
		f.Close()
		if err != nil {
			return "", err
		}
	}
	return hex.EncodeToString(h.Sum(nil)[:8]), nil
}

// printMetrics writes one human-readable line per metric, by name and
// unit, ahead of the JSON line.
func printMetrics(res *result) {
	names := make([]string, 0, len(res.Metrics))
	for n := range res.Metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		m := res.Metrics[n]
		fmt.Printf("%-28s %14.6g %s\n", n, m.Value, m.Unit)
	}
	fmt.Printf("attempted %d, failed %d, correct %v\n", res.Attempted, res.Failed, res.Correct)
}

// repeats compares the seed-determined values of this run with the ones
// an earlier run of the same code and key stored, or stores them when no
// earlier run did, prints the outcome, and reports whether the values
// repeat.
func repeats(e *env, key string, values map[string]any) (bool, error) {
	if err := os.MkdirAll(e.state, 0o755); err != nil {
		return false, err
	}
	cur, err := json.Marshal(values)
	if err != nil {
		return false, err
	}
	path := filepath.Join(e.state, key+".json")
	prev, err := os.ReadFile(path)
	if errors.Is(err, os.ErrNotExist) {
		fmt.Printf("determinism %s: first run of this key, values recorded\n", key)
		tmp := path + ".tmp"
		if err := os.WriteFile(tmp, cur, 0o644); err != nil {
			return false, err
		}
		return true, os.Rename(tmp, path)
	}
	if err != nil {
		return false, err
	}
	var was, now map[string]any
	if err := json.Unmarshal(prev, &was); err != nil {
		return false, fmt.Errorf("determinism record %s: %w", path, err)
	}
	if err := json.Unmarshal(cur, &now); err != nil {
		return false, err
	}
	var diffs []string
	for k := range now {
		if fmt.Sprint(was[k]) != fmt.Sprint(now[k]) {
			diffs = append(diffs, fmt.Sprintf("%s: earlier run %v, this run %v", k, was[k], now[k]))
		}
	}
	for k := range was {
		if _, ok := now[k]; !ok {
			diffs = append(diffs, fmt.Sprintf("%s: earlier run %v, missing now", k, was[k]))
		}
	}
	if len(diffs) == 0 {
		fmt.Printf("determinism %s: seed-determined values repeat\n", key)
		return true, nil
	}
	sort.Strings(diffs)
	fmt.Printf("determinism %s: FAILED\n", key)
	for _, d := range diffs {
		fmt.Printf("  %s\n", d)
	}
	return false, nil
}
