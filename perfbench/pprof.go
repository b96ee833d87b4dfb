package main

import (
	"bytes"
	"errors"
	"fmt"
	"os"
	"os/exec"
	"strconv"
	"strings"
)

// selfByFunction runs go tool pprof on a CPU profile and returns, per
// function name, the nanoseconds of its flat (self) samples; an inlined
// function counts as its own.
func selfByFunction(e *env, profile string) (map[string]float64, error) {
	cmd := exec.Command("go", "tool", "pprof", "-top", "-nodecount=1000000", "-nodefraction=0",
		"-unit=ns", "-symbolize=none", profile)
	cmd.Dir = e.work
	cmd.Env = append(os.Environ(), "PPROF_TMPDIR="+e.work)
	var stdout, stderr bytes.Buffer
	cmd.Stdout, cmd.Stderr = &stdout, &stderr
	if err := cmd.Run(); err != nil {
		return nil, fmt.Errorf("go tool pprof: %w: %s", err, stderr.String())
	}
	return parseTop(stdout.Bytes())
}

// parseTop reads the table of go tool pprof -top -unit=ns: after the
// "flat flat% sum% cum cum%" header, one row per function with its
// flat time first and its name last.
func parseTop(out []byte) (map[string]float64, error) {
	self := map[string]float64{}
	table := false
	for _, line := range strings.Split(string(out), "\n") {
		f := strings.Fields(line)
		if !table {
			table = len(f) > 0 && f[0] == "flat"
			continue
		}
		if len(f) < 6 {
			continue
		}
		ns, err := strconv.ParseFloat(strings.TrimSuffix(f[0], "ns"), 64)
		if err != nil {
			return nil, fmt.Errorf("pprof row %q: %w", line, err)
		}
		self[strings.TrimSuffix(strings.Join(f[5:], " "), " (inline)")] += ns
	}
	if !table {
		return nil, errors.New("go tool pprof printed no -top table")
	}
	return self, nil
}

// soakModules are the packages soak.share.<module> reports, in the
// order they are reported; "runtime" is the Go runtime, GC included,
// and "other" the standard library and anything else.
var soakModules = []string{
	"cpu", "pa", "qarma", "kernel", "mem", "isa", "compile", "fault", "supervise", "snap",
	"pool", "serve", "cluster", "traffic", "mesh", "par", "resilience", "telemetry", "runtime", "other",
}

// moduleOf maps a fully qualified Go function name to its soak module.
func moduleOf(fn string) string {
	if rest, ok := strings.CutPrefix(fn, "pacstack/internal/"); ok {
		pkg := rest
		if i := strings.IndexAny(rest, "./"); i >= 0 {
			pkg = rest[:i]
		}
		for _, m := range soakModules {
			if m == pkg {
				return m
			}
		}
		return "other"
	}
	if strings.HasPrefix(fn, "runtime.") || strings.HasPrefix(fn, "runtime/") {
		return "runtime"
	}
	return "other"
}

// moduleShares folds per-function self time into each module's share
// of the profile's total.
func moduleShares(self map[string]float64) map[string]float64 {
	out := map[string]float64{}
	var total float64
	for fn, v := range self {
		out[moduleOf(fn)] += v
		total += v
	}
	for _, m := range soakModules {
		if total > 0 {
			out[m] /= total
		} else {
			out[m] = 0
		}
	}
	return out
}
