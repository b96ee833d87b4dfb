package harness

import (
	"fmt"
	"strings"

	"pacstack/internal/cluster"
)

// ClusterSoak renders a cluster-soak report (internal/cluster.Soak) as
// the deterministic end-of-run summary cmd/pacstack-cluster prints.
// Like Soak, the text is a pure function of the report.
func ClusterSoak(r *cluster.ClusterReport) string {
	var b strings.Builder
	b.WriteString("Cluster soak: seeded virtual-time traffic against a multi-backend fleet (internal/cluster)\n")
	if r.Traffic {
		fmt.Fprintf(&b, "seed %d | workload %s | schemes %s | %d backends | traffic model (%d arrivals) | chaos %.1f%% | heal %d\n",
			r.Seed, r.Workload, strings.Join(r.Schemes, ","), r.Backends, r.Issued, 100*r.ChaosRate, r.Heal)
	} else {
		fmt.Fprintf(&b, "seed %d | workload %s | schemes %s | %d backends | %d clients x %d requests | chaos %.1f%% | heal %d\n",
			r.Seed, r.Workload, strings.Join(r.Schemes, ","), r.Backends, r.Clients, r.PerClient, 100*r.ChaosRate, r.Heal)
	}
	switch {
	case len(r.Kills) > 0:
		for _, k := range r.Kills {
			absorbed := "absorbed"
			if !k.Absorbed {
				absorbed = "NOT absorbed (budget exhausted)"
			}
			fmt.Fprintf(&b, "kill: backend %d at virtual cycle %d — %s | survivor %d | orphans %d | replayed %d | abandoned %d\n",
				k.Backend, k.At, absorbed, k.Survivor, k.Orphans, k.Replayed, k.Abandoned)
		}
	case r.KillAt > 0:
		fmt.Fprintf(&b, "kill: scheduled at virtual cycle %d (never fired)\n", r.KillAt)
	}

	fmt.Fprintf(&b, "\n%-10s %8s %8s %8s %8s %8s %8s %8s %8s %7s %7s %6s\n",
		"backend", "routed", "ok", "healed", "detected", "silent", "sheds", "denied", "replayed", "mig-in", "mig-out", "alive")
	for _, row := range r.PerBackend {
		alive := "yes"
		if !row.Alive {
			alive = "DEAD"
		}
		fmt.Fprintf(&b, "%-10d %8d %8d %8d %8d %8d %8d %8d %8d %7d %7d %6s\n",
			row.Backend, row.Routed, row.OK, row.Healed, row.Detected, row.Silent,
			row.Sheds, row.BreakerDenied, row.Replayed, row.MigratedIn, row.MigratedOut, alive)
	}

	fmt.Fprintf(&b, "\n%-26s %9s %8s %8s %8s %8s %8s\n",
		"scheme", "requests", "ok", "healed", "detected", "silent", "gave-up")
	for _, row := range r.PerScheme {
		fmt.Fprintf(&b, "%-26s %9d %8d %8d %8d %8d %8d\n",
			row.Scheme, row.Requests, row.OK, row.Healed, row.Detected, row.Silent, row.GaveUp)
	}
	fmt.Fprintf(&b, "%-26s %9d %8d %8d %8d %8d %8d\n",
		"total", r.Issued, r.OK, r.Healed, r.Detected, r.Silent, r.GaveUp)

	if r.Traffic {
		// The chaos-mesh resilience table: per-backend health as the
		// ejector saw it, plus the fleet-wide defense counters.
		fmt.Fprintf(&b, "\n%-10s %8s %9s %10s %12s %12s\n",
			"backend", "timeouts", "ejections", "last-cause", "cores", "service-p99")
		for _, row := range r.PerBackend {
			ejections, cause := 0, "-"
			if row.Ejection != nil {
				ejections, cause = row.Ejection.Ejections, row.Ejection.LastCause
			}
			cores := fmt.Sprint(row.Cores)
			if row.CoreStats != nil {
				cores = fmt.Sprintf("%d (%d..%d)", row.Cores, row.CoreStats.LimitMin, row.CoreStats.LimitMax)
			}
			fmt.Fprintf(&b, "%-10d %8d %9d %10s %12s %12d\n",
				row.Backend, row.Timeouts, ejections, cause, cores, row.ServiceP99)
		}
		fmt.Fprintf(&b, "\nhedges %d (won %d, key violations %d) | link drops %d | timeouts %d | no-backend %d\n",
			r.Hedges, r.HedgeWins, r.HedgeKeyViolations, r.LinkDrops, r.Timeouts, r.NoBackend)
		fmt.Fprintf(&b, "brownout: %d shed (max level %d) | ejections %d\n",
			r.BrownedOut, r.BrownoutMaxLevel, r.Ejections)
		if r.Budget != nil {
			fmt.Fprintf(&b, "retry budget: %d primaries, %d secondaries granted, %d denied (bound %d)\n",
				r.Budget.Primaries, r.Budget.Granted, r.Budget.Denied, r.BudgetBound)
		}
	}

	fmt.Fprintf(&b, "\ninjected faults %d | retries %d | sheds %d | breaker denied %d\n",
		r.Injected, r.Retries, r.Sheds, r.BreakerDenied)
	if r.Checkpoints > 0 || r.TornCommits > 0 || r.Restores > 0 {
		fmt.Fprintf(&b, "checkpoints %d | warm restores %d | torn commits %d\n",
			r.Checkpoints, r.Restores, r.TornCommits)
	}
	if len(r.Causes) > 0 {
		parts := make([]string, 0, len(r.Causes))
		for _, c := range r.Causes {
			parts = append(parts, fmt.Sprintf("%s:%d", c.Scheme, c.Count))
		}
		fmt.Fprintf(&b, "detections by cause: %s\n", strings.Join(parts, " "))
	}

	if r.KilledBackend >= 0 {
		fmt.Fprintf(&b, "\nfailover: orphans %d executing + %d queued | replayed %d | abandoned %d | budget charged %d\n",
			r.OrphansExecuting, r.OrphansQueued, r.Replayed, r.Abandoned, r.BudgetCharged)
		migs := r.Migrations
		if len(migs) == 0 && r.Migration != nil {
			migs = append(migs, r.Migration)
		}
		for _, m := range migs {
			fmt.Fprintf(&b, "migration: %d machine(s) backend %d -> %d, %d bytes shipped, shared-key violations %d\n",
				len(m.Machines), m.From, m.To, m.Bytes, m.SharedKeyViolations)
			for _, mm := range m.Machines {
				fmt.Fprintf(&b, "  %-16s seq %d -> %d | %5d bytes | keys re-seeded, shared=%v\n",
					mm.Scheme, mm.FromSeq, mm.ToSeq, mm.Bytes, mm.SharedKeys)
			}
		}
		if r.ReplayViolations > 0 {
			fmt.Fprintf(&b, "REPLAY VIOLATIONS: %d request(s) replayed more than once\n", r.ReplayViolations)
		}
	}

	if r.SLO != nil {
		b.WriteString(SLO(r.SLO))
	}

	fmt.Fprintf(&b, "\nvirtual cycles %d | in flight at end %d\n", r.VirtualCycles, r.InFlightAtEnd)
	if err := r.Check(); err == nil {
		fmt.Fprintf(&b, "graceful: every request reached a terminal state (%d+%d+%d+%d = %d issued), zero silent losses\n",
			r.OK, r.Detected, r.Silent, r.GaveUp, r.Issued)
	} else {
		fmt.Fprintf(&b, "FAILED: %v\n", err)
	}
	return b.String()
}
