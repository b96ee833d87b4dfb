// Package supervise is a crash-recovery supervisor over
// kernel.Process: it reboots a victim program after each kill,
// subject to a restart policy, and keeps the structured post-mortems
// of every attempt.
//
// The supervisor exists because the paper's brute-force analysis
// (Section 4.3) is an argument about *restarting* victims: what an
// attacker can learn across crashes depends entirely on how the
// service comes back. An exec-style respawn draws fresh PA keys, so
// every crash resets the guessing game (~2^2b expected guesses); a
// fork-style respawn from a pre-forked template shares the parent's
// keys, so information survives crashes and guessing drops toward
// ~2^b. Both policies are offered here, together with the two things
// any real init system adds: a restart budget with exponential
// backoff (in simulated cycles — downtime the attacker pays for), and
// a per-attempt instruction watchdog that turns hangs into kills.
package supervise

import (
	"context"
	"errors"
	"fmt"

	"pacstack/internal/compile"
	"pacstack/internal/cpu"
	"pacstack/internal/kernel"
	"pacstack/internal/snap"
	"pacstack/internal/telemetry"
)

// Respawn selects how a killed victim comes back.
type Respawn int

const (
	// RespawnExec boots a fresh image for every attempt: fresh
	// address space, fresh canary, and — decisive for Section 4.3 —
	// fresh PA keys.
	RespawnExec Respawn = iota
	// RespawnFork clones each attempt from a pristine, never-run
	// template process booted once at supervisor creation: cloned
	// memory, but the *same* PA keys across all attempts, the
	// pre-forked worker model of Section 4.3.
	RespawnFork
)

// String names the respawn policy.
func (r Respawn) String() string {
	switch r {
	case RespawnExec:
		return "exec (fresh keys)"
	case RespawnFork:
		return "fork (shared keys)"
	}
	return fmt.Sprintf("Respawn(%d)", int(r))
}

// Policy is the restart policy.
type Policy struct {
	Respawn Respawn
	// MaxRestarts bounds how many times a killed victim is restarted;
	// the supervisor runs at most MaxRestarts+1 attempts.
	MaxRestarts int
	// BackoffBase is the simulated-cycle delay before the first
	// restart; each further restart doubles it, up to BackoffCap.
	// Zero means no backoff.
	BackoffBase uint64
	BackoffCap  uint64
	// Budget is the per-attempt instruction watchdog; a run that
	// exhausts it is killed and counts as a crash. Zero means a
	// default of 1<<20 instructions.
	Budget uint64
}

func (pol Policy) backoff(restart int) uint64 {
	if pol.BackoffBase == 0 {
		return 0
	}
	d := pol.BackoffBase
	for i := 0; i < restart && d < pol.BackoffCap; i++ {
		if d >= 1<<63 {
			// Doubling again would shift the top bit out and wrap the
			// delay back toward zero; saturate at the cap instead. A
			// restart count past 63 must never yield a shorter delay
			// than restart 63 did — the attacker would love free
			// incarnations late in a brute-force campaign.
			d = pol.BackoffCap
			break
		}
		d <<= 1
	}
	if pol.BackoffCap != 0 && d > pol.BackoffCap {
		d = pol.BackoffCap
	}
	return d
}

// Attempt is the record of one victim run.
type Attempt struct {
	N        int    // attempt number, 0-based
	Backoff  uint64 // simulated cycles waited before this attempt
	Err      error  // nil on clean exit
	Kill     *kernel.KillInfo
	ExitCode uint64
	Output   []byte
	// Restored reports that this attempt warm-restored from a
	// checkpoint instead of cold-booting.
	Restored bool
}

// ErrRestartsExhausted reports that the victim kept crashing past the
// policy's restart budget.
var ErrRestartsExhausted = errors.New("supervise: restart budget exhausted")

// Supervisor restarts one victim image under a policy.
type Supervisor struct {
	Img    *compile.Image
	Kernel *kernel.Kernel
	Policy Policy

	// Configure, when non-nil, runs on every freshly created process
	// before anything executes — the place to switch on sigreturn
	// hardening or scheme-specific process state. Under RespawnFork it
	// runs once, on the template, and forked attempts inherit.
	Configure func(p *kernel.Process)

	// Boot, when non-nil, replaces the RespawnExec cold boot: the
	// warm-pool serving layer plugs in a snapshot-fork reset here
	// (restore a pooled machine from the boot image, reseed PA keys,
	// refresh the canary). The hook must return a process that is
	// already configured/hardened — Configure is NOT called on it, the
	// restored checkpoint carries the hardened state. To preserve
	// §4.3 exec-respawn semantics the hook must draw exactly what a
	// cold boot draws from the kernel entropy pool (one key set, one
	// canary word), in that order; the pool's Reset does.
	Boot func() (*kernel.Process, error)

	// Snapshots, when non-nil, enables crash-consistent
	// checkpoint/restore: each attempt first tries to warm-restore the
	// newest valid snapshot and only cold-boots (per the respawn
	// policy) when the store is empty or damaged beyond recovery; a
	// failed restore falls back to a cold boot *within the same
	// attempt*, so recovery trouble never double-charges the restart
	// budget. Note the Section 4.3 consequence: a warm restore resumes
	// the same incarnation — same PA keys — so, unlike RespawnExec, it
	// does not reset an attacker's guessing game. The checkpoint
	// cadence decides that trade.
	Snapshots *snap.Store
	// CheckpointEvery commits a snapshot every so many executed
	// instructions while an attempt runs. Zero disables periodic
	// checkpointing (the store is then only read, never written).
	CheckpointEvery uint64

	// Attempts is the post-mortem log, one entry per run.
	Attempts []Attempt
	// Downtime is the total simulated backoff the restarts cost.
	Downtime uint64

	// Checkpoint/restore counters.
	Restores         int // attempts that warm-restored from a snapshot
	RestoreFallbacks int // restores that failed and fell back to a cold boot
	Commits          int // snapshots durably committed
	CommitErrs       int // commit attempts that failed (torn, IO error)
	// LastRecovery is the report of the most recent recovery pass,
	// successful or not.
	LastRecovery *snap.RecoveryReport

	// Tel, when non-nil, mirrors every counter bump above into shared
	// registry handles. The int fields stay authoritative for callers
	// and tests; the mirror is what /metrics exposes.
	Tel *Telemetry

	template *kernel.Process // pristine never-run boot (RespawnFork)
}

// Telemetry is the supervisor's registry mirror: pre-resolved handles
// incremented alongside the exported int counters. All fields are
// optional and nil-safe.
type Telemetry struct {
	Restarts         *telemetry.Counter // attempts beyond the first
	Restores         *telemetry.Counter // warm restores from a snapshot
	RestoreFallbacks *telemetry.Counter // failed restores that cold-booted
	ColdBoots        *telemetry.Counter // attempts that cold-booted
	Commits          *telemetry.Counter // snapshots durably committed
	CommitErrs       *telemetry.Counter // failed commit attempts
	Downtime         *telemetry.Counter // cumulative backoff cycles
	Events           *telemetry.EventLog
}

// New returns a supervisor for the image under the kernel and policy.
func New(img *compile.Image, k *kernel.Kernel, pol Policy) *Supervisor {
	return &Supervisor{Img: img, Kernel: k, Policy: pol}
}

// next creates the process for one attempt: warm restore from the
// snapshot store when one is configured and holds a valid snapshot,
// otherwise a cold boot per the respawn policy. The restored flag
// reports which path was taken.
func (s *Supervisor) next() (p *kernel.Process, restored bool, err error) {
	if s.Snapshots != nil {
		// The disk outlives the machine: revive crashed simulated
		// storage before reading it, exactly as a reboot would.
		s.Snapshots.Heal()
		rp, rep, rerr := snap.RestoreProcess(s.Snapshots, s.Img, s.Kernel)
		s.LastRecovery = rep
		if rerr == nil {
			s.Restores++
			if s.Tel != nil {
				s.Tel.Restores.Inc()
				s.Tel.Events.Record(telemetry.EvRestore, "warm", "", uint64(s.Restores))
			}
			if s.Configure != nil {
				s.Configure(rp)
			}
			return rp, true, nil
		}
		if !errors.Is(rerr, snap.ErrNoSnapshot) {
			// The store had snapshots but none survived classification
			// (or the image did not match the program). Detected, counted
			// — and the cold boot below happens in this same cycle, so
			// the failure costs no extra restart budget.
			s.RestoreFallbacks++
			if s.Tel != nil {
				s.Tel.RestoreFallbacks.Inc()
			}
		}
	}
	p, err = s.coldBoot()
	if err == nil && s.Tel != nil {
		s.Tel.ColdBoots.Inc()
		s.Tel.Events.Record(telemetry.EvRestore, "cold", "", 0)
	}
	return p, false, err
}

// coldBoot creates a fresh process per the respawn policy.
func (s *Supervisor) coldBoot() (*kernel.Process, error) {
	switch s.Policy.Respawn {
	case RespawnFork:
		if s.template == nil {
			tpl, err := s.Img.Boot(s.Kernel)
			if err != nil {
				return nil, err
			}
			if s.Configure != nil {
				s.Configure(tpl)
			}
			s.template = tpl
		}
		// The template has never executed an instruction; the fork is
		// a byte-identical pristine victim with the template's keys.
		return s.template.Fork(s.template.Tasks[0]), nil
	default:
		if s.Boot != nil {
			return s.Boot()
		}
		p, err := s.Img.Boot(s.Kernel)
		if err != nil {
			return nil, err
		}
		if s.Configure != nil {
			s.Configure(p)
		}
		return p, nil
	}
}

// Run supervises the victim until one attempt exits cleanly or the
// restart budget runs out. Before each attempt executes, mutate (when
// non-nil) may corrupt the pristine process — install step hooks,
// poke memory — modelling the attacker's interference with that
// incarnation. Run returns the final attempt's process; the error is
// nil on clean exit and wraps ErrRestartsExhausted otherwise. Every
// attempt, successful or not, is appended to s.Attempts.
func (s *Supervisor) Run(mutate func(attempt int, p *kernel.Process)) (*kernel.Process, error) {
	return s.RunCtx(context.Background(), mutate)
}

// RunCtx is Run under a context: each attempt executes with
// kernel.Process.RunCtx, and a cancelled context ends the supervision
// loop after the in-flight attempt instead of burning the remaining
// restart budget. The cancelled attempt is still logged to s.Attempts;
// the returned error wraps kernel.ErrCancelled (not
// ErrRestartsExhausted — cancellation is the caller's deadline, not a
// crash verdict).
func (s *Supervisor) RunCtx(ctx context.Context, mutate func(attempt int, p *kernel.Process)) (*kernel.Process, error) {
	budget := s.Policy.Budget
	if budget == 0 {
		budget = 1 << 20
	}
	var p *kernel.Process
	var lastErr error
	for n := 0; n <= s.Policy.MaxRestarts; n++ {
		var backoff uint64
		if n > 0 {
			backoff = s.Policy.backoff(n - 1)
			s.Downtime += backoff
			if s.Tel != nil {
				s.Tel.Restarts.Inc()
				s.Tel.Downtime.Add(backoff)
			}
		}
		var err error
		var restored bool
		p, restored, err = s.next()
		if err != nil {
			return nil, err
		}
		if mutate != nil {
			mutate(n, p)
		}
		runErr := s.runAttempt(ctx, p, budget)
		if runErr != nil && p.Kill == nil && !errors.Is(runErr, kernel.ErrCancelled) {
			// The watchdog (or another budget-style kill) fired without
			// a machine fault; synthesize the post-mortem the kernel
			// would have had no chance to file.
			t := p.Tasks[0]
			sym, _ := p.Prog.SymbolFor(t.M.PC)
			p.Kill = &kernel.KillInfo{TaskID: t.ID, PC: t.M.PC, Symbol: sym, Cause: runErr}
		}
		s.Attempts = append(s.Attempts, Attempt{
			N:        n,
			Backoff:  backoff,
			Err:      runErr,
			Kill:     p.Kill,
			ExitCode: p.ExitCode,
			Output:   append([]byte(nil), p.Output...),
			Restored: restored,
		})
		if runErr == nil {
			return p, nil
		}
		if errors.Is(runErr, kernel.ErrCancelled) {
			return p, runErr
		}
		lastErr = runErr
	}
	return p, fmt.Errorf("%w after %d attempts: %w", ErrRestartsExhausted, len(s.Attempts), lastErr)
}

// runAttempt executes one attempt, committing a snapshot at every
// CheckpointEvery-instruction slice boundary while the process is
// still healthy. Nothing is ever committed after a fault: a killed
// incarnation's state is exactly what an attacker just corrupted, and
// persisting it would launder the corruption through the store.
//
// A commit that dies with the storage (snap.ErrCrashed) ends the
// attempt — the simulated machine crashed mid-checkpoint — and the
// supervision loop's next cycle heals the disk and recovers. Other
// commit errors are counted and the attempt keeps running;
// checkpointing is best-effort, crashing the service over a full disk
// would invert the availability story.
func (s *Supervisor) runAttempt(ctx context.Context, p *kernel.Process, budget uint64) error {
	if s.Snapshots == nil || s.CheckpointEvery == 0 {
		return p.RunCtx(ctx, budget)
	}
	var executed uint64
	for {
		slice := s.CheckpointEvery
		if rem := budget - executed; rem < slice {
			slice = rem
		}
		if slice == 0 {
			return cpu.ErrStepLimit // the watchdog, at slice granularity
		}
		before := instrs(p)
		err := p.RunCtx(ctx, slice)
		executed += instrs(p) - before
		if err == nil {
			return nil
		}
		if !errors.Is(err, cpu.ErrStepLimit) {
			return err
		}
		if executed >= budget {
			return cpu.ErrStepLimit
		}
		if _, cerr := s.Snapshots.CommitProcess(p, s.Img); cerr != nil {
			s.CommitErrs++
			if s.Tel != nil {
				s.Tel.CommitErrs.Inc()
				s.Tel.Events.Record(telemetry.EvTornCommit, "", cerr.Error(), 0)
			}
			if errors.Is(cerr, snap.ErrCrashed) {
				return fmt.Errorf("machine died mid-checkpoint: %w", cerr)
			}
			continue
		}
		s.Commits++
		if s.Tel != nil {
			s.Tel.Commits.Inc()
			s.Tel.Events.Record(telemetry.EvCommit, "", "", uint64(s.Commits))
		}
	}
}

// instrs sums retired instructions across the process's tasks.
func instrs(p *kernel.Process) uint64 {
	var n uint64
	for _, t := range p.Tasks {
		n += t.M.Instrs
	}
	return n
}

// Crashes counts the attempts that did not exit cleanly.
func (s *Supervisor) Crashes() int {
	n := 0
	for _, a := range s.Attempts {
		if a.Err != nil {
			n++
		}
	}
	return n
}

// WatchdogKills counts attempts the instruction watchdog ended.
func (s *Supervisor) WatchdogKills() int {
	n := 0
	for _, a := range s.Attempts {
		if errors.Is(a.Err, cpu.ErrStepLimit) {
			n++
		}
	}
	return n
}

// SharedKeys reports whether two attempt processes hold the same PA
// keys: true under fork respawn, false under exec respawn. The kernel
// compares the key registers exactly.
func SharedKeys(a, b *kernel.Process) bool { return a.SharesKeys(b) }

// StackTop is a convenience for mutate callbacks that need the
// victim's initial SP.
func (s *Supervisor) StackTop() uint64 { return s.Img.Layout.StackTop() }
