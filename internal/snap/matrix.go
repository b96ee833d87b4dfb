// The crash matrix: the experiment that earns the subsystem its
// keep. For each seed it runs a PACStack victim, commits a snapshot
// mid-run (A), then attempts a second commit (B) under a simulated
// crash at every interesting byte offset of the commit protocol —
// every journal-append offset exhaustively, the image-write region at
// its boundaries plus seeded samples, and every metadata step
// (fsync, rename, directory fsync) — plus seeded post-hoc bit rot,
// truncation and duplicate-rename faults. After each fault, recovery
// must restore either A or B (never a hybrid), must report the damage
// as detected whenever damage exists, and the restored machine must
// replay to a final state byte-identical to the uninterrupted run.
// The tallies mirror internal/fault's detected / benign / silent
// taxonomy; the acceptance bar is silent == 0 and panics == 0.

package snap

import (
	"bytes"
	"errors"
	"fmt"
	mrand "math/rand"
	"sort"

	"pacstack/internal/compile"
	"pacstack/internal/cpu"
	"pacstack/internal/fault"
	"pacstack/internal/ir"
	"pacstack/internal/kernel"
	"pacstack/internal/pa"
)

// MatrixConfig parameterizes one crash-matrix campaign. Zero values
// get defaults from Normalize.
type MatrixConfig struct {
	// Seeds is the number of kernel seeds; seed i is BaseSeed+i.
	Seeds    int
	BaseSeed int64
	// Scheme is the protection scheme the victim is compiled under.
	Scheme compile.Scheme
	// Prog overrides the built-in chain workload.
	Prog *ir.Program
	// ImageSamples is how many seeded torn offsets are tried inside
	// the image-write region, in addition to its boundaries. The
	// journal region and all metadata steps are covered exhaustively.
	ImageSamples int
	// RotFaults, TruncFaults, DupFaults are the per-seed counts of
	// post-hoc faults.
	RotFaults, TruncFaults, DupFaults int
	// Tel, when non-nil, is attached to every store the campaign
	// creates — golden commits, crashed commits, and every recovery
	// trial alike. The campaign is serial and fully seeded, so the
	// resulting counter values are deterministic for one config.
	Tel *Telemetry
}

// store builds a store over fs carrying the campaign's telemetry.
func (c MatrixConfig) store(fs FS) *Store {
	st := NewStore(fs)
	st.Tel = c.Tel
	return st
}

// Normalize fills defaults in place and returns the config.
func (c MatrixConfig) Normalize() MatrixConfig {
	if c.Seeds == 0 {
		c.Seeds = 8
	}
	if c.BaseSeed == 0 {
		c.BaseSeed = 1
	}
	if c.Scheme == compile.SchemeNone {
		c.Scheme = compile.SchemePACStack
	}
	if c.Prog == nil {
		c.Prog = matrixProgram()
	}
	if c.ImageSamples == 0 {
		c.ImageSamples = 24
	}
	if c.RotFaults == 0 {
		c.RotFaults = 8
	}
	if c.TruncFaults == 0 {
		c.TruncFaults = 8
	}
	if c.DupFaults == 0 {
		c.DupFaults = 4
	}
	return c
}

// FaultTally is one fault kind's outcome counts: Detected means
// recovery surfaced the damage, Benign means the crash left no
// inconsistency to find (it landed after full durability), Silent is
// the never-acceptable bucket — wrong state restored, damage missed,
// or a replay divergence.
type FaultTally struct {
	Runs     int `json:"runs"`
	Detected int `json:"detected"`
	Benign   int `json:"benign"`
	Silent   int `json:"silent"`
}

func (t *FaultTally) add(o trialOutcome) {
	t.Runs++
	switch {
	case o.silent:
		t.Silent++
	case o.detected:
		t.Detected++
	default:
		t.Benign++
	}
}

// MatrixRow is one seed's results.
type MatrixRow struct {
	Seed        int64      `json:"seed"`
	TotalInstrs uint64     `json:"total_instrs"`
	ImageBytes  int        `json:"image_bytes"`
	CommitCost  int64      `json:"commit_cost"`
	CrashPoints int        `json:"crash_points"`
	Torn        FaultTally `json:"torn_write"`
	BitRot      FaultTally `json:"bit_rot"`
	Truncate    FaultTally `json:"truncation"`
	DupRename   FaultTally `json:"duplicate_rename"`
	// RestoredPrev / RestoredNew count which side of the commit each
	// recovery landed on; their sum equals the non-silent runs.
	RestoredPrev     int `json:"restored_prev"`
	RestoredNew      int `json:"restored_new"`
	ReplayMismatches int `json:"replay_mismatches"`
	Panics           int `json:"panics"`
}

// MatrixTotals aggregates over all seeds.
type MatrixTotals struct {
	Runs             int `json:"runs"`
	Detected         int `json:"detected"`
	Benign           int `json:"benign"`
	Silent           int `json:"silent"`
	RestoredPrev     int `json:"restored_prev"`
	RestoredNew      int `json:"restored_new"`
	ReplayMismatches int `json:"replay_mismatches"`
	Panics           int `json:"panics"`
}

// MatrixReport is the deterministic campaign result: same config in,
// byte-identical JSON out.
type MatrixReport struct {
	Scheme   string       `json:"scheme"`
	Seeds    int          `json:"seeds"`
	BaseSeed int64        `json:"base_seed"`
	Rows     []MatrixRow  `json:"rows"`
	Totals   MatrixTotals `json:"totals"`
}

// Clean reports whether the campaign met the acceptance bar: zero
// silent corruptions, zero restore panics, zero replay divergences.
func (r *MatrixReport) Clean() bool {
	return r.Totals.Silent == 0 && r.Totals.Panics == 0 && r.Totals.ReplayMismatches == 0
}

// matrixProgram is the built-in victim: a call tree deep enough that
// the authenticated chain spans several frames at checkpoint time, an
// indirect call so forward-edge CFI is live state, and output so a
// replay divergence cannot hide.
func matrixProgram() *ir.Program {
	return &ir.Program{Entry: "main", Functions: []*ir.Function{
		{Name: "main", Locals: 2, Body: []ir.Op{
			ir.Write{Byte: '<'},
			ir.StoreLocal{Slot: 0, Value: 23},
			ir.Loop{Count: 8, Body: []ir.Op{
				ir.Call{Target: "work"},
				ir.CallPtr{Target: "helper"},
			}},
			ir.LoadLocal{Slot: 0},
			ir.Write{Byte: '>'},
		}},
		{Name: "work", Locals: 1, Body: []ir.Op{
			ir.StoreLocal{Slot: 0, Value: 9},
			ir.Compute{Units: 6},
			ir.Call{Target: "inner"},
			ir.LoadLocal{Slot: 0},
			ir.Write{Byte: 'w'},
		}},
		{Name: "inner", Locals: 1, Body: []ir.Op{
			ir.Compute{Units: 4},
			ir.Call{Target: "leaf"},
			ir.Write{Byte: 'i'},
		}},
		{Name: "helper", Body: []ir.Op{
			ir.Compute{Units: 3},
			ir.Call{Target: "leaf"},
			ir.Write{Byte: 'h'},
		}},
		{Name: "leaf", Body: []ir.Op{ir.Compute{Units: 2}}},
	}}
}

// matrixMix is splitmix64 over the campaign seed inputs, so every
// trial's rng stream is independent and reproducible.
func matrixMix(vs ...int64) int64 {
	x := uint64(0x9e3779b97f4a7c15)
	for _, v := range vs {
		x ^= uint64(v)
		x *= 0xbf58476d1ce4e5b9
		x ^= x >> 27
		x *= 0x94d049bb133111eb
		x ^= x >> 31
	}
	return int64(x >> 1)
}

const matrixRunBudget = 1 << 22

// seedRun holds one seed's golden lineage: the two mid-run snapshot
// images, the replay slicing that produced them, and the final-state
// image every replay must reproduce byte-for-byte.
type seedRun struct {
	imgA, imgB []byte
	sliceA     []uint64 // instruction slices remaining after checkpoint A
	sliceB     []uint64
	final      []byte
	total      uint64
}

func (c MatrixConfig) boot(img *compile.Image, seed int64) (*kernel.Process, error) {
	k := kernel.New(pa.DefaultConfig())
	k.Seed(seed)
	p, err := img.Boot(k)
	if err != nil {
		return nil, err
	}
	fault.Harden(c.Scheme, p)
	return p, nil
}

// goldenLineage runs the victim once to completion to learn its
// length, then reruns it checkpointing at one third and two thirds,
// recording the exact run slicing so replays schedule identically.
func (c MatrixConfig) goldenLineage(img *compile.Image, seed int64) (*seedRun, error) {
	probe, err := c.boot(img, seed)
	if err != nil {
		return nil, err
	}
	if err := probe.Run(matrixRunBudget); err != nil {
		return nil, fmt.Errorf("snap: matrix probe run: %w", err)
	}
	var total uint64
	for _, t := range probe.Tasks {
		total += t.M.Instrs
	}
	if total < 16 {
		return nil, fmt.Errorf("snap: matrix victim too short (%d instrs)", total)
	}
	n := total / 3

	p, err := c.boot(img, seed)
	if err != nil {
		return nil, err
	}
	run := &seedRun{total: total, sliceA: []uint64{n, matrixRunBudget}, sliceB: []uint64{matrixRunBudget}}
	if err := p.Run(n); !errors.Is(err, cpu.ErrStepLimit) {
		return nil, fmt.Errorf("snap: matrix slice 1: got %v, want step limit", err)
	}
	if run.imgA, err = Encode(p.Checkpoint(), img); err != nil {
		return nil, err
	}
	if err := p.Run(n); !errors.Is(err, cpu.ErrStepLimit) {
		return nil, fmt.Errorf("snap: matrix slice 2: got %v, want step limit", err)
	}
	if run.imgB, err = Encode(p.Checkpoint(), img); err != nil {
		return nil, err
	}
	if err := p.Run(matrixRunBudget); err != nil {
		return nil, fmt.Errorf("snap: matrix final slice: %w", err)
	}
	if run.final, err = Encode(p.Checkpoint(), img); err != nil {
		return nil, err
	}
	return run, nil
}

// trialOutcome classifies one recovery trial.
type trialOutcome struct {
	detected     bool
	silent       bool
	restoredPrev bool
	restoredNew  bool
	replayBad    bool
	panicked     bool
}

// recoverTrial runs recovery on fs after a fault and checks every
// invariant: a snapshot restores, it is exactly A or B, damage (when
// the restored state is not the newest commit, or any torn evidence
// exists) is detected, and the restored machine replays to the golden
// final state. Panics anywhere in recovery or replay are caught and
// counted — a corrupt image must fail-stop, never take the
// supervisor down with it.
func recoverTrial(fs *MemFS, img *compile.Image, c MatrixConfig, run *seedRun, seqA, seqB uint64) (out trialOutcome) {
	defer func() {
		if r := recover(); r != nil {
			out.panicked = true
			out.silent = true
		}
	}()
	fs.Heal()
	st := c.store(fs) // fresh store: the post-reboot view, no cached state
	cp, _, rep, err := st.Recover()
	if err != nil {
		// Snapshot A was durably committed before the fault; losing it
		// is silent data loss no matter what the report says.
		out.silent = true
		return out
	}
	out.detected = rep.Detected()
	switch rep.RestoredSeq {
	case seqA:
		out.restoredPrev = true
	case seqB:
		out.restoredNew = true
	default:
		out.silent = true
		return out
	}
	// Falling back to the previous snapshot without any detected
	// evidence would mean the new commit evaporated tracelessly.
	if out.restoredPrev && !out.detected {
		out.silent = true
		return out
	}

	// Replay: resurrect the restored checkpoint on a fresh boot and
	// run it to completion with the same slicing as the golden
	// lineage. The final encoded state must match byte-for-byte.
	p, err := c.boot(img, 0) // entropy is overwritten by Restore; seed irrelevant
	if err != nil {
		out.silent = true
		return out
	}
	if err := p.Restore(cp); err != nil {
		out.silent = true
		return out
	}
	slices := run.sliceB
	if out.restoredPrev {
		slices = run.sliceA
	}
	for i, s := range slices {
		err := p.Run(s)
		last := i == len(slices)-1
		if last && err != nil || !last && !errors.Is(err, cpu.ErrStepLimit) {
			out.silent = true
			out.replayBad = true
			return out
		}
	}
	got, err := Encode(p.Checkpoint(), img)
	if err != nil || !bytes.Equal(got, run.final) {
		out.silent = true
		out.replayBad = true
	}
	return out
}

// crashPoints enumerates the torn-write offsets to try for a commit
// of imgLen bytes and total cost units: the image-write region at its
// boundaries plus seeded samples, then everything after the image
// write — metadata steps and the journal append — exhaustively.
func crashPoints(imgLen int, cost int64, rng *mrand.Rand, samples int) []int64 {
	set := map[int64]bool{0: true, 1: true}
	if imgLen > 1 {
		set[int64(imgLen)-1] = true
		set[int64(imgLen)] = true
	}
	for i := 0; i < samples && imgLen > 2; i++ {
		set[1+rng.Int63n(int64(imgLen)-1)] = true
	}
	for k := int64(imgLen); k < cost; k++ {
		set[k] = true
	}
	var points []int64
	for k := range set {
		if k < cost { // k == cost means the commit completes untorn
			points = append(points, k)
		}
	}
	sort.Slice(points, func(i, j int) bool { return points[i] < points[j] })
	return points
}

// RunMatrix executes the campaign and returns its deterministic
// report. An error means the harness itself failed (compile or golden
// run), not that faults were found — fault results live in the
// report.
func RunMatrix(cfg MatrixConfig) (*MatrixReport, error) {
	cfg = cfg.Normalize()
	img, err := compile.Compile(cfg.Prog, cfg.Scheme, compile.DefaultLayout())
	if err != nil {
		return nil, err
	}
	rep := &MatrixReport{Scheme: cfg.Scheme.String(), Seeds: cfg.Seeds, BaseSeed: cfg.BaseSeed}

	for i := 0; i < cfg.Seeds; i++ {
		seed := cfg.BaseSeed + int64(i)
		run, err := cfg.goldenLineage(img, seed)
		if err != nil {
			return nil, fmt.Errorf("snap: seed %d: %w", seed, err)
		}
		row := MatrixRow{Seed: seed, TotalInstrs: run.total, ImageBytes: len(run.imgB)}

		// Base store: A durably committed, B about to be.
		baseFS := NewMemFS()
		baseStore := cfg.store(baseFS)
		seqA, err := baseStore.Commit(run.imgA)
		if err != nil {
			return nil, fmt.Errorf("snap: seed %d: committing A: %w", seed, err)
		}
		seqB := seqA + 1

		// Dry run on a clone to measure the commit's total cost in
		// budget units; crash points are enumerated against it.
		dryFS := baseFS.Clone()
		before := dryFS.Spent()
		if _, err := cfg.store(dryFS).Commit(run.imgB); err != nil {
			return nil, fmt.Errorf("snap: seed %d: dry commit: %w", seed, err)
		}
		row.CommitCost = dryFS.Spent() - before

		tally := func(o trialOutcome, t *FaultTally) {
			t.add(o)
			if o.restoredPrev {
				row.RestoredPrev++
			}
			if o.restoredNew {
				row.RestoredNew++
			}
			if o.replayBad {
				row.ReplayMismatches++
			}
			if o.panicked {
				row.Panics++
			}
		}

		// Torn writes: crash the commit at every enumerated offset.
		rng := mrand.New(mrand.NewSource(matrixMix(cfg.BaseSeed, seed, 0)))
		points := crashPoints(len(run.imgB), row.CommitCost, rng, cfg.ImageSamples)
		row.CrashPoints = len(points)
		for _, k := range points {
			fs := baseFS.Clone()
			fs.Crash(k)
			if _, err := cfg.store(fs).Commit(run.imgB); err == nil {
				return nil, fmt.Errorf("snap: seed %d: commit survived crash budget %d", seed, k)
			}
			tally(recoverTrial(fs, img, cfg, run, seqA, seqB), &row.Torn)
		}

		// Post-hoc faults hit a store where both commits landed clean.
		fullFS := baseFS.Clone()
		if _, err := cfg.store(fullFS).Commit(run.imgB); err != nil {
			return nil, fmt.Errorf("snap: seed %d: committing B: %w", seed, err)
		}
		posthoc := func(n int, t *FaultTally, apply func(*Injector) (InjectedFault, bool)) {
			for j := 0; j < n; j++ {
				fs := fullFS.Clone()
				inj := NewInjector(fs, matrixMix(cfg.BaseSeed, seed, int64(j)+1))
				if _, ok := apply(inj); !ok {
					continue
				}
				o := recoverTrial(fs, img, cfg, run, seqA, seqB)
				// A post-hoc fault always damages durable bytes; an
				// undetected one is silent by definition, even if the
				// restored state happens to be correct.
				if !o.detected && !o.silent {
					o.silent = true
				}
				tally(o, t)
			}
		}
		posthoc(cfg.RotFaults, &row.BitRot, (*Injector).BitRot)
		posthoc(cfg.TruncFaults, &row.Truncate, (*Injector).Truncate)
		posthoc(cfg.DupFaults, &row.DupRename, (*Injector).DupRename)

		rep.Rows = append(rep.Rows, row)
		for _, t := range []FaultTally{row.Torn, row.BitRot, row.Truncate, row.DupRename} {
			rep.Totals.Runs += t.Runs
			rep.Totals.Detected += t.Detected
			rep.Totals.Benign += t.Benign
			rep.Totals.Silent += t.Silent
		}
		rep.Totals.RestoredPrev += row.RestoredPrev
		rep.Totals.RestoredNew += row.RestoredNew
		rep.Totals.ReplayMismatches += row.ReplayMismatches
		rep.Totals.Panics += row.Panics
	}
	return rep, nil
}
