package supervise

import (
	"errors"
	"testing"

	"pacstack/internal/cpu"
	"pacstack/internal/ir"
	"pacstack/internal/kernel"
	"pacstack/internal/snap"
)

// chattyProgram runs long enough to cross several checkpoint slices
// and writes continuously, so lost or replayed progress is visible in
// the output.
func chattyProgram() *ir.Program {
	return &ir.Program{Entry: "main", Functions: []*ir.Function{
		{Name: "main", Locals: 1, Body: []ir.Op{
			ir.Write{Byte: '<'},
			ir.Loop{Count: 30, Body: []ir.Op{ir.Call{Target: "work"}}},
			ir.Write{Byte: '>'},
		}},
		{Name: "work", Locals: 1, Body: []ir.Op{
			ir.StoreLocal{Slot: 0, Value: 5},
			ir.Compute{Units: 8},
			ir.LoadLocal{Slot: 0},
			ir.Write{Byte: 'w'},
		}},
	}}
}

// goldenRun measures the victim's uninterrupted output and length.
func goldenRun(t *testing.T) (output string, total uint64) {
	t.Helper()
	p, err := image(t, chattyProgram()).Boot(seededKernel(77))
	if err != nil {
		t.Fatal(err)
	}
	if err := p.Run(1 << 22); err != nil {
		t.Fatal(err)
	}
	for _, tk := range p.Tasks {
		total += tk.M.Instrs
	}
	return string(p.Output), total
}

// TestWarmRestoreResumesFromCheckpoint: attempt 0 dies on the
// watchdog partway through, attempt 1 warm-restores the newest
// snapshot instead of starting over, and the final output matches an
// uninterrupted run exactly — no lost writes, no replayed writes.
func TestWarmRestoreResumesFromCheckpoint(t *testing.T) {
	golden, total := goldenRun(t)

	st := snap.NewStore(snap.NewMemFS())
	sup := New(image(t, chattyProgram()), seededKernel(77), Policy{
		MaxRestarts: 3,
		Budget:      total * 2 / 3,
	})
	sup.Snapshots = st
	sup.CheckpointEvery = total / 5

	p, err := sup.Run(nil)
	if err != nil {
		t.Fatalf("supervised run: %v (attempts %d)", err, len(sup.Attempts))
	}
	if string(p.Output) != golden {
		t.Errorf("output %q, want %q", p.Output, golden)
	}
	if len(sup.Attempts) != 2 {
		t.Fatalf("attempts = %d, want 2", len(sup.Attempts))
	}
	if sup.Attempts[0].Restored || !sup.Attempts[1].Restored {
		t.Errorf("restored flags = %v/%v, want false/true", sup.Attempts[0].Restored, sup.Attempts[1].Restored)
	}
	if sup.Restores != 1 || sup.Commits == 0 {
		t.Errorf("restores=%d commits=%d, want 1 restore and >0 commits", sup.Restores, sup.Commits)
	}
	if !errors.Is(sup.Attempts[0].Err, cpu.ErrStepLimit) || sup.Attempts[0].Kill == nil {
		t.Errorf("attempt 0 = %+v, want watchdog kill", sup.Attempts[0])
	}
}

// TestKillMidCheckpointRecovers crashes the simulated machine in the
// middle of a snapshot commit — storage budget runs dry partway
// through the second commit — and the next attempt must heal the
// disk, classify the torn debris as detected, restore the last good
// snapshot and finish with golden output.
func TestKillMidCheckpointRecovers(t *testing.T) {
	golden, total := goldenRun(t)

	fs := snap.NewMemFS()
	st := snap.NewStore(fs)
	sup := New(image(t, chattyProgram()), seededKernel(77), Policy{
		MaxRestarts: 3,
		Budget:      1 << 22,
	})
	sup.Snapshots = st
	sup.CheckpointEvery = total / 5

	// Let the first commit through whole, then tear the second one a
	// little way in. The first commit's cost is measured on a clone so
	// the test does not hardcode the protocol's op costs.
	probeImg := image(t, chattyProgram())
	probe, err := probeImg.Boot(seededKernel(77))
	if err != nil {
		t.Fatal(err)
	}
	if err := probe.Run(sup.CheckpointEvery); !errors.Is(err, cpu.ErrStepLimit) {
		t.Fatalf("probe: %v", err)
	}
	dry := fs.Clone()
	if _, err := snap.NewStore(dry).CommitProcess(probe, probeImg); err != nil {
		t.Fatal(err)
	}
	// Arm the crash from the mutate hook: it runs after the attempt's
	// recovery pass (which Heals the disk) and before execution.
	cost := dry.Spent()
	p, err := sup.Run(func(attempt int, proc *kernel.Process) {
		if attempt == 0 {
			fs.Crash(cost + 10)
		}
	})
	if err != nil {
		t.Fatalf("supervised run: %v (attempts %+v)", err, sup.Attempts)
	}
	if string(p.Output) != golden {
		t.Errorf("output %q, want %q", p.Output, golden)
	}
	if sup.CommitErrs == 0 {
		t.Errorf("commit errors = 0, want the torn commit counted")
	}
	if !errors.Is(sup.Attempts[0].Err, snap.ErrCrashed) {
		t.Errorf("attempt 0 err = %v, want ErrCrashed", sup.Attempts[0].Err)
	}
	if sup.Restores == 0 {
		t.Errorf("restores = 0, want a warm restore after the crash")
	}
	if sup.LastRecovery == nil || !sup.LastRecovery.Detected() {
		t.Errorf("last recovery = %+v, want the torn commit detected", sup.LastRecovery)
	}
}

// TestRestoreFailureNoDoubleCharge is the restart-budget regression:
// when every snapshot is damaged (restore finds nothing) or restore
// outright fails (snapshot from a different program), the fallback
// cold boot happens within the same attempt — one entry in the log,
// no backoff charged, and with MaxRestarts 0 the run still succeeds.
func TestRestoreFailureNoDoubleCharge(t *testing.T) {
	t.Run("all snapshots corrupt", func(t *testing.T) {
		fs := snap.NewMemFS()
		// A snapshot-shaped file of garbage plus a journal of garbage:
		// recovery must classify, report, and fall back.
		if err := fs.WriteFile("snap-0000000000000001.pss", []byte("not a snapshot")); err != nil {
			t.Fatal(err)
		}
		if err := fs.Append("journal.psj", []byte("torn journal bytes")); err != nil {
			t.Fatal(err)
		}
		sup := New(image(t, cleanProgram()), seededKernel(5), Policy{MaxRestarts: 0})
		sup.Snapshots = snap.NewStore(fs)
		p, err := sup.Run(nil)
		if err != nil {
			t.Fatalf("run: %v", err)
		}
		if string(p.Output) != "k" {
			t.Errorf("output %q", p.Output)
		}
		if len(sup.Attempts) != 1 || sup.Downtime != 0 {
			t.Errorf("attempts=%d downtime=%d, want 1/0: fallback must not charge the budget",
				len(sup.Attempts), sup.Downtime)
		}
		if sup.Restores != 0 {
			t.Errorf("restores = %d, want 0", sup.Restores)
		}
		if sup.LastRecovery == nil || !sup.LastRecovery.Detected() {
			t.Errorf("last recovery = %+v, want corruption detected", sup.LastRecovery)
		}
	})

	t.Run("snapshot from different program", func(t *testing.T) {
		// A perfectly valid snapshot — of the wrong program. The text
		// checksum refuses it and the cold boot runs in the same cycle.
		fs := snap.NewMemFS()
		st := snap.NewStore(fs)
		donorImg := image(t, chattyProgram())
		donor, err := donorImg.Boot(seededKernel(9))
		if err != nil {
			t.Fatal(err)
		}
		if err := donor.Run(50); !errors.Is(err, cpu.ErrStepLimit) {
			t.Fatal(err)
		}
		if _, err := st.CommitProcess(donor, donorImg); err != nil {
			t.Fatal(err)
		}

		sup := New(image(t, cleanProgram()), seededKernel(5), Policy{MaxRestarts: 0})
		sup.Snapshots = st
		p, err := sup.Run(nil)
		if err != nil {
			t.Fatalf("run: %v", err)
		}
		if string(p.Output) != "k" {
			t.Errorf("output %q", p.Output)
		}
		if len(sup.Attempts) != 1 || sup.Downtime != 0 {
			t.Errorf("attempts=%d downtime=%d, want 1/0: fallback must not charge the budget",
				len(sup.Attempts), sup.Downtime)
		}
		if sup.RestoreFallbacks != 1 {
			t.Errorf("fallbacks = %d, want 1", sup.RestoreFallbacks)
		}
	})
}
