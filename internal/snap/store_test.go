package snap

import (
	"errors"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"pacstack/internal/compile"
	"pacstack/internal/fault"
	"pacstack/internal/kernel"
	"pacstack/internal/pa"
)

func commitVictim(t *testing.T, st *Store, seed int64, instrs uint64) (uint64, []byte) {
	t.Helper()
	p, img := bootVictim(t, seed, instrs)
	enc, err := Encode(p.Checkpoint(), img)
	if err != nil {
		t.Fatalf("encode: %v", err)
	}
	seq, err := st.Commit(enc)
	if err != nil {
		t.Fatalf("commit: %v", err)
	}
	return seq, enc
}

func TestCommitRecoverCleanStore(t *testing.T) {
	fs := NewMemFS()
	st := NewStore(fs)
	if _, _, _, err := st.Recover(); !errors.Is(err, ErrNoSnapshot) {
		t.Fatalf("empty recover: got %v, want ErrNoSnapshot", err)
	}
	seq1, _ := commitVictim(t, st, 3, 200)
	seq2, _ := commitVictim(t, st, 3, 400)
	if seq2 != seq1+1 {
		t.Fatalf("seq2 = %d, want %d", seq2, seq1+1)
	}
	_, _, rep, err := NewStore(fs).Recover()
	if err != nil {
		t.Fatalf("recover: %v", err)
	}
	if rep.RestoredSeq != seq2 || !rep.Restored {
		t.Errorf("restored seq %d, want %d", rep.RestoredSeq, seq2)
	}
	if rep.Detected() {
		t.Errorf("clean store reported detections: %+v", rep)
	}
	classes := map[uint64]string{}
	for _, s := range rep.Snapshots {
		classes[s.Seq] = s.Class
	}
	if classes[seq1] != "stale" || classes[seq2] != "valid" {
		t.Errorf("classes = %v", classes)
	}
}

// TestCrashAtEveryOffset is the core commit-protocol invariant, run
// exhaustively at unit granularity for one seed: whatever byte the
// crash lands on, recovery yields the previous or the new snapshot,
// and any fallback to the previous one comes with detected evidence.
func TestCrashAtEveryOffset(t *testing.T) {
	base := NewMemFS()
	st := NewStore(base)
	seqA, _ := commitVictim(t, st, 5, 200)
	p, img := bootVictim(t, 5, 500)
	imgB, err := Encode(p.Checkpoint(), img)
	if err != nil {
		t.Fatalf("encode B: %v", err)
	}

	dry := base.Clone()
	if _, err := NewStore(dry).Commit(imgB); err != nil {
		t.Fatalf("dry commit: %v", err)
	}
	cost := dry.Spent()

	// Exhaustive is affordable here because recovery (not replay) is
	// the expensive part the matrix samples; one seed at every offset
	// is a few thousand recoveries.
	for k := int64(0); k < cost; k++ {
		fs := base.Clone()
		fs.Crash(k)
		if _, err := NewStore(fs).Commit(imgB); !errors.Is(err, ErrCrashed) {
			t.Fatalf("k=%d: commit err = %v, want ErrCrashed", k, err)
		}
		fs.Heal()
		_, _, rep, err := NewStore(fs).Recover()
		if err != nil {
			t.Fatalf("k=%d: recover: %v", k, err)
		}
		if rep.RestoredSeq != seqA && rep.RestoredSeq != seqA+1 {
			t.Fatalf("k=%d: restored seq %d, want %d or %d", k, rep.RestoredSeq, seqA, seqA+1)
		}
		if rep.RestoredSeq == seqA && !rep.Detected() {
			t.Fatalf("k=%d: fell back to previous snapshot with no detected evidence", k)
		}
	}

	// Control: the very same commit with the budget exactly equal to
	// its cost completes and recovers clean.
	fs := base.Clone()
	fs.Crash(cost)
	if _, err := NewStore(fs).Commit(imgB); err != nil {
		t.Fatalf("commit at exact budget: %v", err)
	}
	fs.Heal()
	_, _, rep, err := NewStore(fs).Recover()
	if err != nil || rep.RestoredSeq != seqA+1 {
		t.Fatalf("control recover: seq %d err %v", rep.RestoredSeq, err)
	}
}

func TestInjectedFaultsAlwaysDetected(t *testing.T) {
	base := NewMemFS()
	st := NewStore(base)
	seqA, _ := commitVictim(t, st, 9, 200)
	seqB, _ := commitVictim(t, st, 9, 450)

	cases := []struct {
		kind  string
		apply func(*Injector) (InjectedFault, bool)
	}{
		{FaultBitRot, (*Injector).BitRot},
		{FaultTruncate, (*Injector).Truncate},
		{FaultDupRename, (*Injector).DupRename},
	}
	for _, tc := range cases {
		for seed := int64(0); seed < 32; seed++ {
			fs := base.Clone()
			_, ok := tc.apply(NewInjector(fs, seed))
			if !ok {
				t.Fatalf("%s seed %d: no fault applied", tc.kind, seed)
			}
			_, _, rep, err := NewStore(fs).Recover()
			if err != nil {
				t.Fatalf("%s seed %d: recover: %v (report %+v)", tc.kind, seed, err, rep)
			}
			if !rep.Detected() {
				t.Errorf("%s seed %d: fault not detected (restored %d)", tc.kind, seed, rep.RestoredSeq)
			}
			if rep.RestoredSeq != seqA && rep.RestoredSeq != seqB {
				t.Errorf("%s seed %d: restored seq %d, want %d or %d", tc.kind, seed, rep.RestoredSeq, seqA, seqB)
			}
		}
	}
}

func TestRecoverSweepsTornTemp(t *testing.T) {
	fs := NewMemFS()
	st := NewStore(fs)
	seq, _ := commitVictim(t, st, 21, 250)
	fs.plant(tmpName(seq+1), []byte("half-written garbage"))
	_, _, rep, err := NewStore(fs).Recover()
	if err != nil {
		t.Fatalf("recover: %v", err)
	}
	found := false
	for _, a := range rep.Anomalies {
		if a.Kind == "torn-temp" {
			found = true
		}
	}
	if !found {
		t.Errorf("torn temp not reported: %+v", rep.Anomalies)
	}
	names, _ := fs.List()
	for _, n := range names {
		if strings.HasPrefix(n, tmpPrefix) {
			t.Errorf("temp file %s not swept", n)
		}
	}
	// A temp never has a journal record (the append comes after the
	// rename), so its sequence is safe to reuse after the sweep: the
	// next commit takes it and recovers clean.
	st2 := NewStore(fs)
	p, img := bootVictim(t, 21, 300)
	enc, _ := Encode(p.Checkpoint(), img)
	seq2, err := st2.Commit(enc)
	if err != nil {
		t.Fatalf("post-sweep commit: %v", err)
	}
	if seq2 != seq+1 {
		t.Errorf("seq2 = %d, want %d", seq2, seq+1)
	}
	_, _, rep2, err := NewStore(fs).Recover()
	if err != nil || rep2.Detected() || rep2.RestoredSeq != seq2 {
		t.Errorf("post-sweep recover: seq %d detected %v err %v", rep2.RestoredSeq, rep2.Detected(), err)
	}
}

func TestRestoreProcessVerifiesProgram(t *testing.T) {
	fs := NewMemFS()
	st := NewStore(fs)
	_, _ = commitVictim(t, st, 25, 300)

	// Same program: restores and runs.
	img, err := compile.Compile(matrixProgram(), compile.SchemePACStack, compile.DefaultLayout())
	if err != nil {
		t.Fatalf("compile: %v", err)
	}
	k := kernel.New(pa.DefaultConfig())
	k.Seed(1)
	p, rep, err := RestoreProcess(st, img, k)
	if err != nil {
		t.Fatalf("restore: %v (report %+v)", err, rep)
	}
	if err := p.Run(1 << 22); err != nil {
		t.Fatalf("restored process run: %v", err)
	}
	if !p.Exited {
		t.Fatalf("restored process did not exit")
	}

	// Different program text: refused before any state moves.
	other, err := compile.Compile(matrixProgram(), compile.SchemePACStackNoMask, compile.DefaultLayout())
	if err != nil {
		t.Fatalf("compile other: %v", err)
	}
	k2 := kernel.New(pa.DefaultConfig())
	k2.Seed(1)
	if _, _, err := RestoreProcess(NewStore(fs), other, k2); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("cross-program restore: got %v, want ErrCorrupt", err)
	}
}

// TestCrashMatrixSmall runs a reduced campaign end to end and holds
// it to the acceptance bar. The full 8-seed campaign is
// TestCrashMatrixGolden in the root package.
func TestCrashMatrixSmall(t *testing.T) {
	rep, err := RunMatrix(MatrixConfig{Seeds: 2, BaseSeed: 42, ImageSamples: 8, RotFaults: 4, TruncFaults: 4, DupFaults: 2})
	if err != nil {
		t.Fatalf("matrix: %v", err)
	}
	if !rep.Clean() {
		t.Fatalf("matrix not clean: %+v", rep.Totals)
	}
	if rep.Totals.Runs == 0 || rep.Totals.Detected == 0 {
		t.Fatalf("matrix ran nothing: %+v", rep.Totals)
	}
	if rep.Totals.RestoredPrev == 0 || rep.Totals.RestoredNew == 0 {
		t.Errorf("matrix never exercised both restore sides: %+v", rep.Totals)
	}
}

// TestCrashMatrixDeterministic: same config, byte-identical report —
// the property the crash-matrix golden relies on.
func TestCrashMatrixDeterministic(t *testing.T) {
	cfg := MatrixConfig{Seeds: 1, BaseSeed: 7, ImageSamples: 4, RotFaults: 2, TruncFaults: 2, DupFaults: 1}
	a, err := RunMatrix(cfg)
	if err != nil {
		t.Fatalf("matrix: %v", err)
	}
	b, err := RunMatrix(cfg)
	if err != nil {
		t.Fatalf("matrix: %v", err)
	}
	if len(a.Rows) != len(b.Rows) || a.Totals != b.Totals {
		t.Fatalf("matrix not deterministic: %+v vs %+v", a.Totals, b.Totals)
	}
	for i := range a.Rows {
		if a.Rows[i] != b.Rows[i] {
			t.Errorf("row %d differs: %+v vs %+v", i, a.Rows[i], b.Rows[i])
		}
	}
}

// TestDirFSRecoversBootCheckpoints runs the commit and recovery
// protocol on DirFS, the store with real fsyncs, in a temp directory:
// boot checkpoints committed by one store, plus a leftover write-temp,
// are recovered by a fresh store over the same directory, which
// restores the newest sequence, reports and removes the leftover, and
// resurrects a machine that replays to the golden output.
func TestDirFSRecoversBootCheckpoints(t *testing.T) {
	img, err := compile.Compile(matrixProgram(), compile.SchemePACStack, compile.DefaultLayout())
	if err != nil {
		t.Fatalf("compile: %v", err)
	}
	boot := func(seed int64) *kernel.Process {
		k := kernel.New(pa.DefaultConfig())
		k.Seed(seed)
		p, err := img.Boot(k)
		if err != nil {
			t.Fatalf("boot: %v", err)
		}
		fault.Harden(compile.SchemePACStack, p)
		return p
	}
	golden := boot(40)
	if err := golden.Run(matrixRunBudget); err != nil || !golden.Exited || len(golden.Output) == 0 {
		t.Fatalf("golden run: exited %v, output %q, err %v", golden.Exited, golden.Output, err)
	}

	dir := t.TempDir()
	fs, err := NewDirFS(dir)
	if err != nil {
		t.Fatal(err)
	}
	st := NewStore(fs)
	var seqs []uint64
	for _, seed := range []int64{41, 42} {
		seq, err := st.CommitProcess(boot(seed), img)
		if err != nil {
			t.Fatalf("commit: %v", err)
		}
		seqs = append(seqs, seq)
	}
	leftover := tmpName(seqs[1] + 1)
	if err := os.WriteFile(filepath.Join(dir, leftover), []byte("half-written"), 0o644); err != nil {
		t.Fatal(err)
	}

	fresh, err := NewDirFS(dir)
	if err != nil {
		t.Fatal(err)
	}
	k := kernel.New(pa.DefaultConfig())
	k.Seed(43)
	p, rep, err := RestoreProcess(NewStore(fresh), img, k)
	if err != nil {
		t.Fatalf("restore: %v (report %+v)", err, rep)
	}
	if !rep.Restored || rep.RestoredSeq != seqs[1] {
		t.Errorf("restored seq %d, want the newest, %d", rep.RestoredSeq, seqs[1])
	}
	if len(rep.Anomalies) != 1 || rep.Anomalies[0].Kind != "torn-temp" || rep.Anomalies[0].Name != leftover {
		t.Errorf("anomalies %+v, want the one torn-temp %s", rep.Anomalies, leftover)
	}
	if _, err := os.Stat(filepath.Join(dir, leftover)); !errors.Is(err, os.ErrNotExist) {
		t.Errorf("leftover %s not removed: %v", leftover, err)
	}
	fault.Harden(compile.SchemePACStack, p)
	if err := p.Run(matrixRunBudget); err != nil || !p.Exited {
		t.Fatalf("restored run: exited %v, err %v", p.Exited, err)
	}
	if string(p.Output) != string(golden.Output) || p.ExitCode != golden.ExitCode {
		t.Errorf("restored machine printed %q and exited %d, golden %q and %d",
			p.Output, p.ExitCode, golden.Output, golden.ExitCode)
	}
}
