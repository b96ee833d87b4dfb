package snap

import (
	"errors"
	"testing"

	"pacstack/internal/compile"
	"pacstack/internal/fault"
	"pacstack/internal/kernel"
	"pacstack/internal/pa"
)

// bootAndCommit builds a store with n committed boot-state snapshots
// of the pacstack chain image and returns the store, the image (for
// restore verification), and the newest committed sequence number.
func bootAndCommit(t *testing.T, n int) (*Store, *compile.Image, uint64) {
	t.Helper()
	eng := fault.NewEngine(fault.DefaultProgram())
	img, err := eng.Image(compile.SchemePACStack)
	if err != nil {
		t.Fatal(err)
	}
	st := NewStore(NewMemFS())
	var last uint64
	for i := 0; i < n; i++ {
		k := kernel.New(pa.DefaultConfig())
		k.Seed(int64(100 + i))
		p, err := img.Boot(k)
		if err != nil {
			t.Fatal(err)
		}
		if last, err = st.CommitProcess(p, img); err != nil {
			t.Fatal(err)
		}
	}
	return st, img, last
}

// anomalyKinds collects the report's anomaly kinds into a set.
func anomalyKinds(rep *RecoveryReport) map[string]int {
	kinds := map[string]int{}
	for _, a := range rep.Anomalies {
		kinds[a.Kind]++
	}
	return kinds
}

// TestRecoverMissingJournal: snapshots exist but the journal is gone
// entirely (a deleted or never-synced journal). Every snapshot is
// self-checking, so recovery must still restore the newest one — and
// must classify the gap as detected (unjournaled-snapshot anomalies),
// never as a clean pass.
func TestRecoverMissingJournal(t *testing.T) {
	st, _, newest := bootAndCommit(t, 2)
	if err := st.FS().Remove("journal.psj"); err != nil {
		t.Fatal(err)
	}
	// A fresh store over the same FS models recovery after a restart.
	st2 := NewStore(st.FS())
	cp, _, rep, err := st2.Recover()
	if err != nil {
		t.Fatalf("recover with missing journal: %v", err)
	}
	if cp == nil || !rep.Restored || rep.RestoredSeq != newest {
		t.Fatalf("restored=%v seq=%d, want newest (%d)", rep.Restored, rep.RestoredSeq, newest)
	}
	if !rep.Detected() {
		t.Fatal("missing journal recovered without any detection — silent gap")
	}
	kinds := anomalyKinds(rep)
	if kinds["unjournaled-snapshot"] != 2 {
		t.Fatalf("want 2 unjournaled-snapshot anomalies, got %v", kinds)
	}
}

// TestRecoverEmptyJournal: the journal file exists with zero bytes (a
// created-then-never-flushed journal). Same contract as missing:
// restore the self-checking snapshots, flag the gap.
func TestRecoverEmptyJournal(t *testing.T) {
	st, _, newest := bootAndCommit(t, 2)
	if err := st.FS().WriteFile("journal.psj", nil); err != nil {
		t.Fatal(err)
	}
	st2 := NewStore(st.FS())
	cp, _, rep, err := st2.Recover()
	if err != nil {
		t.Fatalf("recover with empty journal: %v", err)
	}
	if cp == nil || rep.RestoredSeq != newest {
		t.Fatalf("restored seq %d, want %d", rep.RestoredSeq, newest)
	}
	if !rep.Detected() {
		t.Fatal("empty journal recovered without any detection")
	}
	if kinds := anomalyKinds(rep); kinds["unjournaled-snapshot"] != 2 {
		t.Fatalf("want 2 unjournaled-snapshot anomalies, got %v", kinds)
	}
	// An empty valid prefix is not itself a torn tail.
	if kinds := anomalyKinds(rep); kinds["journal-torn-tail"] != 0 {
		t.Fatalf("empty journal misread as torn: %v", kinds)
	}
}

// TestRecoverJournalOnlyTornRecord: the journal holds nothing but a
// torn final record — fewer bytes than one record, none of them
// trustworthy. The tear must be detected, the snapshots must still
// restore, and the empty store variant must fail benignly
// (ErrNoSnapshot), never silently.
func TestRecoverJournalOnlyTornRecord(t *testing.T) {
	st, _, newest := bootAndCommit(t, 1)
	// Replace the journal wholesale with a partial record: the first 20
	// bytes of garbage-free prefix would still fail the CRC; use
	// recognizable magic plus truncation to model a torn append.
	torn := []byte("PSJR\x01\x02\x03")
	if err := st.FS().WriteFile("journal.psj", torn); err != nil {
		t.Fatal(err)
	}
	st2 := NewStore(st.FS())
	cp, _, rep, err := st2.Recover()
	if err != nil {
		t.Fatalf("recover with torn-only journal: %v", err)
	}
	if cp == nil || rep.RestoredSeq != newest {
		t.Fatalf("restored seq %d, want %d", rep.RestoredSeq, newest)
	}
	if !rep.Detected() {
		t.Fatal("torn-only journal recovered without any detection")
	}
	kinds := anomalyKinds(rep)
	if kinds["journal-torn-tail"] != 1 {
		t.Fatalf("want journal-torn-tail anomaly, got %v", kinds)
	}
	if rep.JournalRecords != 0 {
		t.Fatalf("torn-only journal parsed %d valid records, want 0", rep.JournalRecords)
	}

	// Same torn-only journal over an otherwise empty store: nothing to
	// restore is a benign, typed failure — not a silent success.
	empty := NewStore(NewMemFS())
	if err := empty.FS().WriteFile("journal.psj", torn); err != nil {
		t.Fatal(err)
	}
	_, _, rep2, err := empty.Recover()
	if !errors.Is(err, ErrNoSnapshot) {
		t.Fatalf("empty store with torn journal: err=%v, want ErrNoSnapshot", err)
	}
	if rep2 == nil || !rep2.Detected() {
		t.Fatal("benign failure must still report the torn tail")
	}
	if rep2.Restored {
		t.Fatal("nothing valid existed but the report claims a restore")
	}
}

// TestRecoverEdgeRestoresWorkingProcess: after the nastiest edge (torn
// journal), the restored checkpoint is not just classified — it boots
// into a process that runs to the golden output.
func TestRecoverEdgeRestoresWorkingProcess(t *testing.T) {
	st, img, _ := bootAndCommit(t, 1)
	if err := st.FS().WriteFile("journal.psj", []byte("PS")); err != nil {
		t.Fatal(err)
	}
	st2 := NewStore(st.FS())
	k := kernel.New(pa.DefaultConfig())
	k.Seed(777)
	p, rep, err := RestoreProcess(st2, img, k)
	if err != nil {
		t.Fatalf("RestoreProcess: %v", err)
	}
	if !rep.Detected() {
		t.Fatal("torn journal not detected")
	}
	eng := fault.NewEngine(fault.DefaultProgram())
	goldenOut, goldenExit, goldenInstrs, err := eng.Golden(compile.SchemePACStack)
	if err != nil {
		t.Fatal(err)
	}
	if err := p.Run(4*goldenInstrs + 10_000); err != nil {
		t.Fatalf("restored process run: %v", err)
	}
	if string(p.Output) != string(goldenOut) || p.ExitCode != goldenExit {
		t.Fatalf("restored process diverged: %q exit %d, golden %q exit %d",
			p.Output, p.ExitCode, goldenOut, goldenExit)
	}
}
