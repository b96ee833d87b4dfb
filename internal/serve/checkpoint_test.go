package serve

import (
	"context"
	"testing"
)

// TestDoWithCheckpointing: a clean request under checkpointing
// commits snapshots and still returns the golden answer.
func TestDoWithCheckpointing(t *testing.T) {
	srv := New(Config{Workers: 1, Seed: 3, CheckpointEvery: 400})
	res, err := srv.Do(context.Background(), Request{Workload: "chain", Scheme: "pacstack", Seed: 11})
	if err != nil {
		t.Fatalf("do: %v", err)
	}
	if res.Checkpoints == 0 {
		t.Errorf("checkpoints = 0, want periodic commits (instrs %d)", res.Instrs)
	}
	if res.TornCommits != 0 || res.Restores != 0 {
		t.Errorf("clean request saw torn=%d restores=%d", res.TornCommits, res.Restores)
	}
	st := srv.Stats()
	if st.Checkpoints == 0 {
		t.Errorf("stats checkpoints = 0")
	}
}

// TestDoSurvivesMidCheckpointCrash: with the torn-crash probability
// at 1 every request's storage dies partway through a commit; with a
// heal budget the supervisor warm-restores and the answer must still
// be golden, never silent.
func TestDoSurvivesMidCheckpointCrash(t *testing.T) {
	srv := New(Config{
		Workers:         1,
		Seed:            3,
		Heal:            3,
		CheckpointEvery: 300,
		CheckpointCrash: 1.0,
	})
	// A spread of seeds: crash budgets land at different protocol
	// offsets. Every outcome must be a golden answer (possibly healed)
	// — a torn snapshot must never change what the client sees.
	sawTorn, sawRestore := false, false
	for seed := int64(1); seed <= 12; seed++ {
		res, err := srv.Do(context.Background(), Request{Workload: "chain", Scheme: "pacstack", Seed: seed})
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		if res.TornCommits > 0 {
			sawTorn = true
		}
		if res.Restores > 0 {
			sawRestore = true
		}
	}
	if !sawTorn || !sawRestore {
		t.Errorf("torn=%v restore=%v: the crash dimension never fired; widen the seed range", sawTorn, sawRestore)
	}
}

// TestSoakKillMidCheckpoint is the tentpole's soak coverage: chaos
// faults AND mid-checkpoint machine deaths under virtual time, with
// the usual gates — graceful accounting, zero silent corruptions —
// plus the new one: torn commits happened and none leaked.
func TestSoakKillMidCheckpoint(t *testing.T) {
	cfg := soakConfigForTest()
	cfg.Heal = 2
	cfg.CheckpointEvery = 300
	cfg.CheckpointCrash = 0.5
	rep, err := Soak(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Graceful() {
		t.Fatalf("soak not graceful: %+v", rep)
	}
	if rep.Silent != 0 {
		t.Errorf("silent corruptions = %d, want 0", rep.Silent)
	}
	if rep.Checkpoints == 0 {
		t.Errorf("no checkpoints committed")
	}
	if rep.TornCommits == 0 {
		t.Errorf("no torn commits at 50%% crash probability")
	}
}
