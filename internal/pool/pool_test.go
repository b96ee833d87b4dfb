package pool_test

import (
	"fmt"
	"sync"
	"testing"

	"pacstack/internal/compile"
	"pacstack/internal/fault"
	"pacstack/internal/kernel"
	"pacstack/internal/pa"
	"pacstack/internal/pool"
	"pacstack/internal/supervise"
	"pacstack/internal/telemetry"
)

// chainImage compiles fault.DefaultProgram, the chain workload, under
// PACStack.
func chainImage(tb testing.TB) *compile.Image {
	tb.Helper()
	img, err := fault.NewEngine(fault.DefaultProgram()).Image(compile.SchemePACStack)
	if err != nil {
		tb.Fatal(err)
	}
	return img
}

func newChainPool(tb testing.TB, cfg pool.Config) (*pool.Pool, *compile.Image) {
	tb.Helper()
	img := chainImage(tb)
	cfg.Img = img
	cfg.PA = pa.DefaultConfig()
	if cfg.Configure == nil {
		cfg.Configure = func(p *kernel.Process) { fault.Harden(compile.SchemePACStack, p) }
	}
	pl, err := pool.New(cfg)
	if err != nil {
		tb.Fatal(err)
	}
	return pl, img
}

// TestKeyFreshness is the §4.3 property test: N warm restores from the
// same boot image must yield machines that (a) pairwise fail
// supervise.SharedKeys, (b) produce pairwise-distinct chain seals for
// the same (pointer, modifier), and (c) reject seals minted under the
// image keys. The restores run concurrently so the race detector
// sweeps the pool's lease/reset paths too.
func TestKeyFreshness(t *testing.T) {
	tel := pool.NewTelemetry(telemetry.NewRegistry())
	pl, _ := newChainPool(t, pool.Config{Seed: 3, Tel: tel})

	const n = 8
	machines := make([]*pool.Machine, n)
	procs := make([]*kernel.Process, n)
	var wg sync.WaitGroup
	errs := make([]error, n)
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			m := pl.Get()
			if m == nil {
				errs[i] = fmt.Errorf("uncapped pool refused a lease")
				return
			}
			m.K.Seed(int64(100 + i))
			p, err := pl.Reset(m)
			if err != nil {
				errs[i] = err
				return
			}
			machines[i], procs[i] = m, p
		}(i)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("restore %d: %v", i, err)
		}
	}

	const ptr, mod = 0x20080, 0xbeef
	seals := make(map[uint64]int, n)
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			if supervise.SharedKeys(procs[i], procs[j]) {
				t.Fatalf("machines %d and %d share PA keys after warm restore", i, j)
			}
		}
		seal := procs[i].Auth.AddPAC(pa.KeyIA, ptr, mod)
		if prev, dup := seals[seal]; dup {
			t.Fatalf("machines %d and %d produced the same chain seal %016x", prev, i, seal)
		}
		seals[seal] = i
	}

	if v := tel.KeyViolations.Value(); v != 0 {
		t.Fatalf("key violations counted on fresh restores: %d", v)
	}
	if r := tel.Restores.Value(); r != n {
		t.Fatalf("restores counter %d, want %d", r, n)
	}
	if occ := tel.Occupancy.Value(); occ != n {
		t.Fatalf("occupancy %d with %d leased", occ, n)
	}
	for _, m := range machines {
		pl.Put(m)
	}
	if occ := tel.Occupancy.Value(); occ != 0 {
		t.Fatalf("occupancy %d after returning every lease", occ)
	}
}

// TestDrawParity pins the property the warm-vs-cold gate rests on: a
// warm Reset seeded with S consumes the identical kernel entropy
// stream as a cold boot seeded with S — same keys (SharedKeys true
// across the pair!), and an identical golden replay.
func TestDrawParity(t *testing.T) {
	pl, img := newChainPool(t, pool.Config{Seed: 3})
	const seed = 4242

	ck := kernel.New(pa.DefaultConfig())
	ck.Seed(seed)
	cold, err := img.Boot(ck)
	if err != nil {
		t.Fatal(err)
	}
	fault.Harden(compile.SchemePACStack, cold)

	m := pl.Get()
	m.K.Seed(seed)
	warm, err := pl.Reset(m)
	if err != nil {
		t.Fatal(err)
	}

	if !supervise.SharedKeys(cold, warm) {
		t.Fatal("same seed produced different keys warm vs cold — entropy draw order diverged")
	}
	if err := cold.Run(1 << 20); err != nil {
		t.Fatal(err)
	}
	if err := warm.Run(1 << 20); err != nil {
		t.Fatal(err)
	}
	if string(cold.Output) != string(warm.Output) || cold.ExitCode != warm.ExitCode ||
		cold.Cycles() != warm.Cycles() {
		t.Fatalf("warm run diverged from cold: output %q/%q exit %d/%d cycles %d/%d",
			warm.Output, cold.Output, warm.ExitCode, cold.ExitCode, warm.Cycles(), cold.Cycles())
	}
}

// TestColdFallback: a capped pool with every machine leased refuses
// the next lease and counts it — the serving layer's signal to cold
// boot.
func TestColdFallback(t *testing.T) {
	tel := pool.NewTelemetry(telemetry.NewRegistry())
	pl, _ := newChainPool(t, pool.Config{Seed: 3, MaxMachines: 2, Tel: tel})
	a, b := pl.Get(), pl.Get()
	if a == nil || b == nil {
		t.Fatal("capped pool refused leases under its cap")
	}
	if m := pl.Get(); m != nil {
		t.Fatal("capped pool grew past MaxMachines")
	}
	if v := tel.ColdFallback.Value(); v != 1 {
		t.Fatalf("cold fallbacks %d, want 1", v)
	}
	pl.Put(a)
	if m := pl.Get(); m == nil {
		t.Fatal("returned machine not leasable")
	}
}

// TestReuseStaysGolden: a machine that already executed a request
// replays golden after the next Reset — the restore really does wipe
// the previous incarnation.
func TestReuseStaysGolden(t *testing.T) {
	pl, _ := newChainPool(t, pool.Config{Seed: 3})
	eng := fault.NewEngine(fault.DefaultProgram())
	goldenOut, goldenExit, _, err := eng.Golden(compile.SchemePACStack)
	if err != nil {
		t.Fatal(err)
	}
	m := pl.Get()
	for i := 0; i < 3; i++ {
		m.K.Seed(int64(7 + i))
		p, err := pl.Reset(m)
		if err != nil {
			t.Fatalf("reset %d: %v", i, err)
		}
		if err := p.Run(1 << 20); err != nil {
			t.Fatalf("run %d: %v (kill=%v)", i, err, p.Kill)
		}
		if string(p.Output) != string(goldenOut) || p.ExitCode != goldenExit {
			t.Fatalf("run %d diverged: output %q exit %d", i, p.Output, p.ExitCode)
		}
	}
}

// TestResetAllocations holds a warm Reset to at most 12 allocations.
// The restore builds exactly one Authenticator, under the incarnation's
// fresh keys, and reuses the machine's page frames and memo table;
// what is left is the task set the restore re-spawns.
func TestResetAllocations(t *testing.T) {
	const budget = 12
	pl, _ := newChainPool(t, pool.Config{Seed: 3})
	m := pl.Get()
	defer pl.Put(m)
	seed := int64(100) // the image was booted at seed 3
	reset := func() {
		seed++
		m.K.Seed(seed)
		if _, err := pl.Reset(m); err != nil {
			t.Fatal(err)
		}
	}
	reset() // the first restore of a grown machine rewrites every page
	if n := testing.AllocsPerRun(100, reset); n > budget {
		t.Errorf("Pool.Reset makes %.0f allocations, over the budget of %d", n, budget)
	}
}

// BenchmarkPoolLease times one warm lease of the chain pool: Get, a
// seeded Reset (restore, re-key, canary, harden) and Put.
func BenchmarkPoolLease(b *testing.B) {
	pl, _ := newChainPool(b, pool.Config{Seed: 3})
	lease := func(seed int64) {
		m := pl.Get()
		m.K.Seed(seed)
		if _, err := pl.Reset(m); err != nil {
			b.Fatal(err)
		}
		pl.Put(m)
	}
	lease(99) // grow the machine and make its first, full restore
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		lease(int64(100 + i))
	}
}

// BenchmarkImageBoot times one cold boot of the chain image: map its
// pages, load and seal the text, draw the keys and the canary.
func BenchmarkImageBoot(b *testing.B) {
	img := chainImage(b)
	k := kernel.New(pa.DefaultConfig())
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		k.Seed(int64(100 + i))
		if _, err := img.Boot(k); err != nil {
			b.Fatal(err)
		}
	}
}
