package serve

import (
	"context"
	"runtime"
	"testing"
)

// chainAllocsPerRequest serves 20 chain requests to warm s up (engine,
// golden run, pool), then returns the bytes and allocations that each
// of the next n requests makes on average.
func chainAllocsPerRequest(t *testing.T, s *Server, n int64) (bytesPerReq, allocsPerReq uint64) {
	t.Helper()
	do := func(seed int64) {
		if _, err := s.Do(context.Background(), Request{Workload: "chain", Scheme: "pacstack", Seed: seed}); err != nil {
			t.Fatal(err)
		}
	}
	for i := int64(1); i <= 20; i++ {
		do(i)
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := int64(0); i < n; i++ {
		do(1000 + i)
	}
	runtime.ReadMemStats(&after)
	return (after.TotalAlloc - before.TotalAlloc) / uint64(n), (after.Mallocs - before.Mallocs) / uint64(n)
}

// TestWarmChainRequestAllocationBudget holds a warm chain request to
// at most 48 KiB allocated on average. A warm incarnation restores a
// pooled machine in place, recycles its PA memo table and re-seeds its
// kernel's source, so what is left is mostly the request's own block
// cache. The budget holds under the race detector too, where sync.Pool
// drops some Puts.
func TestWarmChainRequestAllocationBudget(t *testing.T) {
	const requests, budget = 500, 48 << 10
	s := New(Config{Workers: 1, Seed: 1, Warm: true})
	perReq, allocs := chainAllocsPerRequest(t, s, requests)
	t.Logf("%.1f KiB and %d allocations per warm chain request", float64(perReq)/1024, allocs)
	if perReq > budget {
		t.Errorf("a warm chain request allocates %.1f KiB, over the %d KiB budget", float64(perReq)/1024, budget>>10)
	}
	if restores, _, violations, _ := s.PoolStats(); restores < requests || violations != 0 {
		t.Errorf("pool served %d restores with %d key violations", restores, violations)
	}
}

// TestColdChainRequestAllocationBudget holds a cold chain request to
// at most 128 KiB allocated on average, under the race detector too. A
// cold boot maps the image's 26 pages, but only the pages the boot and
// the run write get a frame.
func TestColdChainRequestAllocationBudget(t *testing.T) {
	const requests, budget = 200, 128 << 10
	s := New(Config{Workers: 1, Seed: 1})
	perReq, allocs := chainAllocsPerRequest(t, s, requests)
	t.Logf("%.1f KiB and %d allocations per cold chain request", float64(perReq)/1024, allocs)
	if perReq > budget {
		t.Errorf("a cold chain request allocates %.1f KiB, over the %d KiB budget", float64(perReq)/1024, budget>>10)
	}
}
