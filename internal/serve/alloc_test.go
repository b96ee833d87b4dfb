package serve

import (
	"context"
	"runtime"
	"testing"
)

// TestWarmChainRequestAllocationBudget holds a warm chain request to
// at most 64 KiB allocated on average. A warm incarnation restores a
// pooled machine in place, recycles its PA memo table and re-seeds its
// kernel's source, so what is left is mostly the request's own block
// cache. The budget holds under the race detector too, where sync.Pool
// drops some Puts.
func TestWarmChainRequestAllocationBudget(t *testing.T) {
	const requests, budget = 500, 64 << 10
	s := New(Config{Workers: 1, Seed: 1, Warm: true})
	do := func(seed int64) {
		if _, err := s.Do(context.Background(), Request{Workload: "chain", Scheme: "pacstack", Seed: seed}); err != nil {
			t.Fatal(err)
		}
	}
	for i := int64(1); i <= 20; i++ { // build the engine, golden run and pool
		do(i)
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := int64(0); i < requests; i++ {
		do(1000 + i)
	}
	runtime.ReadMemStats(&after)
	perReq := (after.TotalAlloc - before.TotalAlloc) / requests
	t.Logf("%.1f KiB and %d allocations per warm chain request", float64(perReq)/1024,
		(after.Mallocs-before.Mallocs)/requests)
	if perReq > budget {
		t.Errorf("a warm chain request allocates %.1f KiB, over the %d KiB budget", float64(perReq)/1024, budget>>10)
	}
	if restores, _, violations, _ := s.PoolStats(); restores < requests || violations != 0 {
		t.Errorf("pool served %d restores with %d key violations", restores, violations)
	}
}
