// Wall-clock serving benchmarks for the warm-pool fork-server:
// BenchmarkServeColdRPS boots a fresh machine per request (image
// mapping, program encode, key generation from scratch each time);
// BenchmarkServeWarmRPS serves the identical request stream from the
// snapshot-fork pools (internal/pool), restoring a pooled machine from
// the in-memory boot image and re-seeding its PA keys per request.
// Both fan each batch out over the internal/par worker pool with
// par.ForEachErr, so the pool's per-shard leases amortize the way the
// daemon's concurrent traffic does. bench.sh records the pair (and
// their ratio) in BENCH_<n>.json.
package pacstack

import (
	"context"
	"errors"
	"testing"

	"pacstack/internal/par"
	"pacstack/internal/serve"
)

// serveBatch is one fan-out's worth of requests. Large enough that
// lease/queue costs amortize, small enough that b.N iterations stay
// responsive.
const serveBatch = 64

func benchServeRPS(b *testing.B, warm bool) {
	b.Helper()
	s := serve.New(serve.Config{
		Workers: 16,
		Queue:   4 * serveBatch,
		Seed:    1,
		Warm:    warm,
	})
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := par.ForEachErr(serveBatch, func(j int) error {
			res, err := s.Do(context.Background(), serve.Request{
				Workload: "chain",
				Scheme:   "pacstack",
				Seed:     int64(i*serveBatch+j) + 1,
			})
			if err == nil && res == nil {
				err = errors.New("no result")
			}
			return err
		}); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	if warm {
		restores, coldFallbacks, keyViolations, _ := s.PoolStats()
		if keyViolations != 0 {
			b.Fatalf("%d image-key probe violations", keyViolations)
		}
		if restores == 0 {
			b.Fatal("warm run served no pool restores")
		}
		b.ReportMetric(float64(coldFallbacks), "cold-fallbacks")
	}
	b.ReportMetric(float64(b.N*serveBatch)/b.Elapsed().Seconds(), "req/s")
}

// BenchmarkServeColdRPS is the per-request full-boot baseline.
func BenchmarkServeColdRPS(b *testing.B) { benchServeRPS(b, false) }

// BenchmarkServeWarmRPS serves the same stream from the warm pools.
func BenchmarkServeWarmRPS(b *testing.B) { benchServeRPS(b, true) }
