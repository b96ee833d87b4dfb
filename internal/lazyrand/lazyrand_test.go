package lazyrand

import (
	"math"
	"math/rand"
	"testing"
)

// TestStreamMatchesMathRand draws the same mixed sequence of values
// through rand.Rand over a Source and over rand.NewSource, for 200
// seeds plus the seeds math/rand reduces specially, and re-seeds both
// midway.
func TestStreamMatchesMathRand(t *testing.T) {
	seeds := []int64{0, 1, -1, m31, -m31, 2 * m31, m31 - 1, zeroSub, math.MaxInt64, math.MinInt64}
	pick := rand.New(rand.NewSource(2024))
	for len(seeds) < 210 {
		seeds = append(seeds, pick.Int63()-pick.Int63())
	}
	const draws, reseedAt = 2000, 1000
	for si, seed := range seeds {
		lazy := rand.New(New(seed))
		want := rand.New(rand.NewSource(seed))
		ops := rand.New(rand.NewSource(int64(si)))
		for d := 0; d < draws; d++ {
			if d == reseedAt {
				next := seeds[(si+1)%len(seeds)] ^ int64(d)
				lazy.Seed(next)
				want.Seed(next)
			}
			var got, exp uint64
			switch op := ops.Intn(7); op {
			case 0:
				got, exp = uint64(lazy.Int63()), uint64(want.Int63())
			case 1:
				got, exp = lazy.Uint64(), want.Uint64()
			case 2:
				n := ops.Intn(1000) + 1
				got, exp = uint64(lazy.Intn(n)), uint64(want.Intn(n))
			case 3:
				got, exp = math.Float64bits(lazy.Float64()), math.Float64bits(want.Float64())
			case 4:
				n := ops.Int63() + 1
				got, exp = uint64(lazy.Int63n(n)), uint64(want.Int63n(n))
			case 5:
				got, exp = uint64(lazy.Uint32()), uint64(want.Uint32())
			default:
				got, exp = uint64(lazy.Int31n(7)), uint64(want.Int31n(7))
			}
			if got != exp {
				t.Fatalf("seed %d, draw %d: got %#x, math/rand %#x", seed, d, got, exp)
			}
		}
	}
}

// TestReseedMidRegister re-seeds a source after every draw count up to
// past one register length, where the lazily built and the written
// words meet.
func TestReseedMidRegister(t *testing.T) {
	s := New(5)
	for n := 0; n <= regLen+2; n += 17 {
		for i := 0; i < n; i++ {
			s.Uint64()
		}
		seed := int64(n)*7919 - 3
		s.Seed(seed)
		want := rand.NewSource(seed).(rand.Source64)
		for i := 0; i < 2*regLen; i++ {
			if got, exp := s.Uint64(), want.Uint64(); got != exp {
				t.Fatalf("re-seed after %d draws, draw %d: got %#x, want %#x", n, i, got, exp)
			}
		}
	}
}

func TestSeedAndDrawDoNotAllocate(t *testing.T) {
	s := New(1)
	r := rand.New(s)
	seed := int64(0)
	allocs := testing.AllocsPerRun(100, func() {
		seed++
		r.Seed(seed)
		for i := 0; i < 12; i++ {
			r.Int63()
		}
	})
	if allocs != 0 {
		t.Errorf("re-seeding and drawing allocated %.1f times per run", allocs)
	}
}

func BenchmarkSeedAndDraw12(b *testing.B) {
	b.Run("lazyrand", func(b *testing.B) {
		r := rand.New(New(1))
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			r.Seed(int64(i))
			for j := 0; j < 12; j++ {
				r.Int63()
			}
		}
	})
	b.Run("math-rand", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			r := rand.New(rand.NewSource(int64(i)))
			for j := 0; j < 12; j++ {
				r.Int63()
			}
		}
	})
}
