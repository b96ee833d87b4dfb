package stats

import (
	"math"
	"testing"
)

func almost(a, b, tol float64) bool { return math.Abs(a-b) <= tol }

func TestMeanStdDev(t *testing.T) {
	xs := []float64{2, 4, 4, 4, 5, 5, 7, 9}
	if m := Mean(xs); !almost(m, 5, 1e-12) {
		t.Errorf("Mean = %g", m)
	}
	if sd := StdDev(xs); !almost(sd, 2.138, 1e-3) {
		t.Errorf("StdDev = %g", sd)
	}
	if Mean(nil) != 0 || StdDev(nil) != 0 || StdDev([]float64{1}) != 0 {
		t.Error("empty-input conventions broken")
	}
}

func TestGeoMean(t *testing.T) {
	if g := GeoMean([]float64{1, 4}); !almost(g, 2, 1e-12) {
		t.Errorf("GeoMean = %g", g)
	}
	if g := GeoMean([]float64{2, 8, 4}); !almost(g, 4, 1e-12) {
		t.Errorf("GeoMean = %g", g)
	}
	defer func() {
		if recover() == nil {
			t.Error("GeoMean accepted non-positive input")
		}
	}()
	GeoMean([]float64{1, 0})
}

func TestGeoMeanOverhead(t *testing.T) {
	// Identical overheads aggregate to themselves.
	if g := GeoMeanOverhead([]float64{0.03, 0.03}); !almost(g, 0.03, 1e-12) {
		t.Errorf("GeoMeanOverhead = %g", g)
	}
	// Mixed overheads land between min and max.
	g := GeoMeanOverhead([]float64{0.01, 0.10})
	if g <= 0.01 || g >= 0.10 {
		t.Errorf("GeoMeanOverhead = %g out of range", g)
	}
}

func TestMedian(t *testing.T) {
	if m := Median([]float64{3, 1, 2}); m != 2 {
		t.Errorf("Median odd = %g", m)
	}
	if m := Median([]float64{4, 1, 3, 2}); m != 2.5 {
		t.Errorf("Median even = %g", m)
	}
	if Median(nil) != 0 {
		t.Error("Median(nil) != 0")
	}
}

func TestBinomialWilson(t *testing.T) {
	b := Binomial{Successes: 50, Trials: 100}
	lo, hi := b.Wilson(1.96)
	if lo >= 0.5 || hi <= 0.5 {
		t.Errorf("interval [%g, %g] excludes the point estimate", lo, hi)
	}
	if !almost(b.Rate(), 0.5, 1e-12) {
		t.Errorf("Rate = %g", b.Rate())
	}
	// Degenerate cases stay in [0, 1].
	for _, bb := range []Binomial{{0, 100}, {100, 100}, {0, 0}} {
		lo, hi := bb.Wilson(1.96)
		if lo < 0 || hi > 1 || lo > hi {
			t.Errorf("%+v: interval [%g, %g]", bb, lo, hi)
		}
	}
	if s := (Binomial{1, 10}).String(); s == "" {
		t.Error("empty String")
	}
}

// TestWilsonCoversTruthProperty walks every uint8 pair (successes,
// extra failures): the interval stays in [0, 1] and contains its own
// point estimate.
func TestWilsonCoversTruthProperty(t *testing.T) {
	for succ := 0; succ < 256; succ++ {
		for extra := 0; extra < 256; extra++ {
			b := Binomial{Successes: succ, Trials: succ + extra + 1}
			lo, hi := b.Wilson(1.96)
			if p := b.Rate(); !(lo <= p && p <= hi && lo >= 0 && hi <= 1) {
				t.Fatalf("%+v: interval [%g, %g] around %g", b, lo, hi, p)
			}
		}
	}
}

func TestBirthdayNumbersFromPaper(t *testing.T) {
	// Section 4.2 / 6.2.1: with b = 16 a collision is expected after
	// about 321 tokens (1.2533 * 2^8).
	if e := BirthdayExpectedDraws(16); !almost(e, 320.87, 0.5) {
		t.Errorf("expected draws for b=16: %g, paper says ~321", e)
	}
	// p_collision at the expected draw count is near 1 - e^(-pi/4) ~ 0.54.
	p := BirthdayCollisionProb(16, 321)
	if p < 0.5 || p > 0.6 {
		t.Errorf("p_collision(321) = %g", p)
	}
	// Monotone in q; saturates at 1.
	if BirthdayCollisionProb(16, 10) >= BirthdayCollisionProb(16, 1000) {
		t.Error("collision probability not monotone")
	}
	if BirthdayCollisionProb(4, 100) != 1 {
		t.Error("over-full birthday table should be certain")
	}
}

func TestGuessesForSuccessProb(t *testing.T) {
	// With b=16, a 50% success chance needs about 2^16 * ln 2 ~ 45426
	// guesses.
	g := GuessesForSuccessProb(16, 0.5)
	if !almost(g, 65536*math.Ln2, 10) {
		t.Errorf("guesses = %g", g)
	}
	defer func() {
		if recover() == nil {
			t.Error("accepted p out of range")
		}
	}()
	GuessesForSuccessProb(16, 1.5)
}
