// Package stats provides the small statistical toolkit the
// experiments need: summary statistics, geometric means for the
// Table 2 overhead aggregation, binomial confidence intervals for the
// Monte-Carlo attack estimates, and the closed-form birthday-paradox
// quantities of Section 6.2.1.
package stats

import (
	"fmt"
	"math"
	"sort"
)

// Mean returns the arithmetic mean of xs; 0 for an empty slice.
func Mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var sum float64
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}

// StdDev returns the sample standard deviation of xs.
func StdDev(xs []float64) float64 {
	if len(xs) < 2 {
		return 0
	}
	m := Mean(xs)
	var ss float64
	for _, x := range xs {
		d := x - m
		ss += d * d
	}
	return math.Sqrt(ss / float64(len(xs)-1))
}

// GeoMean returns the geometric mean of xs. All inputs must be
// positive; the paper aggregates 1+overhead ratios this way for
// Table 2.
func GeoMean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var logs float64
	for _, x := range xs {
		if x <= 0 {
			panic(fmt.Sprintf("stats: GeoMean of non-positive value %g", x))
		}
		logs += math.Log(x)
	}
	return math.Exp(logs / float64(len(xs)))
}

// GeoMeanOverhead aggregates per-benchmark overhead fractions (e.g.
// 0.03 for 3%) as the geometric mean of the slowdown ratios, the
// aggregation used for Table 2.
func GeoMeanOverhead(overheads []float64) float64 {
	ratios := make([]float64, len(overheads))
	for i, o := range overheads {
		ratios[i] = 1 + o
	}
	return GeoMean(ratios) - 1
}

// Median returns the median of xs.
func Median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// Binomial is an observed success count out of N trials.
type Binomial struct {
	Successes int
	Trials    int
}

// Rate returns the observed success probability.
func (b Binomial) Rate() float64 {
	if b.Trials == 0 {
		return 0
	}
	return float64(b.Successes) / float64(b.Trials)
}

// Wilson returns the Wilson score interval at the given z (1.96 for
// 95%). Robust near 0 and 1, where the attack probabilities live. The
// interval always contains the point estimate: at 0 or n successes
// center-half (or center+half) is exactly p in real arithmetic, and
// rounding must not push it a few ulps past.
func (b Binomial) Wilson(z float64) (lo, hi float64) {
	if b.Trials == 0 {
		return 0, 1
	}
	n := float64(b.Trials)
	p := b.Rate()
	z2 := z * z
	den := 1 + z2/n
	center := (p + z2/(2*n)) / den
	half := z / den * math.Sqrt(p*(1-p)/n+z2/(4*n*n))
	return math.Max(0, math.Min(p, center-half)), math.Min(1, math.Max(p, center+half))
}

// String renders the estimate with its 95% interval.
func (b Binomial) String() string {
	lo, hi := b.Wilson(1.96)
	return fmt.Sprintf("%d/%d = %.3g [%.3g, %.3g]", b.Successes, b.Trials, b.Rate(), lo, hi)
}

// BirthdayCollisionProb returns the probability that at least two of
// q uniformly random b-bit tokens collide — Section 6.2.1:
//
//	p_collision(q) = 1 - 2^b! / ((2^b - q)! * 2^(bq))
//
// computed in log space to stay stable for large q.
func BirthdayCollisionProb(b, q int) float64 {
	n := math.Exp2(float64(b))
	if float64(q) >= n {
		return 1
	}
	var logNoCollision float64
	for i := 0; i < q; i++ {
		logNoCollision += math.Log1p(-float64(i) / n)
	}
	return -math.Expm1(logNoCollision)
}

// BirthdayExpectedDraws returns the expected number of tokens drawn
// before some pair collides: sqrt(pi * 2^b / 2), i.e. ~321 for b=16
// (Section 6.2.1) and ~1.2533 * 2^(b/2) in the Section 4.2 form.
func BirthdayExpectedDraws(b int) float64 {
	return math.Sqrt(math.Pi * math.Exp2(float64(b)) / 2)
}

// GuessesForSuccessProb returns the number of independent guesses,
// each succeeding with probability 2^-b, needed to reach overall
// success probability p (Section 4.3):
//
//	log(1-p) / log(1 - 2^-b)
func GuessesForSuccessProb(b int, p float64) float64 {
	if p <= 0 || p >= 1 {
		panic("stats: p must be in (0, 1)")
	}
	return math.Log1p(-p) / math.Log1p(-math.Exp2(-float64(b)))
}
