// Package lazyrand is a math/rand source for code that seeds a source
// per request and then draws only a few values from it.
//
// rand.NewSource(seed) fills its whole 607-word feedback register when
// it is seeded: 1,841 steps of a multiplicative congruential generator.
// A kernel seeded per incarnation draws about a dozen values, so most
// of that work is wasted. Source yields exactly the stream of
// rand.NewSource(seed), but computes a register word only when a draw
// first reads it, and a re-Seed costs nothing.
package lazyrand

import "math/rand"

// Parameters of math/rand's additive lagged Fibonacci generator and of
// the congruential generator that seeds it.
const (
	regLen  = 607
	regTap  = 273
	int63   = 1<<63 - 1
	m31     = 1<<31 - 1 // the congruential modulus
	mult    = 48271     // the congruential multiplier
	zeroSub = 89482311  // what math/rand seeds with in place of 0
)

// stride[i] is mult^(3i+21) mod m31. Seeding runs the congruential
// generator 20 steps, then 3 more per register word, so word i is
// built from the values at steps 3i+21, 3i+22 and 3i+23.
var stride = func() (s [regLen]uint64) {
	x := uint64(1)
	for j := 1; j <= 3*(regLen-1)+21; j++ {
		x = x * mult % m31
		if j >= 21 && (j-21)%3 == 0 {
			s[(j-21)/3] = x
		}
	}
	return s
}()

// cooked is the constant math/rand XORs into each seeded register
// word. It is recovered from math/rand's own output: see recoverCooked.
var cooked = recoverCooked()

// Source is a rand.Source64 whose stream equals that of
// rand.NewSource(seed). Like math/rand's source it is not safe for
// concurrent use.
type Source struct {
	x0   uint64 // the congruential generator's start, see reduce
	tap  int
	feed int
	// n counts the draws since Seed, up to regLen. A register word
	// holds a value only once a draw has written it: draw k writes
	// word (regLen-regTap-1-k) mod regLen, so the first n draws have
	// written the n words counting down from regLen-regTap-1.
	n   int
	reg [regLen]int64
}

var _ rand.Source64 = (*Source)(nil)

// New returns a source seeded with seed.
func New(seed int64) *Source {
	s := &Source{}
	s.Seed(seed)
	return s
}

// Seed restarts the stream at seed, as rand.NewSource(seed) starts it.
func (s *Source) Seed(seed int64) {
	s.x0 = reduce(seed)
	s.tap = 0
	s.feed = regLen - regTap
	s.n = 0
}

// reduce maps a seed to the congruential generator's start, as
// math/rand does.
func reduce(seed int64) uint64 {
	seed %= m31
	if seed < 0 {
		seed += m31
	}
	if seed == 0 {
		seed = zeroSub
	}
	return uint64(seed)
}

// word returns register word i as the stream sees it now.
func (s *Source) word(i int) int64 {
	d := regLen - regTap - 1 - i // the draw that first writes word i
	if d < 0 {
		d += regLen
	}
	if d < s.n {
		return s.reg[i]
	}
	return congruential(s.x0, i) ^ cooked[i]
}

// congruential returns the part of seeded register word i that the
// congruential generator started at x0 contributes.
func congruential(x0 uint64, i int) int64 {
	x := x0 * stride[i] % m31
	u := int64(x) << 40
	x = x * mult % m31
	u ^= int64(x) << 20
	x = x * mult % m31
	return u ^ int64(x)
}

// Uint64 returns the next 64-bit value of the stream.
func (s *Source) Uint64() uint64 {
	s.tap--
	if s.tap < 0 {
		s.tap += regLen
	}
	s.feed--
	if s.feed < 0 {
		s.feed += regLen
	}
	x := s.word(s.feed) + s.word(s.tap)
	s.reg[s.feed] = x
	if s.n < regLen {
		s.n++
	}
	return uint64(x)
}

// Int63 returns the next value of the stream with its top bit cleared.
func (s *Source) Int63() int64 { return int64(s.Uint64() & int63) }

// recoverCooked runs math/rand's recurrence backwards over its first
// regLen outputs for one seed, which gives the seeded register, and
// strips the congruential part from each word.
//
// Draw k adds word tap(k) = regLen-1-k into word feed(k) and returns
// the sum. From draw regTap on, word tap(k) is the one draw k-regTap
// wrote, so the seeded word feed(k) is out[k]-out[k-regTap]. Before
// that, word tap(k) still holds its seeded value, which the first loop
// recovered from draw k+regLen-regTap.
func recoverCooked() (c [regLen]int64) {
	const seed = 1
	src := rand.NewSource(seed).(rand.Source64)
	var out, reg [regLen]int64
	for k := range out {
		out[k] = int64(src.Uint64())
	}
	feed := func(k int) int { return (2*regLen - regTap - 1 - k) % regLen }
	for k := regTap; k < regLen; k++ {
		reg[feed(k)] = out[k] - out[k-regTap]
	}
	for k := 0; k < regTap; k++ {
		reg[feed(k)] = out[k] - reg[regLen-1-k]
	}
	for i := range c {
		c[i] = reg[i] ^ congruential(reduce(seed), i)
	}
	return c
}
