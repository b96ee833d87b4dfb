package qarma

// The cell-at-a-time QARMA-64 reference: the round functions exactly
// as the specification states them, one 4-bit cell at a time. The
// table-driven Cipher must agree with it on every input
// (TestTablesMatchReference).

// refCipher is the reference cipher for one key, S-box and round
// count.
type refCipher struct {
	w0, w1 uint64 // whitening keys
	k0, k1 uint64 // core keys (k1 = k0; kept separate to mirror the spec)
	rounds int
	fwd    [16]uint64 // S-box
	inv    [16]uint64 // its inverse
}

func newRef(w0, k0 uint64, rounds int, sb Sigma) *refCipher {
	c := &refCipher{w0: w0, w1: omega(w0), k0: k0, k1: k0, rounds: rounds}
	for i, v := range sigma[sb] {
		c.fwd[i] = uint64(v)
		c.inv[v] = uint64(i)
	}
	return c
}

func (c *refCipher) encrypt(p, t uint64) uint64 {
	is := p ^ c.w0
	tweak := t

	// Forward rounds. Round 0 is "short": no shuffle or MixColumns.
	for i := 0; i < c.rounds; i++ {
		is = c.forward(is, c.k0^tweak^roundConstants[i], i != 0)
		tweak = tweakForward(tweak)
	}

	// Central construction: one full forward round keyed with
	// w1 ^ tweak, the pseudo-reflector keyed with k1, then one full
	// backward round keyed with w0 ^ tweak.
	is = c.forward(is, c.w1^tweak, true)
	is = reflect(is, c.k1)
	is = c.backward(is, c.w0^tweak, true)

	// Backward rounds, mirroring the forward ones.
	for i := c.rounds - 1; i >= 0; i-- {
		tweak = tweakBackward(tweak)
		is = c.backward(is, c.k0^tweak^roundConstants[i]^alpha, i != 0)
	}

	return is ^ c.w1
}

// decrypt runs the encryption circuit backwards.
func (c *refCipher) decrypt(ct, t uint64) uint64 {
	is := ct ^ c.w1

	// Recompute the tweak sequence so we can walk it in reverse.
	tweaks := make([]uint64, c.rounds+1)
	tw := t
	for i := 0; i < c.rounds; i++ {
		tweaks[i] = tw
		tw = tweakForward(tw)
	}
	tweaks[c.rounds] = tw // tweak used for the central rounds

	// Undo backward rounds (they become forward rounds in reverse).
	for i := 0; i < c.rounds; i++ {
		is = c.forward(is, c.k0^tweaks[i]^roundConstants[i]^alpha, i != 0)
	}

	// Undo the central construction.
	is = c.forward(is, c.w0^tweaks[c.rounds], true)
	is = reflectInv(is, c.k1)
	is = c.backward(is, c.w1^tweaks[c.rounds], true)

	// Undo forward rounds.
	for i := c.rounds - 1; i >= 0; i-- {
		is = c.backward(is, c.k0^tweaks[i]^roundConstants[i], i != 0)
	}

	return is ^ c.w0
}

// forward applies one forward round: add round tweakey, then (unless
// the round is short) ShuffleCells and MixColumns, then the S layer.
func (c *refCipher) forward(is, tk uint64, full bool) uint64 {
	is ^= tk
	if full {
		is = shuffle(is, cellPerm[:])
		is = mixColumns(is)
	}
	return substitute(is, &c.fwd)
}

// backward applies one inverse round: inverse S layer, then (unless
// short) inverse MixColumns and inverse ShuffleCells, then add the
// round tweakey.
func (c *refCipher) backward(is, tk uint64, full bool) uint64 {
	is = substitute(is, &c.inv)
	if full {
		is = mixColumns(is) // M is involutory
		is = shuffle(is, cellPermInv[:])
	}
	return is ^ tk
}

// reflect is the pseudo-reflector: ShuffleCells, multiply by the
// involutory matrix Q (= M), add the core key, inverse ShuffleCells.
func reflect(is, k uint64) uint64 {
	is = shuffle(is, cellPerm[:])
	is = mixColumns(is)
	is ^= k
	return shuffle(is, cellPermInv[:])
}

// reflectInv inverts reflect. The key addition sits between Q and
// τ⁻¹, so the reflector is not an involution even though Q is.
func reflectInv(is, k uint64) uint64 {
	is = shuffle(is, cellPerm[:])
	is ^= k
	is = mixColumns(is)
	return shuffle(is, cellPermInv[:])
}

// substitute applies the S-box to every cell.
func substitute(v uint64, sb *[16]uint64) uint64 {
	var out uint64
	for i := 0; i < 16; i++ {
		out = withCell(out, i, sb[cell(v, i)])
	}
	return out
}

// tweakPermInv is h⁻¹.
var tweakPermInv = invertPerm(tweakPerm)

// tweakBackward inverts tweakForward.
func tweakBackward(t uint64) uint64 {
	for _, i := range lfsrCells {
		t = withCell(t, i, lfsrInv(cell(t, i)))
	}
	return shuffle(t, tweakPermInv[:])
}

// lfsrInv inverts lfsr: (y3, y2, y1, y0) -> (y2, y1, y0, y3 XOR y0).
func lfsrInv(x uint64) uint64 {
	y0 := x & 1
	y3 := (x >> 3) & 1
	return ((x << 1) | (y3 ^ y0)) & 0xF
}
