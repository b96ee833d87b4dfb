package qarma

// Constants and tables from the QARMA specification (Avanzi, ToSC
// 2017(1), Section 2). All values are spelled exactly as published.

// roundConstants are the per-round constants c_i, derived from the
// expansion of π. c_0 = 0 so that the first (short) round adds only
// the key and tweak.
var roundConstants = [MaxRounds]uint64{
	0x0000000000000000,
	0x13198A2E03707344,
	0xA4093822299F31D0,
	0x082EFA98EC4E6C89,
	0x452821E638D01377,
	0xBE5466CF34E90C6C,
	0x3F84D5B5B5470917,
	0x9216D5D98979FB1B,
}

// alpha is the constant XORed into the backward round tweakeys to
// break the symmetry between the forward and backward halves.
const alpha = 0xC0AC29B7C97C50DD

// cellPerm is the state cell shuffle τ: output cell i takes input
// cell cellPerm[i].
var cellPerm = [16]int{0, 11, 6, 13, 10, 1, 12, 7, 5, 14, 3, 8, 15, 4, 9, 2}

// cellPermInv is τ⁻¹.
var cellPermInv = invertPerm(cellPerm)

// tweakPerm is the tweak cell permutation h.
var tweakPerm = [16]int{6, 5, 14, 15, 0, 1, 2, 3, 7, 12, 13, 4, 8, 9, 10, 11}

// lfsrCells are the tweak cells clocked by ω each round.
var lfsrCells = [7]int{0, 1, 3, 4, 8, 11, 13}

// mixExp gives the rotation exponents of the circulant MixColumns
// matrix M4,2 = circ(0, ρ¹, ρ², ρ¹); -1 marks the zero entry.
var mixExp = [4]int{-1, 1, 2, 1}

// sigma holds the three QARMA S-boxes, indexed by Sigma.
var sigma = [...][16]uint8{
	Sigma0: {0, 14, 2, 10, 9, 15, 8, 11, 6, 4, 3, 7, 13, 12, 1, 5},
	Sigma1: {10, 13, 14, 6, 15, 7, 3, 5, 9, 8, 0, 12, 11, 1, 2, 4},
	Sigma2: {11, 6, 8, 15, 12, 0, 9, 14, 3, 7, 4, 5, 13, 2, 1, 10},
}

func invertSbox(s [16]uint8) [16]uint8 {
	var inv [16]uint8
	for i, v := range s {
		inv[v] = uint8(i)
	}
	return inv
}

func invertPerm(p [16]int) [16]int {
	var inv [16]int
	for i, v := range p {
		inv[v] = i
	}
	return inv
}
