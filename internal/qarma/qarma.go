// Package qarma implements the QARMA-64 tweakable block cipher
// (R. Avanzi, "The QARMA Block Cipher Family", IACR ToSC 2017(1)).
//
// QARMA is the reference primitive behind the ARMv8.3-A pointer
// authentication (PA) extension: a PAC is a truncation of
// QARMA-64(key, pointer, modifier). This package provides the full
// cipher — encryption and decryption, all three S-box variants, and a
// configurable number of rounds — so that the PA model built on top of
// it reproduces the exact collision and truncation behaviour the
// PACStack security analysis depends on.
//
// The state is 64 bits viewed as sixteen 4-bit cells arranged in a 4x4
// matrix; cell 0 is the most significant nibble. The key is 128 bits,
// split into a whitening key w0 and a core key k0.
//
// Encryption and decryption run a byte at a time on tables built once
// at package init: every XOR-linear layer (ShuffleCells then
// MixColumns, its inverse, the pseudo-reflector core and the tweak
// update) is eight 256-entry uint64 tables indexed by state byte, and
// every S-box is a 256-entry byte table substituting two cells at
// once. The tables are tabulated from the cell-at-a-time primitives
// below, and a differential test holds the result to a cell-at-a-time
// reference cipher.
package qarma

import "math/bits"

// Sigma selects one of the three involutory-or-almost S-boxes defined
// for the QARMA family. The ARMv8.3-A reference implementation uses
// σ1; σ0 is the cheapest and σ2 the one with the best cryptographic
// properties.
type Sigma int

// S-box variants from the QARMA specification.
const (
	Sigma0 Sigma = iota
	Sigma1
	Sigma2
)

// DefaultRounds is the number of forward (and backward) rounds r used
// when no explicit round count is requested. r=7 is the value
// recommended for QARMA-64 in the specification; the published
// known-answer vectors use r=5.
const DefaultRounds = 7

// MaxRounds is the largest round count r the specification defines
// round constants for.
const MaxRounds = 8

// BlockSize is the cipher block size in bytes.
const BlockSize = 8

// KeySize is the cipher key size in bytes (w0 || k0).
const KeySize = 16

// Cipher is a QARMA-64 instance with a fixed key, S-box and round
// count. It is immutable after creation and safe for concurrent use.
type Cipher struct {
	w0, w1 uint64 // whitening keys
	k0     uint64 // core key; the reflector key k1 equals k0
	// rk and rkInv are the reflector's key terms with the reflector's
	// trailing linear layers folded in once: τ⁻¹(k1) for encryption
	// and τ⁻¹M(k1) for decryption (see run).
	rk, rkInv uint64
	rounds    int
	sbox      *sboxTable
}

// Config carries the cipher parameters that are not part of the key.
type Config struct {
	// Rounds is the number of forward rounds r. Zero selects
	// DefaultRounds.
	Rounds int
	// Sbox selects the S-box variant. The zero value is Sigma0.
	Sbox Sigma
}

// New returns a QARMA-64 cipher for the 128-bit key (w0, k0). It
// panics on a round count outside 1..MaxRounds or an unknown S-box.
func New(w0, k0 uint64, cfg Config) *Cipher {
	r := cfg.Rounds
	if r == 0 {
		r = DefaultRounds
	}
	if r < 1 || r > MaxRounds {
		panic("qarma: round count out of range")
	}
	if cfg.Sbox < 0 || int(cfg.Sbox) >= len(sboxes) {
		panic("qarma: unknown S-box variant")
	}
	return &Cipher{
		w0:     w0,
		w1:     omega(w0),
		k0:     k0,
		rk:     shuffle(k0, cellPermInv[:]),
		rkInv:  mtInv.apply(k0),
		rounds: r,
		sbox:   &sboxes[cfg.Sbox],
	}
}

// NewFromBytes builds a cipher from a 16-byte key laid out big-endian
// as w0 || k0.
func NewFromBytes(key []byte, cfg Config) *Cipher {
	if len(key) != KeySize {
		panic("qarma: key must be 16 bytes")
	}
	w0 := be64(key[:8])
	k0 := be64(key[8:])
	return New(w0, k0, cfg)
}

func be64(b []byte) uint64 {
	var v uint64
	for _, x := range b {
		v = v<<8 | uint64(x)
	}
	return v
}

// omega derives the secondary whitening key w1 from w0:
// w1 = (w0 >>> 1) XOR (w0 >> 63), i.e. a rotation with the wrapped bit
// also folded into the least significant position.
func omega(w0 uint64) uint64 {
	return (w0>>1 | w0<<63) ^ (w0 >> 63)
}

// Encrypt computes the QARMA-64 encryption of the plaintext block p
// under tweak t.
func (c *Cipher) Encrypt(p, t uint64) uint64 {
	return c.run(p, t, c.w0, c.w1, 0, c.rk)
}

// Decrypt inverts Encrypt: Decrypt(Encrypt(p, t), t) == p.
//
// QARMA decryption is the encryption circuit under the derived key
// set the specification gives: the whitening keys swapped, α moved
// from the backward round keys to the forward ones, and the reflector
// key term τ⁻¹M(k1) in place of τ⁻¹(k1).
func (c *Cipher) Decrypt(ct, t uint64) uint64 {
	return c.run(ct, t, c.w1, c.w0, alpha, c.rkInv)
}

// run is the QARMA-64 circuit: r forward rounds (round 0 short, with
// no ShuffleCells or MixColumns), the central construction — one full
// forward round keyed with wb ^ tweak, the pseudo-reflector, one full
// backward round keyed with wa ^ tweak — and r backward rounds that
// mirror the forward ones. a is XORed into the forward round keys and
// a ^ α into the backward ones. The reflector computes
// τ⁻¹(M(τ(x)) ^ k1) for encryption and τ⁻¹(M(τ(x) ^ k1)) for
// decryption; both equal τ⁻¹Mτ(x) ^ rk, with rk folded in New.
func (c *Cipher) run(x, t, wa, wb, a, rk uint64) uint64 {
	s := c.sbox
	kf := c.k0 ^ a
	kb := kf ^ alpha
	// The backward rounds reuse the forward rounds' tweaks in reverse.
	var tweaks [MaxRounds]uint64

	x = s.fwd.apply(x ^ wa ^ kf ^ t) // short round 0; c_0 = 0
	tweak := hOmega.apply(t)
	for i := 1; i < c.rounds; i++ {
		x = s.fwd.apply(tm.apply(x ^ kf ^ tweak ^ roundConstants[i]))
		tweaks[i] = tweak
		tweak = hOmega.apply(tweak)
	}

	x = s.fwd.apply(tm.apply(x ^ wb ^ tweak))
	x = reflector.apply(x) ^ rk
	x = mtInv.apply(s.inv.apply(x)) ^ wa ^ tweak

	for i := c.rounds - 1; i > 0; i-- {
		x = mtInv.apply(s.inv.apply(x)) ^ kb ^ tweaks[i] ^ roundConstants[i]
	}
	return s.inv.apply(x) ^ kb ^ t ^ wb // short round 0
}

// linear is an XOR-linear map on the state tabulated by input byte:
// the image of x is the XOR of t[j][byte j of x] over the eight bytes,
// byte 0 being the most significant (cells 0 and 1).
type linear [8][256]uint64

// tabulate builds the table of the linear map f from its 64 basis
// images.
func tabulate(f func(uint64) uint64) *linear {
	var basis [64]uint64
	for i := range basis {
		basis[i] = f(1 << uint(i))
	}
	t := new(linear)
	for j := range t {
		shift := 56 - 8*j
		for b := 1; b < 256; b++ {
			low := b & -b
			t[j][b] = t[j][b^low] ^ basis[shift+bits.TrailingZeros(uint(low))]
		}
	}
	return t
}

func (t *linear) apply(x uint64) uint64 {
	return t[0][x>>56] ^ t[1][x>>48&0xFF] ^ t[2][x>>40&0xFF] ^ t[3][x>>32&0xFF] ^
		t[4][x>>24&0xFF] ^ t[5][x>>16&0xFF] ^ t[6][x>>8&0xFF] ^ t[7][x&0xFF]
}

// The cipher's tables, built once from the cell primitives.
var (
	tm        = tabulate(tauM)
	mtInv     = tabulate(mTauInv)
	reflector = tabulate(reflectCore)
	hOmega    = tabulate(tweakForward)
	sboxes    = buildSboxes()
)

// tauM is a full forward round's linear layer: τ then M.
func tauM(x uint64) uint64 { return mixColumns(shuffle(x, cellPerm[:])) }

// mTauInv is a full backward round's linear layer, the inverse of
// tauM: M then τ⁻¹.
func mTauInv(x uint64) uint64 { return shuffle(mixColumns(x), cellPermInv[:]) }

// reflectCore is the pseudo-reflector without its key: τ⁻¹Mτ.
func reflectCore(x uint64) uint64 { return mTauInv(shuffle(x, cellPerm[:])) }

// byteSbox substitutes both cells of a byte.
type byteSbox [256]uint8

func (s *byteSbox) apply(x uint64) uint64 {
	return uint64(s[x>>56])<<56 | uint64(s[x>>48&0xFF])<<48 | uint64(s[x>>40&0xFF])<<40 |
		uint64(s[x>>32&0xFF])<<32 | uint64(s[x>>24&0xFF])<<24 | uint64(s[x>>16&0xFF])<<16 |
		uint64(s[x>>8&0xFF])<<8 | uint64(s[x&0xFF])
}

// sboxTable is one S-box variant and its inverse, a byte at a time.
type sboxTable struct{ fwd, inv byteSbox }

// buildSboxes tabulates every S-box variant, indexed by Sigma.
func buildSboxes() (t [len(sigma)]sboxTable) {
	for v, box := range sigma {
		inv := invertSbox(box)
		for b := range t[v].fwd {
			t[v].fwd[b] = box[b>>4]<<4 | box[b&0xF]
			t[v].inv[b] = inv[b>>4]<<4 | inv[b&0xF]
		}
	}
	return t
}

// cell extracts 4-bit cell i (cell 0 = most significant nibble).
func cell(v uint64, i int) uint64 {
	return (v >> uint(60-4*i)) & 0xF
}

// withCell returns v with cell i replaced.
func withCell(v uint64, i int, x uint64) uint64 {
	sh := uint(60 - 4*i)
	return (v &^ (0xF << sh)) | (x&0xF)<<sh
}

// shuffle permutes cells: output cell i takes input cell perm[i].
func shuffle(v uint64, perm []int) uint64 {
	var out uint64
	for i := 0; i < 16; i++ {
		out = withCell(out, i, cell(v, perm[i]))
	}
	return out
}

// rotCell rotates a 4-bit cell left by n.
func rotCell(x uint64, n int) uint64 {
	if n == 0 {
		return x & 0xF
	}
	return ((x << uint(n)) | (x >> uint(4-n))) & 0xF
}

// mixColumns multiplies the state, viewed as a 4x4 cell matrix in
// row-major order, by M = M4,2 = circ(0, ρ¹, ρ², ρ¹). The matrix is
// involutory, so it serves as its own inverse and as the reflector
// matrix Q.
func mixColumns(v uint64) uint64 {
	var out uint64
	for col := 0; col < 4; col++ {
		var in [4]uint64
		for row := 0; row < 4; row++ {
			in[row] = cell(v, 4*row+col)
		}
		for row := 0; row < 4; row++ {
			var acc uint64
			for j := 0; j < 4; j++ {
				e := mixExp[(j-row+4)%4]
				if e < 0 {
					continue
				}
				acc ^= rotCell(in[j], e)
			}
			out = withCell(out, 4*row+col, acc)
		}
	}
	return out
}

// tweakForward advances the tweak by one round: permute the cells with
// h, then clock the LFSR ω on cells {0, 1, 3, 4, 8, 11, 13}.
func tweakForward(t uint64) uint64 {
	t = shuffle(t, tweakPerm[:])
	for _, i := range lfsrCells {
		t = withCell(t, i, lfsr(cell(t, i)))
	}
	return t
}

// lfsr is the 4-bit maximal-period LFSR ω used in the tweak schedule:
// (b3, b2, b1, b0) -> (b0 XOR b1, b3, b2, b1).
func lfsr(x uint64) uint64 {
	b0 := x & 1
	b1 := (x >> 1) & 1
	return ((b0^b1)<<3 | x>>1) & 0xF
}
