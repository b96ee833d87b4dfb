// Package pa models the ARMv8.3-A pointer authentication (PA)
// extension on top of the QARMA-64 tweakable block cipher.
//
// A pointer authentication code (PAC) is a keyed, tweakable MAC over a
// pointer's address, truncated into the architecturally unused
// high-order bits of the pointer (Figure 1 of the PACStack paper). The
// PAC width b therefore depends on the configured virtual address size
// and on whether top-byte address tagging is enabled: with the Linux
// default VA_SIZE = 39 and tagging enabled, b = 16.
//
// The package reproduces the behaviours the PACStack security analysis
// relies on:
//
//   - pac* instructions insert a PAC; if the input pointer's extension
//     bits are already corrupt, the PAC for the canonical address is
//     computed and then one well-known PAC bit is flipped (the
//     "re-signing gadget" behaviour of Section 6.3.1).
//   - aut* instructions verify a PAC; on success the canonical pointer
//     is restored, on failure the PAC is stripped and a well-known
//     high-order error bit is flipped so that any dereference or
//     instruction fetch raises a translation fault.
//   - xpac strips a PAC unconditionally.
//   - pacga computes a 32-bit generic MAC in the top half of the
//     result.
package pa

import (
	"crypto/rand"
	"encoding/binary"
	"fmt"
	mrand "math/rand"
	"sync/atomic"

	"pacstack/internal/qarma"
	"pacstack/internal/telemetry"
)

// KeyID names one of the five PA keys of ARMv8.3-A.
type KeyID int

// The five architectural PA keys: two for instruction pointers, two
// for data pointers, and one generic key.
const (
	KeyIA KeyID = iota
	KeyIB
	KeyDA
	KeyDB
	KeyGA
	numKeys
)

// String returns the architectural name of the key.
func (k KeyID) String() string {
	switch k {
	case KeyIA:
		return "IA"
	case KeyIB:
		return "IB"
	case KeyDA:
		return "DA"
	case KeyDB:
		return "DB"
	case KeyGA:
		return "GA"
	}
	return fmt.Sprintf("KeyID(%d)", int(k))
}

// Key is one 128-bit PA key, split into the QARMA whitening and core
// halves.
type Key struct {
	W0, K0 uint64
}

// Keys is a full register file of PA keys, as managed by the kernel
// for one process (APIAKey_EL1 and friends).
type Keys [numKeys]Key

// GenerateKeys draws a fresh, uniformly random key set, as the Linux
// kernel does for a process on exec.
func GenerateKeys() Keys {
	var ks Keys
	var buf [16]byte
	for i := range ks {
		if _, err := rand.Read(buf[:]); err != nil {
			panic("pa: entropy source failed: " + err.Error())
		}
		ks[i] = Key{
			W0: binary.LittleEndian.Uint64(buf[:8]),
			K0: binary.LittleEndian.Uint64(buf[8:]),
		}
	}
	return ks
}

// GenerateKeysFrom draws a key set from a deterministic source.
// Reproducible experiments (fault campaigns, seeded kernels) use this
// so that identical seeds yield identical processes; production-shaped
// paths keep GenerateKeys.
func GenerateKeysFrom(rng *mrand.Rand) Keys {
	var ks Keys
	for i := range ks {
		ks[i] = Key{W0: rng.Uint64(), K0: rng.Uint64()}
	}
	return ks
}

// Fingerprint returns a non-secret 64-bit digest of the key set
// (FNV-1a over the key words). The checkpoint codec (internal/snap)
// stores it next to the serialized key material so a restore can
// verify the keys survived storage intact before any pointer is
// re-authenticated under them; it is a checksum, not a MAC, and
// reveals nothing useful about the keys themselves beyond equality.
func (ks Keys) Fingerprint() uint64 {
	const (
		offset64 = 14695981039346656037
		prime64  = 1099511628211
	)
	h := uint64(offset64)
	mix := func(v uint64) {
		for i := 0; i < 8; i++ {
			h ^= (v >> (8 * i)) & 0xff
			h *= prime64
		}
	}
	for _, k := range ks {
		mix(k.W0)
		mix(k.K0)
	}
	return h
}

// Config fixes the pointer layout and cipher parameters.
type Config struct {
	// VASize is the number of virtual address bits. The 64-bit ARM
	// Linux default is 39.
	VASize int
	// Tagging enables top-byte-ignore address tags, which removes
	// bits 63:56 from the PAC field.
	Tagging bool
	// Rounds selects the QARMA-64 round count (0 = qarma.DefaultRounds).
	Rounds int
	// Sbox selects the QARMA S-box variant.
	Sbox qarma.Sigma
}

// DefaultConfig matches the platform evaluated in the paper: Linux
// with VA_SIZE = 39 and address tagging enabled, giving a 16-bit PAC.
func DefaultConfig() Config {
	return Config{VASize: 39, Tagging: true}
}

// signBit is the bit that selects the translation table (kernel vs
// user addresses) and defines the canonical value of all extension
// bits. It is never part of the PAC.
const signBit = 55

// On authentication failure the architecture writes an error code
// into the top bits of the PAC field: a pointer with one of them
// flipped is non-canonical and faults on translation. A-keys flip the
// topmost PAC bit, B-keys the one below it, so the faulting key class
// is visible in the corrupt pointer.

// poisonBit is the PAC bit (counted from the low end of the PAC
// field) flipped by a pac* instruction whose input pointer had corrupt
// extension bits (Section 6.3.1, Listing 7).
const poisonBit = 0

// Trace is the chain-level telemetry hook: counters over the PA
// operations that make up the paper's authenticated chain, plus an
// optional event log for per-operation security events. All fields
// are optional (nil handles record nothing), and a nil *Trace on the
// Authenticator costs exactly one predictable branch per operation —
// the telemetry.Nop contract.
//
// Masks counts PAC derivations over the zero pointer: under full ACS
// (Listing 3) the mask applied to and stripped from aret is
// PAC(0, aret_{i-1}), so every mask/unmask side evaluates exactly
// this shape. Apply and strip derive the same value (XOR is an
// involution), so one counter covers both.
type Trace struct {
	PACIssued *telemetry.Counter // pac* seals
	AuthOK    *telemetry.Counter // aut* verifications that passed
	AuthFail  *telemetry.Counter // aut* rejections — the core signal
	Masks     *telemetry.Counter // PAC(0, ·) mask derivations
	MemoHit   *telemetry.Counter // computePAC served from the memo cache
	MemoMiss  *telemetry.Counter // computePAC evaluated the full cipher
	Strips    *telemetry.Counter // xpac strips
	PACGAs    *telemetry.Counter // generic MACs (sigframe chain, jmp_buf)

	// Events, when non-nil, receives one auth_fail event per rejected
	// aut*. Seals, passing verifications and mask derivations are
	// counted only: a chain request makes dozens of them, and recorded
	// one by one they would evict every real auth_fail or kill from a
	// bounded ring within a few dozen requests.
	Events *telemetry.EventLog
}

// Authenticator implements the PA instructions for one process' key
// set under a fixed configuration. It is safe for concurrent use.
type Authenticator struct {
	cfg     Config
	ciphers [numKeys]*qarma.Cipher
	pacMask uint64 // bits that hold the PAC
	extMask uint64 // all non-address bits above VASize (incl. sign bit)
	tagMask uint64 // top-byte tag bits when tagging is enabled
	memo    *[pacCacheSize]pacEntry
	epoch   uint64 // this Authenticator's share of every memo tag
	tr      *Trace
}

// SetTrace wires chain-level telemetry in (nil detaches it). Call it
// before the process runs: the field is read without synchronisation
// on the hot path, so flipping it mid-execution is a race.
func (a *Authenticator) SetTrace(t *Trace) { a.tr = t }

// pacCacheSize is the number of direct-mapped memo entries per
// Authenticator (power of two). Sized so the working set of a deep
// call chain — one live (ptr, modifier) pair per activation — fits.
const pacCacheSize = 1024

// pacEntry memoizes one computePAC evaluation. Every call/return pair
// evaluates the same QARMA block twice (pac* on call, aut* on
// return), and loops re-sign identical (pointer, modifier) pairs each
// iteration, so a hit skips the full cipher.
//
// The cipher is a pure function of (key, pointer, modifier) and keys
// are fixed for the Authenticator's lifetime, so memoization cannot
// change results — a hit is only taken when the full tuple matches
// exactly, the tag naming both the key and the Authenticator's epoch;
// index collisions merely miss. Entries are published under a seqlock
// (seq odd while a writer owns the entry, fields re-read consistent
// only if seq is even and unchanged) with every field atomic, which
// keeps the Authenticator safe for concurrent use — including under
// the race detector — without a lock on the hit path.
type pacEntry struct {
	seq atomic.Uint64 // even: stable; odd: write in progress
	tag atomic.Uint64 // memoTag of the key and the writer's epoch
	ptr atomic.Uint64
	mod atomic.Uint64
	val atomic.Uint64
}

// epochs hands every Authenticator an epoch of its own. A memo table
// outlives the Authenticator that allocated it when NewFrom hands it
// on, but no two Authenticators, and so no two key sets, ever share a
// tag — even two successors of one Authenticator, as a forked child
// and its parent can each re-key from the one they share. The counter
// is global rather than per table because 8 more bytes would push the
// 40 KiB table into the next allocation size class.
var epochs atomic.Uint64

// memoTag is the tag an entry for key carries under epoch: the key in
// the low bits, the epoch above them. Epochs start at 1, so no tag is
// zero.
func memoTag(key KeyID, epoch uint64) uint64 { return epoch<<3 | uint64(key) }

// pacIndex mixes the lookup tuple into a cache slot.
func pacIndex(key KeyID, p, modifier uint64) uint64 {
	h := p*0x9E3779B97F4A7C15 ^ modifier*0xBF58476D1CE4E5B9 ^ uint64(key)*0x94D049BB133111EB
	h ^= h >> 32
	return h & (pacCacheSize - 1)
}

// New builds an Authenticator for the given keys and configuration.
func New(keys Keys, cfg Config) *Authenticator { return NewFrom(nil, keys, cfg) }

// NewFrom is New for the next incarnation of the process prev served
// (nil prev is New). The new Authenticator takes over prev's memo
// table instead of allocating and zeroing a fresh one, under an epoch
// of its own: what prev memoized just misses, so results and the
// memo hit and miss counts are those of a fresh table. prev stays
// correct if it is still used, but then the two evict each other's
// entries and the counts no longer match a fresh table's.
func NewFrom(prev *Authenticator, keys Keys, cfg Config) *Authenticator {
	if cfg.VASize < 32 || cfg.VASize > 52 {
		panic(fmt.Sprintf("pa: unsupported VA size %d", cfg.VASize))
	}
	a := &Authenticator{cfg: cfg, epoch: epochs.Add(1)}
	if prev != nil {
		a.memo = prev.memo
	} else {
		a.memo = new([pacCacheSize]pacEntry)
	}
	for i, k := range keys {
		a.ciphers[i] = qarma.New(k.W0, k.K0, qarma.Config{Rounds: cfg.Rounds, Sbox: cfg.Sbox})
	}
	// PAC occupies bits 54 .. VASize, plus 63:56 without tagging.
	for b := cfg.VASize; b < signBit; b++ {
		a.pacMask |= 1 << uint(b)
	}
	if !cfg.Tagging {
		a.pacMask |= 0xFF00000000000000
	} else {
		a.tagMask = 0xFF00000000000000
	}
	// Extension bits are everything above the address bits except the
	// tag byte (which translation ignores when tagging is on).
	for b := cfg.VASize; b < 64; b++ {
		a.extMask |= 1 << uint(b)
	}
	a.extMask &^= a.tagMask
	return a
}

// PACBits returns the PAC width b in bits.
func (a *Authenticator) PACBits() int {
	n := 0
	for m := a.pacMask; m != 0; m &= m - 1 {
		n++
	}
	return n
}

// PACMask returns the bit mask of pointer bits that carry the PAC.
func (a *Authenticator) PACMask() uint64 { return a.pacMask }

// Canonical returns p with all extension bits (everything above the
// address bits, except tag bits when tagging is enabled) set to the
// sign-extension of bit 55. Tag bits are preserved.
func (a *Authenticator) Canonical(p uint64) uint64 {
	if p&(1<<signBit) != 0 {
		return p | a.extMask
	}
	return p &^ a.extMask
}

// IsCanonical reports whether p's extension bits carry no PAC and no
// corruption, i.e. whether p can be translated without a fault.
func (a *Authenticator) IsCanonical(p uint64) bool {
	return p == a.Canonical(p)
}

// computePAC evaluates the MAC through the memo cache: QARMA-64 over
// the canonical pointer with the modifier as the tweak, then spread
// into the PAC field.
func (a *Authenticator) computePAC(key KeyID, p, modifier uint64) uint64 {
	return a.computePACCanonical(key, a.Canonical(p), modifier)
}

// computePACCanonical is computePAC for a pointer the caller has
// already canonicalized — the single-canonicalization entry every
// sealing/authentication path funnels through, so each PA operation
// canonicalizes its pointer exactly once.
func (a *Authenticator) computePACCanonical(key KeyID, cp, modifier uint64) uint64 {
	e := &a.memo[pacIndex(key, cp, modifier)]
	tag := memoTag(key, a.epoch)
	// A never-written entry has tag 0, which no lookup carries, so the
	// zero tuple cannot false-hit an empty slot; odd seq marks a write
	// in progress.
	if s := e.seq.Load(); s&1 == 0 &&
		e.tag.Load() == tag && e.ptr.Load() == cp && e.mod.Load() == modifier {
		v := e.val.Load()
		if e.seq.Load() == s {
			if a.tr != nil {
				a.tr.MemoHit.Inc()
			}
			return v
		}
	}
	if a.tr != nil {
		a.tr.MemoMiss.Inc()
	}
	v := a.pacFor(key, cp, modifier)
	if s := e.seq.Load(); s&1 == 0 && e.seq.CompareAndSwap(s, s+1) {
		e.tag.Store(tag)
		e.ptr.Store(cp)
		e.mod.Store(modifier)
		e.val.Store(v)
		e.seq.Store(s + 2)
	}
	return v
}

// pacFor is the uncached MAC evaluation; p must already be canonical.
// The full cipher output is folded so every PAC width uses all 64
// output bits.
func (a *Authenticator) pacFor(key KeyID, p, modifier uint64) uint64 {
	ct := a.ciphers[key].Encrypt(p, modifier)
	// Fold the 64-bit ciphertext down to the PAC width, then deposit
	// the bits into the (possibly split) PAC field.
	b := a.PACBits()
	folded := ct
	for sh := 64 - b; sh > 0; sh -= b {
		step := b
		if sh < b {
			step = sh
		}
		folded = (folded >> uint(step)) ^ (folded & (1<<uint(step) - 1))
	}
	return a.depositPAC(folded)
}

// depositPAC scatters the low PACBits() bits of v into the PAC field.
func (a *Authenticator) depositPAC(v uint64) uint64 {
	var out uint64
	bit := uint64(1)
	for m := a.pacMask; m != 0; m &= m - 1 {
		low := m & -m
		if v&bit != 0 {
			out |= low
		}
		bit <<= 1
	}
	return out
}

// AddPAC implements the pac* instructions: it returns p with the PAC
// for (p, modifier) under the chosen key embedded in its extension
// bits.
//
// If p's extension bits are corrupt (non-canonical), the PAC is
// computed for the canonical address and then the well-known poison
// bit of the PAC is flipped, exactly as the architecture specifies.
// This behaviour is what enables — and lets us reproduce — the
// aut/pac re-signing gadget of Section 6.3.1.
func (a *Authenticator) AddPAC(key KeyID, p, modifier uint64) uint64 {
	cp := a.Canonical(p)
	pac := a.computePACCanonical(key, cp, modifier)
	if p != cp {
		pac ^= a.nthPACBit(poisonBit)
	}
	if tr := a.tr; tr != nil {
		tr.PACIssued.Inc()
		if cp == 0 {
			// PAC over the zero pointer: the Listing 3 mask shape.
			tr.Masks.Inc()
		}
	}
	return cp&^a.pacMask | pac
}

// AddPACPair seals two pointers under the same key and modifier in one
// call: the batched entry point the block-compiled execution engine
// (internal/cpu) uses when a superblock contains adjacent pac*
// instructions sharing a modifier — the PACStack masked prologue's
// "sign LR, then derive the PAC(0, ·) mask" pair (Listing 3). Both
// seals flow through the same memo path and emit the same trace
// updates, in the same order, as two AddPAC calls would; only the call
// overhead is batched, so block-compiled and single-step execution
// stay observably identical.
func (a *Authenticator) AddPACPair(key KeyID, p1, p2, modifier uint64) (uint64, uint64) {
	return a.AddPAC(key, p1, modifier), a.AddPAC(key, p2, modifier)
}

// nthPACBit returns the mask of the n-th lowest bit of the PAC field.
func (a *Authenticator) nthPACBit(n int) uint64 {
	m := a.pacMask
	for ; n > 0; n-- {
		m &= m - 1
	}
	return m & -m
}

// Auth implements the aut* instructions. On success it returns the
// canonical pointer and ok = true. On failure it returns the pointer
// with the PAC stripped and an error-code bit flipped — a
// non-canonical value that faults when translated — and ok = false.
//
// Matching the architecture (and current PA behaviour in Linux 5.0),
// Auth itself never traps; the fault happens at use.
func (a *Authenticator) Auth(key KeyID, p, modifier uint64) (res uint64, ok bool) {
	cp := a.Canonical(p)
	want := a.computePACCanonical(key, cp, modifier)
	if p&a.pacMask == want {
		if tr := a.tr; tr != nil {
			tr.AuthOK.Inc()
		}
		return cp, true
	}
	if tr := a.tr; tr != nil {
		// A broken auth_i = H_k(ret_i, aret_{i-1}) link — the event
		// the whole scheme exists to raise.
		tr.AuthFail.Inc()
		tr.Events.Record(telemetry.EvAuthFail, key.String(), "", p)
	}
	bad := cp
	switch key {
	case KeyIB, KeyDB:
		bad ^= a.nthPACBit(a.PACBits() - 2)
	default:
		bad ^= a.nthPACBit(a.PACBits() - 1)
	}
	return bad, false
}

// StripPAC implements xpac: it removes the PAC, restoring the
// canonical pointer without any check.
func (a *Authenticator) StripPAC(p uint64) uint64 {
	if a.tr != nil {
		a.tr.Strips.Inc()
	}
	return a.Canonical(p)
}

// PACGA computes the generic authentication code: a 32-bit MAC over
// (value, modifier) under the GA key, placed in the top half of the
// result with the bottom half zero.
func (a *Authenticator) PACGA(value, modifier uint64) uint64 {
	if a.tr != nil {
		a.tr.PACGAs.Inc()
	}
	ct := a.ciphers[KeyGA].Encrypt(value, modifier)
	return (ct ^ ct<<32) & 0xFFFFFFFF00000000
}
