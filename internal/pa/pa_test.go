package pa

import (
	"fmt"
	mrand "math/rand"
	"reflect"
	"sync"
	"testing"
	"testing/quick"

	"pacstack/internal/qarma"
	"pacstack/internal/telemetry"
)

// testKeys draws a fixed deterministic key set for cache tests that
// compare two Authenticators built over the same keys.
func testKeys() Keys {
	return GenerateKeysFrom(mrand.New(mrand.NewSource(0xACC)))
}

func testAuth(t *testing.T, cfg Config) *Authenticator {
	t.Helper()
	keys := GenerateKeys()
	return New(keys, cfg)
}

func TestPACWidthFigure1(t *testing.T) {
	// Figure 1 / Section 2.2: VA_SIZE = 39 leaves 16 PAC bits when
	// the tag byte is reserved, 24 otherwise.
	cases := []struct {
		cfg  Config
		bits int
	}{
		{Config{VASize: 39, Tagging: true}, 16},
		{Config{VASize: 39, Tagging: false}, 24},
		{Config{VASize: 48, Tagging: true}, 7},
		{Config{VASize: 48, Tagging: false}, 15},
	}
	for _, c := range cases {
		a := testAuth(t, c.cfg)
		if got := a.PACBits(); got != c.bits {
			t.Errorf("VASize=%d tagging=%v: PACBits = %d, want %d",
				c.cfg.VASize, c.cfg.Tagging, got, c.bits)
		}
	}
}

func TestAddAuthRoundTrip(t *testing.T) {
	a := testAuth(t, DefaultConfig())
	f := func(raw uint64, mod uint64) bool {
		p := a.Canonical(raw &^ (1 << 55)) // a user-space pointer
		signed := a.AddPAC(KeyIA, p, mod)
		got, ok := a.Auth(KeyIA, signed, mod)
		return ok && got == p
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestAuthRejectsWrongModifier(t *testing.T) {
	a := testAuth(t, DefaultConfig())
	p := a.Canonical(0x40_1234)
	signed := a.AddPAC(KeyIA, p, 1)
	got, ok := a.Auth(KeyIA, signed, 2)
	if ok {
		// A 2^-16 collision is possible but vanishingly unlikely for
		// a single fixed input; treat it as failure.
		t.Fatal("auth succeeded with wrong modifier")
	}
	if a.IsCanonical(got) {
		t.Error("failed auth returned a canonical (usable) pointer")
	}
	if a.StripPAC(got) != p {
		t.Error("failed auth corrupted the address bits, not just the extension")
	}
}

func TestAuthRejectsWrongKey(t *testing.T) {
	a := testAuth(t, DefaultConfig())
	p := a.Canonical(0x40_1234)
	signed := a.AddPAC(KeyIA, p, 7)
	if _, ok := a.Auth(KeyIB, signed, 7); ok {
		t.Error("auth succeeded under the wrong key")
	}
}

func TestAuthFailureErrorBitsDistinguishKeys(t *testing.T) {
	a := testAuth(t, DefaultConfig())
	p := a.Canonical(0x40_1234)
	badA, _ := a.Auth(KeyIA, p^a.nthPACBit(3), 0)
	badB, _ := a.Auth(KeyIB, p^a.nthPACBit(3), 0)
	if badA == badB {
		t.Error("A- and B-key failures produced identical error encodings")
	}
	if a.IsCanonical(badA) || a.IsCanonical(badB) {
		t.Error("failure encoding is canonical; it must fault on use")
	}
}

func TestCanonicalSignExtension(t *testing.T) {
	a := testAuth(t, DefaultConfig())
	user := uint64(0x40_0000)
	if got := a.Canonical(user); got != user {
		t.Errorf("user pointer not fixed by Canonical: %#x", got)
	}
	kern := uint64(1)<<55 | 0x40_0000
	got := a.Canonical(kern)
	// Bits 54..39 must sign-extend; the tag byte (63:56) is not part
	// of the extension under TBI.
	if got&(1<<54) == 0 || got&(1<<39) == 0 {
		t.Errorf("kernel pointer extension bits not set: %#x", got)
	}
	if got&(1<<60) != 0 {
		t.Errorf("tag byte modified by Canonical: %#x", got)
	}
}

func TestCanonicalPreservesTags(t *testing.T) {
	a := testAuth(t, Config{VASize: 39, Tagging: true})
	tagged := uint64(0xAB)<<56 | 0x40_0000
	if got := a.Canonical(tagged); got != tagged {
		t.Errorf("tag byte not preserved: %#x", got)
	}
	if !a.IsCanonical(tagged) {
		t.Error("tagged pointer should be canonical under TBI")
	}
}

func TestCanonicalIdempotent(t *testing.T) {
	for _, cfg := range []Config{DefaultConfig(), {VASize: 39}, {VASize: 48, Tagging: true}} {
		a := testAuth(t, cfg)
		f := func(p uint64) bool {
			c := a.Canonical(p)
			return a.Canonical(c) == c && a.IsCanonical(c)
		}
		if err := quick.Check(f, nil); err != nil {
			t.Errorf("cfg %+v: %v", cfg, err)
		}
	}
}

func TestStripPAC(t *testing.T) {
	a := testAuth(t, DefaultConfig())
	p := a.Canonical(0x7F_DEAD_BEE8)
	signed := a.AddPAC(KeyDA, p, 42)
	if signed == p {
		t.Skip("PAC happened to be zero for this input")
	}
	if got := a.StripPAC(signed); got != p {
		t.Errorf("StripPAC = %#x, want %#x", got, p)
	}
}

func TestPACDeterministic(t *testing.T) {
	keys := GenerateKeys()
	a1 := New(keys, DefaultConfig())
	a2 := New(keys, DefaultConfig())
	f := func(p, m uint64) bool {
		return a1.AddPAC(KeyIA, p, m) == a2.AddPAC(KeyIA, p, m)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestPACDependsOnKey(t *testing.T) {
	a := New(GenerateKeys(), DefaultConfig())
	b := New(GenerateKeys(), DefaultConfig())
	p := a.Canonical(0x40_1000)
	same := 0
	const trials = 64
	for m := uint64(0); m < trials; m++ {
		if a.AddPAC(KeyIA, p, m) == b.AddPAC(KeyIA, p, m) {
			same++
		}
	}
	// With b = 16, two keys agreeing on more than a few of 64 random
	// PACs is astronomically unlikely.
	if same > 3 {
		t.Errorf("different keys agreed on %d/%d PACs", same, trials)
	}
}

func TestResignPoisonBit(t *testing.T) {
	// Section 6.3.1: pac on a pointer with corrupt extension bits must
	// not produce the valid PAC, but one differing in exactly the
	// well-known poison bit.
	a := testAuth(t, DefaultConfig())
	p := a.Canonical(0x40_2000)
	valid := a.AddPAC(KeyIA, p, 99)

	corrupt, ok := a.Auth(KeyIA, p^a.nthPACBit(5), 99) // guaranteed bad PAC
	if ok {
		t.Fatal("corrupt PAC authenticated")
	}
	resigned := a.AddPAC(KeyIA, corrupt, 99)
	if resigned == valid {
		t.Fatal("re-signing a corrupt pointer yielded a valid PAC directly")
	}
	if resigned^valid != a.nthPACBit(0) {
		t.Errorf("poison delta = %#x, want single bit %#x", resigned^valid, a.nthPACBit(0))
	}
	// The attacker's final step: flip the poison bit back.
	if fixed := resigned ^ a.nthPACBit(0); fixed != valid {
		t.Error("flipping the poison bit back did not recover the valid PAC")
	}
}

func TestPACGA(t *testing.T) {
	a := testAuth(t, DefaultConfig())
	g := a.PACGA(0x1234, 0x5678)
	if g&0x00000000FFFFFFFF != 0 {
		t.Errorf("PACGA low half must be zero: %#x", g)
	}
	if g == 0 {
		t.Skip("32-bit MAC happened to be zero")
	}
	if a.PACGA(0x1234, 0x5679) == g && a.PACGA(0x1235, 0x5678) == g {
		t.Error("PACGA ignores its inputs")
	}
}

func TestGenerateKeysDistinct(t *testing.T) {
	ks := GenerateKeys()
	for i := 0; i < int(numKeys); i++ {
		for j := i + 1; j < int(numKeys); j++ {
			if ks[i] == ks[j] {
				t.Errorf("keys %v and %v identical", KeyID(i), KeyID(j))
			}
		}
	}
	if GenerateKeys() == ks {
		t.Error("two GenerateKeys calls returned the same key set")
	}
}

func TestKeyIDString(t *testing.T) {
	want := map[KeyID]string{KeyIA: "IA", KeyIB: "IB", KeyDA: "DA", KeyDB: "DB", KeyGA: "GA"}
	for id, s := range want {
		if id.String() != s {
			t.Errorf("KeyID(%d).String() = %q, want %q", id, id.String(), s)
		}
	}
}

func TestNewPanicsOnBadVASize(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("expected panic for VASize 10")
		}
	}()
	New(GenerateKeys(), Config{VASize: 10})
}

func TestPACDistributionRoughlyUniform(t *testing.T) {
	// Sanity-check that the PAC behaves like a 16-bit random function:
	// over 4096 modifiers the observed collision count should be near
	// the birthday expectation, not degenerate.
	a := testAuth(t, DefaultConfig())
	p := a.Canonical(0x40_3000)
	seen := make(map[uint64]int)
	const n = 4096
	for m := uint64(0); m < n; m++ {
		seen[a.AddPAC(KeyIA, p, m)&a.PACMask()]++
	}
	if len(seen) < n*9/10 {
		t.Errorf("only %d distinct PACs over %d modifiers; distribution is degenerate", len(seen), n)
	}
}

func BenchmarkAddPAC(b *testing.B) {
	a := New(GenerateKeys(), DefaultConfig())
	b.ReportAllocs()
	var sink uint64
	for i := 0; i < b.N; i++ {
		sink ^= a.AddPAC(KeyIA, 0x40_0000, uint64(i))
	}
	_ = sink
}

func BenchmarkAuth(b *testing.B) {
	a := New(GenerateKeys(), DefaultConfig())
	signed := a.AddPAC(KeyIA, 0x40_0000, 7)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		a.Auth(KeyIA, signed, 7)
	}
}

func TestAllKeysRoundTripProperty(t *testing.T) {
	a := testAuth(t, DefaultConfig())
	keys := []KeyID{KeyIA, KeyIB, KeyDA, KeyDB}
	f := func(raw, mod uint64, pick uint8) bool {
		k := keys[int(pick)%len(keys)]
		p := a.Canonical(raw &^ (1 << 55))
		got, ok := a.Auth(k, a.AddPAC(k, p, mod), mod)
		return ok && got == p
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestKeysProduceIndependentPACs(t *testing.T) {
	a := testAuth(t, DefaultConfig())
	p := a.Canonical(0x40_5000)
	keys := []KeyID{KeyIA, KeyIB, KeyDA, KeyDB}
	agree := 0
	const trials = 64
	for m := uint64(0); m < trials; m++ {
		pacs := map[uint64]bool{}
		for _, k := range keys {
			pacs[a.AddPAC(k, p, m)] = true
		}
		if len(pacs) < len(keys) {
			agree++
		}
	}
	if agree > 3 {
		t.Errorf("different keys agreed on the same PAC in %d/%d trials", agree, trials)
	}
}

func TestConfigVariantsRoundTrip(t *testing.T) {
	// The authenticator works across cipher parameterizations: round
	// counts and S-box variants only change the PAC values, never the
	// sign/verify contract.
	cfgs := []Config{
		{VASize: 39, Tagging: true, Rounds: 5, Sbox: qarma.Sigma1},
		{VASize: 39, Tagging: false, Rounds: 7, Sbox: qarma.Sigma2},
		{VASize: 48, Tagging: false},
	}
	for _, cfg := range cfgs {
		a := testAuth(t, cfg)
		p := a.Canonical(0x40_6000)
		signed := a.AddPAC(KeyIA, p, 9)
		if got, ok := a.Auth(KeyIA, signed, 9); !ok || got != p {
			t.Errorf("cfg %+v: round trip failed", cfg)
		}
	}
	// Different parameterizations of the same keys disagree on PACs.
	keys := GenerateKeys()
	a5 := New(keys, Config{VASize: 39, Tagging: true, Rounds: 5})
	a7 := New(keys, Config{VASize: 39, Tagging: true, Rounds: 7})
	same := 0
	for m := uint64(0); m < 64; m++ {
		if a5.AddPAC(KeyIA, 0x40_6000, m) == a7.AddPAC(KeyIA, 0x40_6000, m) {
			same++
		}
	}
	if same > 3 {
		t.Errorf("r=5 and r=7 agree on %d/64 PACs", same)
	}
}

func TestPACCacheTransparent(t *testing.T) {
	// The memo cache must be semantically invisible: a long, repeated
	// call pattern against one Authenticator (cache hits) must produce
	// exactly the values a fresh Authenticator (all misses) computes.
	keys := testKeys()
	hot := New(keys, DefaultConfig())
	rng := mrand.New(mrand.NewSource(11))
	type q struct {
		key    KeyID
		p, mod uint64
	}
	queries := make([]q, 512)
	for i := range queries {
		// Canonical pointers: AddPAC poisons non-canonical inputs, and
		// this test wants the round trip to authenticate.
		queries[i] = q{KeyID(rng.Intn(int(numKeys))), hot.Canonical(rng.Uint64() & 0x7FFF_FFFF_FFFF), rng.Uint64()}
	}
	// Two passes over the same queries: the second pass is all hits.
	for pass := 0; pass < 2; pass++ {
		for i, qu := range queries {
			fresh := New(keys, DefaultConfig())
			want := fresh.AddPAC(qu.key, qu.p, qu.mod)
			if got := hot.AddPAC(qu.key, qu.p, qu.mod); got != want {
				t.Fatalf("pass %d query %d: cached AddPAC %#x, fresh %#x", pass, i, got, want)
			}
			if res, ok := hot.Auth(qu.key, want, qu.mod); !ok || res != fresh.Canonical(qu.p) {
				t.Fatalf("pass %d query %d: cached Auth diverged (ok=%v res=%#x)", pass, i, ok, res)
			}
		}
	}
}

func TestPACCacheConcurrentUse(t *testing.T) {
	// The Authenticator documents safety for concurrent use; hammer
	// one instance from several goroutines over a colliding working
	// set and check every result against an uncached reference. Run
	// under -race via check.sh, this also proves the seqlock publishes
	// entries safely.
	keys := testKeys()
	shared := New(keys, DefaultConfig())
	ref := New(keys, DefaultConfig())
	want := make([]uint64, 256)
	for i := range want {
		want[i] = ref.pacFor(KeyIA, ref.Canonical(uint64(i)*0x1001), uint64(i%7))
	}
	var wg sync.WaitGroup
	errs := make([]error, 8)
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			rng := mrand.New(mrand.NewSource(int64(g)))
			for n := 0; n < 20_000; n++ {
				i := rng.Intn(len(want))
				got := shared.computePAC(KeyIA, uint64(i)*0x1001, uint64(i%7))
				if got != want[i] {
					errs[g] = fmt.Errorf("goroutine %d: computePAC(%d) = %#x, want %#x", g, i, got, want[i])
					return
				}
			}
		}(g)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			t.Fatal(err)
		}
	}
}

func TestAddPACPairMatchesTwoSeals(t *testing.T) {
	// AddPACPair is the block engine's batched entry point for the
	// fused masked-prologue shape: it must be observably identical to
	// two AddPAC calls — same sealed values AND the same trace
	// counters and event stream, in the same order.
	keys := testKeys()
	mkTraced := func() (*Authenticator, *Trace) {
		a := New(keys, DefaultConfig())
		reg := telemetry.NewRegistry()
		tr := &Trace{
			PACIssued: reg.Counter("pac_issued", ""),
			Masks:     reg.Counter("masks", ""),
			MemoHit:   reg.Counter("memo_hit", ""),
			MemoMiss:  reg.Counter("memo_miss", ""),
			Events:    telemetry.NewEventLog(64),
		}
		a.SetTrace(tr)
		return a, tr
	}
	paired, ptr := mkTraced()
	serial, str := mkTraced()
	rng := mrand.New(mrand.NewSource(42))
	for i := 0; i < 200; i++ {
		p1 := rng.Uint64() & 0x7FFF_FFFF_FFFF
		p2 := rng.Uint64() & 0x7FFF_FFFF_FFFF
		if i%5 == 0 {
			p1 = 0 // the Listing 3 mask shape must count as a mask
		}
		if i%7 == 0 {
			p1 |= 1 << 62 // non-canonical: the poison bit must carry
		}
		mod := rng.Uint64()
		key := KeyID(rng.Intn(int(numKeys)))
		g1, g2 := paired.AddPACPair(key, p1, p2, mod)
		w1 := serial.AddPAC(key, p1, mod)
		w2 := serial.AddPAC(key, p2, mod)
		if g1 != w1 || g2 != w2 {
			t.Fatalf("query %d: AddPACPair = (%#x, %#x), two AddPACs = (%#x, %#x)", i, g1, g2, w1, w2)
		}
	}
	if a, b := ptr.PACIssued.Value(), str.PACIssued.Value(); a != b {
		t.Errorf("PACIssued diverged: pair %d, serial %d", a, b)
	}
	if a, b := ptr.Masks.Value(), str.Masks.Value(); a != b {
		t.Errorf("Masks diverged: pair %d, serial %d", a, b)
	}
	if a, b := ptr.MemoHit.Value(), str.MemoHit.Value(); a != b {
		t.Errorf("MemoHit diverged: pair %d, serial %d", a, b)
	}
	if a, b := ptr.MemoMiss.Value(), str.MemoMiss.Value(); a != b {
		t.Errorf("MemoMiss diverged: pair %d, serial %d", a, b)
	}
	pe, se := ptr.Events.Snapshot(), str.Events.Snapshot()
	if !reflect.DeepEqual(pe, se) {
		t.Errorf("event streams diverged: pair %d events, serial %d events", len(pe.Events), len(se.Events))
	}
}

// TestRecycledMemoNeverHitsAcrossKeySets hands one memo table down a
// line of incarnations whose keys alternate between two sets and
// repeat, and checks each incarnation against an Authenticator over a
// fresh table: the same seals, the same authentications and the same
// memo hit and miss counts.
func TestRecycledMemoNeverHitsAcrossKeySets(t *testing.T) {
	keysA, keysB := testKeys(), GenerateKeysFrom(mrand.New(mrand.NewSource(0xBCC)))
	rng := mrand.New(mrand.NewSource(3))
	type q struct {
		key    KeyID
		p, mod uint64
	}
	queries := make([]q, 300)
	for i := range queries {
		queries[i] = q{KeyID(rng.Intn(int(numKeys))), rng.Uint64() & 0x7F_FFFF_FFF0, rng.Uint64() % 64}
	}
	traced := func(a *Authenticator) *Trace {
		reg := telemetry.NewRegistry()
		tr := &Trace{MemoHit: reg.Counter("hit", ""), MemoMiss: reg.Counter("miss", "")}
		a.SetTrace(tr)
		return tr
	}
	var prev *Authenticator
	for inc, keys := range []Keys{keysA, keysB, keysA, keysA, keysB} {
		rec, fresh := NewFrom(prev, keys, DefaultConfig()), New(keys, DefaultConfig())
		if prev != nil && rec.memo != prev.memo {
			t.Fatal("NewFrom allocated a table instead of taking over its predecessor's")
		}
		trR, trF := traced(rec), traced(fresh)
		for pass := 0; pass < 2; pass++ {
			for i, qu := range queries {
				got, want := rec.AddPAC(qu.key, qu.p, qu.mod), fresh.AddPAC(qu.key, qu.p, qu.mod)
				if got != want {
					t.Fatalf("incarnation %d pass %d query %d: recycled table sealed %#x, fresh %#x", inc, pass, i, got, want)
				}
				_, okR := rec.Auth(qu.key, want, qu.mod)
				_, okF := fresh.Auth(qu.key, want, qu.mod)
				if !okR || !okF {
					t.Fatalf("incarnation %d pass %d query %d: a seal was rejected (recycled %v, fresh %v)", inc, pass, i, okR, okF)
				}
			}
		}
		if trR.MemoHit.Value() != trF.MemoHit.Value() || trR.MemoMiss.Value() != trF.MemoMiss.Value() {
			t.Errorf("incarnation %d: recycled table %d hits %d misses, fresh table %d hits %d misses", inc,
				trR.MemoHit.Value(), trR.MemoMiss.Value(), trF.MemoHit.Value(), trF.MemoMiss.Value())
		}
		prev = rec
	}
}

// TestRecycledMemoSharedConcurrently runs an Authenticator and two
// successors on its table, one under other keys, from concurrent
// goroutines: every PAC must equal the uncached cipher's. Under -race
// this also checks that the handoff publishes the table safely.
func TestRecycledMemoSharedConcurrently(t *testing.T) {
	keysA, keysB := testKeys(), GenerateKeysFrom(mrand.New(mrand.NewSource(0xBCC)))
	prev := New(keysA, DefaultConfig())
	auths := []*Authenticator{prev, NewFrom(prev, keysA, DefaultConfig()), NewFrom(prev, keysB, DefaultConfig())}
	errs := make([]error, 2*len(auths))
	var wg sync.WaitGroup
	for g := range errs {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			a := auths[g%len(auths)]
			rng := mrand.New(mrand.NewSource(int64(g)))
			for n := 0; n < 5_000; n++ {
				i := uint64(rng.Intn(128))
				p := a.Canonical(i * 0x1001)
				if got, want := a.computePAC(KeyIA, p, i%5), a.pacFor(KeyIA, p, i%5); got != want {
					errs[g] = fmt.Errorf("goroutine %d: computePAC(%#x) = %#x, want %#x", g, p, got, want)
					return
				}
			}
		}(g)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			t.Fatal(err)
		}
	}
}

// TestTraceRecordsOnlyAuthFailures: a traced Authenticator counts every
// seal, mask and verification, and records one ring event per failed
// aut* and none for pac* or for an aut* that passes.
func TestTraceRecordsOnlyAuthFailures(t *testing.T) {
	a := New(testKeys(), DefaultConfig())
	reg := telemetry.NewRegistry()
	tr := &Trace{
		PACIssued: reg.Counter("pac_issued", ""),
		AuthOK:    reg.Counter("auth_ok", ""),
		AuthFail:  reg.Counter("auth_fail", ""),
		Masks:     reg.Counter("masks", ""),
		Events:    telemetry.NewEventLog(64),
	}
	a.SetTrace(tr)
	const n = 10
	for i := uint64(0); i < n; i++ {
		p, mod := 0x4000+16*i, 0x77+i
		a.AddPAC(KeyIA, 0, mod) // the Listing 3 mask
		signed := a.AddPAC(KeyIA, p, mod)
		if _, ok := a.Auth(KeyIA, signed, mod); !ok {
			t.Fatalf("round %d: a fresh seal failed to authenticate", i)
		}
		if _, ok := a.Auth(KeyIA, signed, mod+1); ok {
			t.Fatalf("round %d: a seal authenticated under the wrong modifier", i)
		}
	}
	if tr.PACIssued.Value() != 2*n || tr.Masks.Value() != n || tr.AuthOK.Value() != n || tr.AuthFail.Value() != n {
		t.Errorf("counters: issued %d masks %d auth ok %d auth fail %d, want %d %d %d %d",
			tr.PACIssued.Value(), tr.Masks.Value(), tr.AuthOK.Value(), tr.AuthFail.Value(), 2*n, n, n, n)
	}
	snap := tr.Events.Snapshot()
	if snap.NextSeq != n {
		t.Fatalf("%d ring events recorded, want %d (one per failed aut*)", snap.NextSeq, n)
	}
	for _, e := range snap.Events {
		if e.Kind != telemetry.EvAuthFail {
			t.Errorf("ring event %d is %v, want auth_fail", e.Seq, e.Kind)
		}
	}
}
