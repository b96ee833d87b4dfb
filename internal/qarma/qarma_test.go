package qarma

import (
	"math/rand"
	"strings"
	"testing"
	"testing/quick"
)

// Known-answer inputs from the QARMA specification (Avanzi, ToSC
// 2017(1)).
const (
	kaW0 uint64 = 0x84be85ce9804e94b
	kaK0 uint64 = 0xec2802d4e0a488e9
	kaP  uint64 = 0xfb623599da6e8127
	kaT  uint64 = 0x477d469dec0b8762
)

// The published QARMA-64 σ0 test vectors at r = 5, 6 and 7 — this
// implementation reproduces all three.
var publishedSigma0 = []struct {
	rounds int
	ct     uint64
}{
	{5, 0x3ee99a6c82af0c38},
	{6, 0x9f5c41ec525603c9},
	{7, 0xbcaf6c89de930765},
}

// Frozen regression values for the σ1/σ2 variants at r = 5, generated
// by this implementation; they pin the S-box wiring against change.
var frozenVariants = []struct {
	sbox Sigma
	ct   uint64
}{
	{Sigma1, 0x544b0ab95bda7c3a},
	{Sigma2, 0xc003b93999b33765},
}

func TestKnownAnswerVectors(t *testing.T) {
	for _, ka := range publishedSigma0 {
		c := New(kaW0, kaK0, Config{Rounds: ka.rounds, Sbox: Sigma0})
		got := c.Encrypt(kaP, kaT)
		if got != ka.ct {
			t.Errorf("sigma0 r=%d: Encrypt = %#016x, want %#016x", ka.rounds, got, ka.ct)
		}
		if back := c.Decrypt(ka.ct, kaT); back != kaP {
			t.Errorf("sigma0 r=%d: Decrypt = %#016x, want %#016x", ka.rounds, back, kaP)
		}
	}
	for _, ka := range frozenVariants {
		c := New(kaW0, kaK0, Config{Rounds: 5, Sbox: ka.sbox})
		if got := c.Encrypt(kaP, kaT); got != ka.ct {
			t.Errorf("sigma%d: Encrypt = %#016x, want %#016x", ka.sbox, got, ka.ct)
		}
	}
}

func TestEncryptDecryptRoundTrip(t *testing.T) {
	for _, sb := range []Sigma{Sigma0, Sigma1, Sigma2} {
		for _, r := range []int{1, 3, 5, 7} {
			c := New(0x0123456789abcdef, 0xfedcba9876543210, Config{Rounds: r, Sbox: sb})
			f := func(p, tw uint64) bool {
				return c.Decrypt(c.Encrypt(p, tw), tw) == p
			}
			if err := quick.Check(f, nil); err != nil {
				t.Errorf("sigma%d r=%d: %v", sb, r, err)
			}
		}
	}
}

func TestTweakScheduleInverts(t *testing.T) {
	f := func(tw uint64) bool {
		return tweakBackward(tweakForward(tw)) == tw && tweakForward(tweakBackward(tw)) == tw
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestLFSRInverts(t *testing.T) {
	for x := uint64(0); x < 16; x++ {
		if lfsrInv(lfsr(x)) != x {
			t.Errorf("lfsrInv(lfsr(%d)) = %d", x, lfsrInv(lfsr(x)))
		}
	}
	// ω must have maximal period 15 on the nonzero cells.
	seen := map[uint64]bool{}
	x := uint64(1)
	for i := 0; i < 15; i++ {
		if seen[x] {
			t.Fatalf("lfsr cycle shorter than 15 (repeat at step %d)", i)
		}
		seen[x] = true
		x = lfsr(x)
	}
	if x != 1 {
		t.Errorf("lfsr period is not 15: returned to %d", x)
	}
}

func TestMixColumnsInvolutory(t *testing.T) {
	f := func(v uint64) bool { return mixColumns(mixColumns(v)) == v }
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestShuffleInverts(t *testing.T) {
	f := func(v uint64) bool {
		return shuffle(shuffle(v, cellPerm[:]), cellPermInv[:]) == v
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestSboxesAreBijective(t *testing.T) {
	for v, box := range sigma {
		var seen [16]bool
		for _, y := range box {
			if seen[y] {
				t.Errorf("sigma%d: duplicate output %d", v, y)
			}
			seen[y] = true
		}
		tab := &sboxes[v]
		for b := 0; b < 256; b++ {
			if tab.inv[tab.fwd[b]] != uint8(b) {
				t.Errorf("sigma%d: byte table inverse mismatch at %#02x", v, b)
			}
		}
	}
}

// TestReferenceKnownAnswers anchors the cell-at-a-time reference to
// the published vectors, so the differential test below compares the
// tables against the specification and not against itself.
func TestReferenceKnownAnswers(t *testing.T) {
	for _, ka := range publishedSigma0 {
		ref := newRef(kaW0, kaK0, ka.rounds, Sigma0)
		if got := ref.encrypt(kaP, kaT); got != ka.ct {
			t.Errorf("reference r=%d: encrypt = %#016x, want %#016x", ka.rounds, got, ka.ct)
		}
		if back := ref.decrypt(ka.ct, kaT); back != kaP {
			t.Errorf("reference r=%d: decrypt = %#016x, want %#016x", ka.rounds, back, kaP)
		}
	}
}

// TestTablesMatchReference holds the table-driven cipher to the
// cell-at-a-time reference on random keys, blocks and tweaks over
// every S-box and round count: Encrypt must equal the reference
// encryption and Decrypt must invert it.
func TestTablesMatchReference(t *testing.T) {
	const perConfig = 4200 // x 3 S-boxes x 8 round counts = 100,800 inputs
	rng := rand.New(rand.NewSource(1))
	for sb := Sigma0; sb <= Sigma2; sb++ {
		for r := 1; r <= MaxRounds; r++ {
			for i := 0; i < perConfig; i++ {
				w0, k0, p, tw := rng.Uint64(), rng.Uint64(), rng.Uint64(), rng.Uint64()
				c := New(w0, k0, Config{Rounds: r, Sbox: sb})
				want := newRef(w0, k0, r, sb).encrypt(p, tw)
				if got := c.Encrypt(p, tw); got != want {
					t.Fatalf("sigma%d r=%d key (%#x, %#x): Encrypt(%#x, %#x) = %#x, reference %#x",
						sb, r, w0, k0, p, tw, got, want)
				}
				if got := c.Decrypt(want, tw); got != p {
					t.Fatalf("sigma%d r=%d key (%#x, %#x): Decrypt(%#x, %#x) = %#x, want %#x",
						sb, r, w0, k0, want, tw, got, p)
				}
			}
		}
	}
}

func TestCellAccessors(t *testing.T) {
	v := uint64(0x0123456789abcdef)
	for i := 0; i < 16; i++ {
		if got := cell(v, i); got != uint64(i) {
			t.Errorf("cell(%d) = %d, want %d", i, got, i)
		}
	}
	if got := withCell(0, 0, 0xF); got != 0xF000000000000000 {
		t.Errorf("withCell(0,0,0xF) = %#x", got)
	}
	if got := withCell(0, 15, 0xF); got != 0xF {
		t.Errorf("withCell(0,15,0xF) = %#x", got)
	}
}

func TestTweakChangesCiphertext(t *testing.T) {
	c := New(kaW0, kaK0, Config{Rounds: 5})
	if c.Encrypt(kaP, kaT) == c.Encrypt(kaP, kaT+1) {
		t.Error("different tweaks produced identical ciphertexts")
	}
}

func TestKeyChangesCiphertext(t *testing.T) {
	a := New(kaW0, kaK0, Config{Rounds: 5})
	b := New(kaW0, kaK0^1, Config{Rounds: 5})
	if a.Encrypt(kaP, kaT) == b.Encrypt(kaP, kaT) {
		t.Error("different keys produced identical ciphertexts")
	}
}

func TestNewFromBytes(t *testing.T) {
	key := []byte{
		0x84, 0xbe, 0x85, 0xce, 0x98, 0x04, 0xe9, 0x4b,
		0xec, 0x28, 0x02, 0xd4, 0xe0, 0xa4, 0x88, 0xe9,
	}
	c := NewFromBytes(key, Config{Rounds: 5})
	if got := c.Encrypt(kaP, kaT); got != publishedSigma0[0].ct {
		t.Errorf("NewFromBytes cipher mismatch: %#016x", got)
	}
}

func TestNewPanicsOnBadArgs(t *testing.T) {
	mustPanic(t, func() { New(0, 0, Config{Rounds: 100}) })
	mustPanic(t, func() { New(0, 0, Config{Rounds: -1}) })
	mustPanic(t, func() { New(0, 0, Config{Rounds: MaxRounds + 1}) })
	mustPanic(t, func() { New(0, 0, Config{Sbox: Sigma(3)}) })
	mustPanic(t, func() { New(0, 0, Config{Sbox: Sigma(-1)}) })
	mustPanic(t, func() { NewFromBytes(make([]byte, 3), Config{}) })
}

// mustPanic checks that f panics with the package's own message, not
// with a runtime error from an index it failed to check.
func mustPanic(t *testing.T, f func()) {
	t.Helper()
	defer func() {
		r := recover()
		if msg, ok := r.(string); !ok || !strings.HasPrefix(msg, "qarma: ") {
			t.Errorf("recovered %v, want a panic with a qarma: message", r)
		}
	}()
	f()
}

var sink uint64

func BenchmarkEncrypt(b *testing.B) {
	c := New(kaW0, kaK0, Config{Rounds: 7})
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		sink ^= c.Encrypt(kaP+uint64(i), kaT)
	}
}

func BenchmarkDecrypt(b *testing.B) {
	c := New(kaW0, kaK0, Config{Rounds: 7})
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		sink ^= c.Decrypt(kaP+uint64(i), kaT)
	}
}

// BenchmarkTabulate measures the one-off table build package init
// pays: the four linear layers and the three S-box variants.
func BenchmarkTabulate(b *testing.B) {
	for i := 0; i < b.N; i++ {
		tabulate(tauM)
		tabulate(mTauInv)
		tabulate(reflectCore)
		tabulate(tweakForward)
		buildSboxes()
	}
}

func TestDefaultRoundsMatchPublishedVector(t *testing.T) {
	// The default configuration (r = 7, σ0) — what the PA model runs
	// on — must hit the published r=7 vector exactly.
	c := New(kaW0, kaK0, Config{})
	got := c.Encrypt(kaP, kaT)
	if got != publishedSigma0[2].ct {
		t.Errorf("default config: %#016x, want the published r=7 vector %#016x",
			got, publishedSigma0[2].ct)
	}
	if c.Decrypt(got, kaT) != kaP {
		t.Error("r=7 decrypt failed")
	}
}
