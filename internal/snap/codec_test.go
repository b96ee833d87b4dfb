package snap

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"fmt"
	"hash/crc64"
	"testing"

	"pacstack/internal/compile"
	"pacstack/internal/cpu"
	"pacstack/internal/kernel"
	"pacstack/internal/mem"
	"pacstack/internal/pa"
)

// bootVictim boots the built-in matrix victim under full PACStack
// with a seeded kernel and runs it partway, so checkpoints carry a
// live authenticated chain, dirty pages and nonzero counters.
func bootVictim(t testing.TB, seed int64, instrs uint64) (*kernel.Process, *compile.Image) {
	t.Helper()
	img, err := compile.Compile(matrixProgram(), compile.SchemePACStack, compile.DefaultLayout())
	if err != nil {
		t.Fatalf("compile: %v", err)
	}
	k := kernel.New(pa.DefaultConfig())
	k.Seed(seed)
	p, err := img.Boot(k)
	if err != nil {
		t.Fatalf("boot: %v", err)
	}
	p.FullFrameSigreturn = true
	if err := p.Run(instrs); !errors.Is(err, cpu.ErrStepLimit) {
		t.Fatalf("run: got %v, want step limit", err)
	}
	return p, img
}

func TestCodecRoundTrip(t *testing.T) {
	p, img := bootVictim(t, 7, 500)
	cp := p.Checkpoint()
	enc, err := Encode(cp, img.Prog)
	if err != nil {
		t.Fatalf("encode: %v", err)
	}
	dec, meta, err := Decode(enc)
	if err != nil {
		t.Fatalf("decode: %v", err)
	}
	progCRC, err := ProgramCRC(img.Prog)
	if err != nil {
		t.Fatalf("program crc: %v", err)
	}
	if meta.ProgCRC != progCRC || meta.ProgBase != img.Prog.Base {
		t.Errorf("meta = %+v, want base %#x crc %#x", meta, img.Prog.Base, progCRC)
	}
	// Re-encoding the decoded checkpoint must be byte-identical: the
	// encoding is canonical, which the crash matrix's replay-identity
	// check leans on.
	re, err := Encode(dec, img.Prog)
	if err != nil {
		t.Fatalf("re-encode: %v", err)
	}
	if !bytes.Equal(enc, re) {
		t.Errorf("re-encoded image differs: %d vs %d bytes", len(enc), len(re))
	}
	if dec.Keys != cp.Keys {
		t.Errorf("keys did not round-trip")
	}
	if len(dec.Tasks) != len(cp.Tasks) {
		t.Fatalf("tasks = %d, want %d", len(dec.Tasks), len(cp.Tasks))
	}
	if dec.Tasks[0].M != cp.Tasks[0].M {
		t.Errorf("task 0 machine state did not round-trip")
	}
}

// TestImageDigestPinned pins the exact image bytes of seeded victim
// checkpoints. The soak goldens pin only the committed byte total, so
// a codec change that kept every image's length but moved its contents
// would pass them; it cannot pass this.
func TestImageDigestPinned(t *testing.T) {
	for _, tc := range []struct {
		seed   int64
		instrs uint64
		sha256 string
	}{
		{7, 500, "7511f3247c014c5715a3b4e23691dab4db29a13028190b8ca1a78686a44ad83f"},
		{3, 250, "503f4ce296bc703cd101a8f32f3a819488b54c1413914d6fd28610242216b1de"},
		{21, 700, "4cc9ff6496fc87fc2764dbaba6b818274cc00df2f8c23e1a12677d98bd3d064c"},
	} {
		p, img := bootVictim(t, tc.seed, tc.instrs)
		enc, err := Encode(p.Checkpoint(), img.Prog)
		if err != nil {
			t.Fatalf("seed %d: encode: %v", tc.seed, err)
		}
		if sum := sha256.Sum256(enc); hex.EncodeToString(sum[:]) != tc.sha256 {
			t.Errorf("seed %d at %d instructions: image sha256 %x, want %s", tc.seed, tc.instrs, sum, tc.sha256)
		}
	}
}

// TestEncodeTrimsTrailingZeros checks the page trim at every distance
// 0-15 of the last non-zero byte from the page end (two words' worth),
// at chunk-sized boundaries inside the page, and on an all-zero and a
// full page: the decoded data must be exactly the page up to its last
// non-zero byte, and Encode must leave the page it read untouched.
func TestEncodeTrimsTrailingZeros(t *testing.T) {
	p, img := bootVictim(t, 7, 500)
	base := p.Checkpoint()
	// upTo returns a page whose last non-zero byte is at index last,
	// with zero bytes scattered before it.
	upTo := func(last int) []byte {
		d := make([]byte, mem.PageSize)
		for i := 0; i < last; i++ {
			d[i] = byte(i*7 + 1)
		}
		d[last] = 0xA5
		return d
	}
	type trimCase struct {
		name string
		data []byte
		want int
	}
	cases := []trimCase{
		{"all-zero", make([]byte, mem.PageSize), 0},
		{"full", bytes.Repeat([]byte{0xFF}, mem.PageSize), mem.PageSize},
	}
	for k := 0; k < 16; k++ {
		cases = append(cases, trimCase{fmt.Sprintf("end-%d", k), upTo(mem.PageSize - 1 - k), mem.PageSize - k})
	}
	for _, last := range []int{0, 7, 8, 31, 32, 63, 64, 255, 256, mem.PageSize / 2} {
		cases = append(cases, trimCase{fmt.Sprintf("at-%d", last), upTo(last), last + 1})
	}
	for _, tc := range cases {
		orig := append([]byte(nil), tc.data...)
		cp := *base
		cp.Pages = []mem.PageState{{Addr: 0x40000, Perm: mem.PermRW, Data: tc.data}}
		enc, err := Encode(&cp, img.Prog)
		if err != nil {
			t.Fatalf("%s: encode: %v", tc.name, err)
		}
		dec, _, err := Decode(enc)
		if err != nil {
			t.Fatalf("%s: decode: %v", tc.name, err)
		}
		if got := dec.Pages[0].Data; !bytes.Equal(got, orig[:tc.want]) {
			t.Errorf("%s: decoded %d bytes, want the first %d of the page", tc.name, len(got), tc.want)
		}
		if !bytes.Equal(tc.data, orig) {
			t.Errorf("%s: Encode modified the page it encoded", tc.name)
		}
	}
}

// TestEncodeSizesImageOnce checks that encode allocates the image once
// at its exact final size, on checkpoints that exercise every
// variable-length field.
func TestEncodeSizesImageOnce(t *testing.T) {
	p, img := bootVictim(t, 7, 500)
	progCRC, err := ProgramCRC(img.Prog)
	if err != nil {
		t.Fatalf("program crc: %v", err)
	}
	plain := p.Checkpoint()
	killed := *plain
	killed.Kill = &kernel.KillCheckpoint{TaskID: 1, PC: 0x1234, Symbol: "leaf", Cause: "auth: PAC mismatch"}
	killed.Output = []byte("<wih")
	killed.Tasks = append([]kernel.TaskCheckpoint(nil), plain.Tasks...)
	killed.Tasks[0].SigRefs = []uint64{1, 2, 3}
	for name, cp := range map[string]*kernel.Checkpoint{"plain": plain, "killed": &killed} {
		enc := encode(cp, img.Prog.Base, progCRC)
		if len(enc) != cap(enc) {
			t.Errorf("%s: image length %d, capacity %d: not sized exactly", name, len(enc), cap(enc))
		}
		if _, _, err := Decode(enc); err != nil {
			t.Errorf("%s: decode: %v", name, err)
		}
		// One allocation for the trimmed page lengths, one for the image.
		if n := testing.AllocsPerRun(10, func() { encode(cp, img.Prog.Base, progCRC) }); n > 2 {
			t.Errorf("%s: encode made %.0f allocations, want at most 2", name, n)
		}
	}
}

func TestRestoreReplaysIdentically(t *testing.T) {
	p, img := bootVictim(t, 11, 400)
	enc, err := Encode(p.Checkpoint(), img.Prog)
	if err != nil {
		t.Fatalf("encode: %v", err)
	}
	// Golden: the original process runs to completion.
	if err := p.Run(1 << 22); err != nil {
		t.Fatalf("golden run: %v", err)
	}
	golden, err := Encode(p.Checkpoint(), img.Prog)
	if err != nil {
		t.Fatalf("golden encode: %v", err)
	}

	// Restored: a fresh boot overwritten with the checkpoint must
	// replay to the same final bytes.
	cp, _, err := Decode(enc)
	if err != nil {
		t.Fatalf("decode: %v", err)
	}
	k := kernel.New(pa.DefaultConfig())
	k.Seed(999) // different boot entropy: Restore must overwrite all of it
	q, err := img.Boot(k)
	if err != nil {
		t.Fatalf("boot: %v", err)
	}
	q.FullFrameSigreturn = true
	if err := q.Restore(cp); err != nil {
		t.Fatalf("restore: %v", err)
	}
	if err := q.Run(1 << 22); err != nil {
		t.Fatalf("restored run: %v", err)
	}
	got, err := Encode(q.Checkpoint(), img.Prog)
	if err != nil {
		t.Fatalf("restored encode: %v", err)
	}
	if !bytes.Equal(got, golden) {
		t.Errorf("restored run diverged from uninterrupted run (%d vs %d bytes)", len(got), len(golden))
	}
	if string(q.Output) != string(p.Output) {
		t.Errorf("output diverged: %q vs %q", q.Output, p.Output)
	}
}

func TestDecodeRejectsCorruption(t *testing.T) {
	p, img := bootVictim(t, 13, 300)
	enc, err := Encode(p.Checkpoint(), img.Prog)
	if err != nil {
		t.Fatalf("encode: %v", err)
	}
	// Every single-bit flip anywhere in the image must be detected:
	// the image is fully covered by the trailing CRC.
	for off := 0; off < len(enc); off += 41 { // stride keeps the test fast; offset 0 and the trailer are covered
		for bit := 0; bit < 8; bit += 3 {
			mut := append([]byte(nil), enc...)
			mut[off] ^= 1 << bit
			if _, _, err := Decode(mut); err == nil {
				t.Fatalf("flip at byte %d bit %d decoded as valid", off, bit)
			}
		}
	}
	// Truncation at any length must be detected.
	for n := 0; n < len(enc); n += 97 {
		if _, _, err := Decode(enc[:n]); err == nil {
			t.Fatalf("truncation to %d bytes decoded as valid", n)
		}
	}
	// Unknown version must be refused, not misparsed.
	mut := append([]byte(nil), enc...)
	mut[4] = 0xFF
	if _, _, err := Decode(mut); err == nil {
		t.Fatalf("bad version decoded as valid")
	}
}

// FuzzRestore feeds mutated snapshot bytes into the decoder. The
// decoder sits on the recovery path of a crashed supervisor, so it
// must fail-stop on arbitrary garbage: never panic, and never report
// valid for an image whose checksum does not hold.
func FuzzRestore(f *testing.F) {
	p, img := bootVictim(f, 17, 350)
	enc, err := Encode(p.Checkpoint(), img.Prog)
	if err != nil {
		f.Fatalf("encode: %v", err)
	}
	f.Add(enc)                            // a real checkpoint image
	f.Add(enc[:len(enc)/2])               // torn mid-payload
	f.Add(enc[:headerSize])               // header only
	f.Add([]byte("PSNP"))                 // bare magic
	f.Add(encodeRec(1, 100, 0xdeadbeef))  // a journal record is not an image
	f.Add(bytes.Repeat([]byte{0xFF}, 64)) // noise

	f.Fuzz(func(t *testing.T, img []byte) {
		cp, _, err := Decode(img) // must not panic
		if err != nil {
			return
		}
		// Decode said valid: the stored checksum must actually hold
		// over the image bytes, and the checkpoint must be structurally
		// usable (re-encodable).
		stored, ok := ImageCRC(img)
		if !ok {
			t.Fatalf("decoded valid but image too short for a checksum")
		}
		if computed := crc64.Checksum(img[:len(img)-crcSize], crcTable); stored != computed {
			t.Fatalf("decoded valid with checksum mismatch: stored %#x computed %#x", stored, computed)
		}
		if cp == nil || len(cp.Tasks) == 0 && !cp.Exited && cp.Kill == nil {
			t.Fatalf("decoded valid but checkpoint is vacuous: %+v", cp)
		}
	})
}
