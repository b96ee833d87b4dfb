// Package snap is the crash-consistent checkpoint/restore subsystem:
// a versioned, checksummed codec for full machine state
// (kernel.Checkpoint), an append-only journal, and a snapshot store
// whose commit protocol — write-temp, fsync, rename, fsync, journal
// append, fsync — guarantees that a crash at any byte offset leaves
// either the previous snapshot or the new one durable, never a torn
// hybrid that restores.
//
// The package carries its own adversary: a seeded storage-fault
// injector (torn writes at arbitrary offsets, bit rot, truncation,
// duplicate-rename races) layered over the store's filesystem, and a
// recovery routine that classifies every snapshot it finds as valid,
// corrupt-detected or stale and always restores the newest valid one.
// Outcomes follow the same detected / benign / silent taxonomy as the
// runtime fault engine (internal/fault): a fault that recovery
// reports is detected, a crash that left no durable trace is benign,
// and a fault that alters what restores without being reported is
// silent — the class the crash matrix (CrashMatrix) drives to zero.
package snap

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc64"

	"pacstack/internal/compile"
	"pacstack/internal/kernel"
	"pacstack/internal/mem"
	"pacstack/internal/qarma"
)

// Image format, all little-endian:
//
//	[0:4)   magic "PSNP"
//	[4:8)   version (1)
//	[8:16)  payload length
//	[16:16+len) payload (field stream, see encode)
//	[16+len:24+len) CRC-64/ECMA over everything before it
//
// The trailing CRC covers header and payload, so any torn write,
// truncation or bit rot anywhere in the file fails verification.
const (
	imageMagic   = "PSNP"
	imageVersion = 1
	headerSize   = 16
	crcSize      = 8
)

// Decode limits: a hostile or corrupt image must not be able to make
// the decoder allocate unboundedly before the checksum is even
// checked (the checksum is verified first, but the limits also bound
// structurally absurd images that collide on CRC by chance).
const (
	maxTasks   = 1 << 12
	maxPages   = 1 << 20
	maxSigRefs = 1 << 16
)

var crcTable = crc64.MakeTable(crc64.ECMA)

// ErrCorrupt is the root of every decode failure: wrong magic,
// truncation, checksum mismatch, or malformed structure. Recovery
// classifies any image whose decode error wraps ErrCorrupt as
// corrupt-detected.
var ErrCorrupt = errors.New("snap: corrupt snapshot image")

// ErrVersion reports an image from a different format version —
// detected, but distinguishable from damage.
var ErrVersion = fmt.Errorf("%w: unsupported version", ErrCorrupt)

// Encode serializes a checkpoint into a self-checking image. img is
// the compiled image the checkpointed process executes; its text
// checksum is embedded so Restore can refuse a snapshot taken under a
// different binary. The header, payload and trailing CRC go into one
// buffer of the image's exact size.
func Encode(cp *kernel.Checkpoint, img *compile.Image) ([]byte, error) {
	_, progCRC, err := img.Text()
	if err != nil {
		return nil, err
	}
	// Trailing zeros are trimmed: stacks and fresh heaps are mostly
	// zero pages, and the decoder zero-extends back to PageSize.
	ends := make([]int, len(cp.Pages))
	for i, pg := range cp.Pages {
		ends[i] = trimmedLen(pg.Data)
	}
	w := &writer{buf: make([]byte, headerSize, imageSize(cp, ends))}
	w.u64(uint64(int64(cp.PID)))
	w.u64(uint64(int64(cp.NextPID)))
	w.u64(uint64(int64(cp.NextTID)))
	for _, k := range cp.Keys {
		w.u64(k.W0)
		w.u64(k.K0)
	}
	w.u64(cp.Keys.Fingerprint())
	w.u64(uint64(int64(cp.Config.VASize)))
	w.bool(cp.Config.Tagging)
	w.u64(uint64(int64(cp.Config.Rounds)))
	w.u64(uint64(int64(cp.Config.Sbox)))
	w.u64(img.Prog.Base)
	w.u64(progCRC)
	w.bytes(cp.Output)
	w.bool(cp.Exited)
	w.u64(cp.ExitCode)
	w.bool(cp.HardenedSigreturn)
	w.bool(cp.FullFrameSigreturn)
	w.bool(cp.Kill != nil)
	if cp.Kill != nil {
		w.u64(uint64(int64(cp.Kill.TaskID)))
		w.u64(cp.Kill.PC)
		w.bytes([]byte(cp.Kill.Symbol))
		w.bytes([]byte(cp.Kill.Cause))
	}
	w.u64(uint64(len(cp.Tasks)))
	for _, t := range cp.Tasks {
		w.u64(uint64(int64(t.ID)))
		for _, r := range t.M.Regs {
			w.u64(r)
		}
		w.u64(t.M.PC)
		w.bool(t.M.N)
		w.bool(t.M.Z)
		w.bool(t.M.C)
		w.bool(t.M.V)
		w.u64(t.M.Cycles)
		w.u64(t.M.Instrs)
		w.bool(t.M.Halted)
		w.u64(t.M.ExitCode)
		w.bool(t.Done)
		w.u64(uint64(len(t.SigRefs)))
		for _, r := range t.SigRefs {
			w.u64(r)
		}
	}
	w.u64(uint64(len(cp.Pages)))
	for i, pg := range cp.Pages {
		w.u64(pg.Addr)
		w.u64(uint64(pg.Perm))
		w.bytes(pg.Data[:ends[i]])
	}

	out := w.buf
	copy(out, imageMagic)
	binary.LittleEndian.PutUint32(out[4:], imageVersion)
	binary.LittleEndian.PutUint64(out[8:], uint64(len(out)-headerSize))
	return appendU64(out, crc64.Checksum(out, crcTable)), nil
}

// imageSize is the exact size of Encode's image of cp, whose pages
// trim to the lengths in ends. It follows encode field by field.
func imageSize(cp *kernel.Checkpoint, ends []int) int {
	n := headerSize + crcSize
	n += 3*8 + 2*8*len(cp.Keys) + 8             // ids, keys, key fingerprint
	n += 8 + 1 + 8 + 8 + 8 + 8                  // PA config, program binding
	n += 8 + len(cp.Output) + 1 + 8 + 1 + 1 + 1 // output, exit, sigreturn and kill flags
	if k := cp.Kill; k != nil {
		n += 8 + 8 + 8 + len(k.Symbol) + 8 + len(k.Cause)
	}
	n += 8
	for _, t := range cp.Tasks {
		n += 8 + 8*len(t.M.Regs) + 8 + 4 + 8 + 8 + 1 + 8 + 1 + 8 + 8*len(t.SigRefs)
	}
	n += 8
	for _, e := range ends {
		n += 8 + 8 + 8 + e
	}
	return n
}

// zeroBlock is what trimmedLen compares data against, a block at a
// time, before it narrows to words and then bytes.
var zeroBlock [256]byte

// trimmedLen returns the length of b without its trailing zero bytes.
func trimmedLen(b []byte) int {
	n := len(b)
	for n >= len(zeroBlock) && bytes.Equal(b[n-len(zeroBlock):n], zeroBlock[:]) {
		n -= len(zeroBlock)
	}
	for n >= 8 && readU64(b[n-8:n]) == 0 {
		n -= 8
	}
	for n > 0 && b[n-1] == 0 {
		n--
	}
	return n
}

// Decode parses and verifies an image. It never panics on arbitrary
// input; every failure wraps ErrCorrupt. On success the returned
// checkpoint is structurally valid (page alignment, W⊕X, register
// counts) and the embedded key fingerprint has been re-verified
// against the key material.
func Decode(img []byte) (*kernel.Checkpoint, *ImageMeta, error) {
	if len(img) < headerSize+crcSize {
		return nil, nil, fmt.Errorf("%w: %d bytes is shorter than the fixed framing", ErrCorrupt, len(img))
	}
	if string(img[:4]) != imageMagic {
		return nil, nil, fmt.Errorf("%w: bad magic %q", ErrCorrupt, img[:4])
	}
	if v := readU32(img[4:]); v != imageVersion {
		return nil, nil, fmt.Errorf("%w %d", ErrVersion, v)
	}
	plen := readU64(img[8:])
	if plen != uint64(len(img)-headerSize-crcSize) {
		return nil, nil, fmt.Errorf("%w: payload length %d does not match file size %d", ErrCorrupt, plen, len(img))
	}
	body := img[:len(img)-crcSize]
	if got, want := crc64.Checksum(body, crcTable), readU64(img[len(img)-crcSize:]); got != want {
		return nil, nil, fmt.Errorf("%w: checksum mismatch (stored %#x, computed %#x)", ErrCorrupt, want, got)
	}

	r := &reader{buf: img[headerSize : headerSize+int(plen)]}
	cp := &kernel.Checkpoint{}
	meta := &ImageMeta{}
	cp.PID = int(int64(r.u64()))
	cp.NextPID = int(int64(r.u64()))
	cp.NextTID = int(int64(r.u64()))
	for i := range cp.Keys {
		cp.Keys[i].W0 = r.u64()
		cp.Keys[i].K0 = r.u64()
	}
	fp := r.u64()
	cp.Config.VASize = int(int64(r.u64()))
	cp.Config.Tagging = r.bool()
	cp.Config.Rounds = int(int64(r.u64()))
	cp.Config.Sbox = qarma.Sigma(int64(r.u64()))
	meta.ProgBase = r.u64()
	meta.ProgCRC = r.u64()
	cp.Output = r.bytes(1 << 24)
	cp.Exited = r.bool()
	cp.ExitCode = r.u64()
	cp.HardenedSigreturn = r.bool()
	cp.FullFrameSigreturn = r.bool()
	if r.bool() {
		k := &kernel.KillCheckpoint{}
		k.TaskID = int(int64(r.u64()))
		k.PC = r.u64()
		k.Symbol = string(r.bytes(1 << 16))
		k.Cause = string(r.bytes(1 << 16))
		cp.Kill = k
	}
	nTasks := r.u64()
	if nTasks > maxTasks {
		r.fail(fmt.Sprintf("task count %d exceeds limit", nTasks))
	}
	for i := uint64(0); i < nTasks && r.err == nil; i++ {
		var t kernel.TaskCheckpoint
		t.ID = int(int64(r.u64()))
		for j := range t.M.Regs {
			t.M.Regs[j] = r.u64()
		}
		t.M.PC = r.u64()
		t.M.N = r.bool()
		t.M.Z = r.bool()
		t.M.C = r.bool()
		t.M.V = r.bool()
		t.M.Cycles = r.u64()
		t.M.Instrs = r.u64()
		t.M.Halted = r.bool()
		t.M.ExitCode = r.u64()
		t.Done = r.bool()
		nRefs := r.u64()
		if nRefs > maxSigRefs {
			r.fail(fmt.Sprintf("sigref count %d exceeds limit", nRefs))
			break
		}
		for j := uint64(0); j < nRefs && r.err == nil; j++ {
			t.SigRefs = append(t.SigRefs, r.u64())
		}
		cp.Tasks = append(cp.Tasks, t)
	}
	nPages := r.u64()
	if nPages > maxPages {
		r.fail(fmt.Sprintf("page count %d exceeds limit", nPages))
	}
	for i := uint64(0); i < nPages && r.err == nil; i++ {
		var pg mem.PageState
		pg.Addr = r.u64()
		pg.Perm = mem.Perm(r.u64())
		pg.Data = r.bytes(mem.PageSize)
		cp.Pages = append(cp.Pages, pg)
	}
	if r.err == nil && len(r.buf) != r.off {
		r.fail(fmt.Sprintf("%d trailing payload bytes", len(r.buf)-r.off))
	}
	if r.err != nil {
		return nil, nil, r.err
	}
	if got := cp.Keys.Fingerprint(); got != fp {
		return nil, nil, fmt.Errorf("%w: key fingerprint mismatch (stored %#x, computed %#x)", ErrCorrupt, fp, got)
	}
	// Structural validation with Map's own rules, so a
	// checksum-colliding or hand-built image still cannot smuggle a
	// W⊕X violation or overlapping pages past Restore.
	if err := mem.CheckPages(cp.Pages); err != nil {
		return nil, nil, fmt.Errorf("%w: %v", ErrCorrupt, err)
	}
	return cp, meta, nil
}

// ImageMeta is the image-level metadata stored alongside the
// checkpoint: which program the state belongs to.
type ImageMeta struct {
	ProgBase uint64
	ProgCRC  uint64
}

// ImageCRC returns the stored trailing checksum of an encoded image,
// used by the journal to cross-check the snapshot file it names.
func ImageCRC(img []byte) (uint64, bool) {
	if len(img) < headerSize+crcSize {
		return 0, false
	}
	return readU64(img[len(img)-crcSize:]), true
}

// writer is a minimal deterministic field stream.
type writer struct{ buf []byte }

func (w *writer) u64(v uint64) { w.buf = appendU64(w.buf, v) }
func (w *writer) bool(b bool) {
	if b {
		w.buf = append(w.buf, 1)
	} else {
		w.buf = append(w.buf, 0)
	}
}
func (w *writer) bytes(b []byte) {
	w.u64(uint64(len(b)))
	w.buf = append(w.buf, b...)
}

// reader is the bounds-checked inverse. After the first failure every
// further read returns zero values, so decode loops terminate without
// panicking on any input.
type reader struct {
	buf []byte
	off int
	err error
}

func (r *reader) fail(msg string) {
	if r.err == nil {
		r.err = fmt.Errorf("%w: %s at offset %d", ErrCorrupt, msg, r.off)
	}
}

func (r *reader) u64() uint64 {
	if r.err != nil {
		return 0
	}
	if r.off+8 > len(r.buf) {
		r.fail("truncated u64")
		return 0
	}
	v := readU64(r.buf[r.off:])
	r.off += 8
	return v
}

func (r *reader) bool() bool {
	if r.err != nil {
		return false
	}
	if r.off+1 > len(r.buf) {
		r.fail("truncated bool")
		return false
	}
	b := r.buf[r.off]
	r.off++
	if b > 1 {
		r.fail(fmt.Sprintf("bool byte %#x", b))
		return false
	}
	return b == 1
}

func (r *reader) bytes(limit int) []byte {
	n := r.u64()
	if r.err != nil {
		return nil
	}
	if n > uint64(limit) || n > uint64(len(r.buf)-r.off) {
		r.fail(fmt.Sprintf("byte-slice length %d exceeds bounds", n))
		return nil
	}
	out := make([]byte, n)
	copy(out, r.buf[r.off:r.off+int(n)])
	r.off += int(n)
	return out
}

func appendU64(b []byte, v uint64) []byte {
	return append(b, byte(v), byte(v>>8), byte(v>>16), byte(v>>24),
		byte(v>>32), byte(v>>40), byte(v>>48), byte(v>>56))
}

func readU32(b []byte) uint32 {
	return uint32(b[0]) | uint32(b[1])<<8 | uint32(b[2])<<16 | uint32(b[3])<<24
}

func readU64(b []byte) uint64 {
	return uint64(b[0]) | uint64(b[1])<<8 | uint64(b[2])<<16 | uint64(b[3])<<24 |
		uint64(b[4])<<32 | uint64(b[5])<<40 | uint64(b[6])<<48 | uint64(b[7])<<56
}
