package mem

import (
	"bytes"
	"errors"
	"slices"
	"testing"
	"testing/quick"
)

func mustMap(t *testing.T, m *Memory, addr, size uint64, perm Perm) {
	t.Helper()
	if err := m.Map(addr, size, perm); err != nil {
		t.Fatalf("Map(%#x, %d, %s): %v", addr, size, perm, err)
	}
}

func TestReadWriteRoundTrip(t *testing.T) {
	m := New()
	mustMap(t, m, 0x1000, PageSize, PermRW)
	f := func(off uint16, v uint64) bool {
		addr := 0x1000 + uint64(off)%(PageSize-8)
		if err := m.Write64(addr, v); err != nil {
			return false
		}
		got, err := m.Read64(addr)
		return err == nil && got == v
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestLittleEndianLayout(t *testing.T) {
	m := New()
	mustMap(t, m, 0x1000, PageSize, PermRW)
	if err := m.Write64(0x1000, 0x0102030405060708); err != nil {
		t.Fatal(err)
	}
	b, err := m.Read8(0x1000)
	if err != nil || b != 0x08 {
		t.Errorf("byte 0 = %#x, err %v; want 0x08", b, err)
	}
	b, _ = m.Read8(0x1007)
	if b != 0x01 {
		t.Errorf("byte 7 = %#x, want 0x01", b)
	}
}

func TestUnmappedFaults(t *testing.T) {
	m := New()
	if _, err := m.Read64(0x1000); err == nil {
		t.Error("read of unmapped memory did not fault")
	}
	var f *Fault
	_, err := m.Read64(0x1000)
	if !errors.As(err, &f) {
		t.Fatalf("error is not a *Fault: %v", err)
	}
	if f.Kind != AccessRead || f.Addr != 0x1000 {
		t.Errorf("fault = %+v", f)
	}
}

func TestPermissionEnforcement(t *testing.T) {
	m := New()
	mustMap(t, m, 0x1000, PageSize, PermR)   // read-only
	mustMap(t, m, 0x10000, PageSize, PermRX) // code
	mustMap(t, m, 0x20000, PageSize, PermRW) // data

	if err := m.Write64(0x1000, 1); err == nil {
		t.Error("write to read-only page succeeded")
	}
	if err := m.CheckFetch(0x1000); err == nil {
		t.Error("fetch from non-executable page succeeded")
	}
	if err := m.CheckFetch(0x10000); err != nil {
		t.Errorf("fetch from code page faulted: %v", err)
	}
	if err := m.Write64(0x10000, 1); err == nil {
		t.Error("write to code page succeeded (W⊕X broken)")
	}
	if err := m.CheckFetch(0x20000); err == nil {
		t.Error("fetch from data page succeeded (W⊕X broken)")
	}
}

func TestWXMappingRejected(t *testing.T) {
	m := New()
	if err := m.Map(0x1000, PageSize, PermR|PermW|PermX); err == nil {
		t.Error("W+X mapping accepted")
	}
	mustMap(t, m, 0x1000, PageSize, PermRW)
	if err := m.Protect(0x1000, PageSize, PermW|PermX); err == nil {
		t.Error("W+X protect accepted")
	}
}

func TestOverlappingMapRejected(t *testing.T) {
	m := New()
	mustMap(t, m, 0x1000, 2*PageSize, PermRW)
	if err := m.Map(0x1800, PageSize, PermR); err == nil {
		t.Error("overlapping map accepted")
	}
	if err := m.Map(0x1000, 0, PermR); err == nil {
		t.Error("zero-size map accepted")
	}
}

func TestProtectChangesPerms(t *testing.T) {
	m := New()
	mustMap(t, m, 0x1000, PageSize, PermRW)
	if err := m.Write64(0x1000, 42); err != nil {
		t.Fatal(err)
	}
	if err := m.Protect(0x1000, PageSize, PermR); err != nil {
		t.Fatal(err)
	}
	if err := m.Write64(0x1000, 43); err == nil {
		t.Error("write after downgrade to read-only succeeded")
	}
	v, err := m.Read64(0x1000)
	if err != nil || v != 42 {
		t.Errorf("data lost across Protect: %d, %v", v, err)
	}
	if err := m.Protect(0x5000, PageSize, PermR); err == nil {
		t.Error("protect of unmapped page succeeded")
	}
}

func TestPageStraddleRejected(t *testing.T) {
	m := New()
	mustMap(t, m, 0x1000, 2*PageSize, PermRW)
	if _, err := m.Read64(0x1000 + PageSize - 4); err == nil {
		t.Error("straddling word read succeeded")
	}
	// Byte-wise access across the boundary is fine.
	if err := m.WriteBytes(0x1000+PageSize-4, []byte{1, 2, 3, 4, 5, 6, 7, 8}); err != nil {
		t.Errorf("byte-wise straddle failed: %v", err)
	}
	got, err := m.ReadBytes(0x1000+PageSize-4, 8)
	if err != nil || got[7] != 8 {
		t.Errorf("ReadBytes = %v, %v", got, err)
	}
}

func TestPermString(t *testing.T) {
	if s := PermRW.String(); s != "rw-" {
		t.Errorf("PermRW = %q", s)
	}
	if s := PermRX.String(); s != "r-x" {
		t.Errorf("PermRX = %q", s)
	}
	if s := Perm(0).String(); s != "---" {
		t.Errorf("Perm(0) = %q", s)
	}
}

func TestAdversaryPeekIgnoresPerms(t *testing.T) {
	m := New()
	mustMap(t, m, 0x1000, PageSize, Perm(0)) // no access at all
	adv := NewAdversary(m)
	if _, err := adv.Peek(0x1000); err != nil {
		t.Errorf("adversary could not read a no-access page: %v", err)
	}
	if _, err := adv.Peek(0x9000); err == nil {
		t.Error("adversary read unmapped memory")
	}
}

func TestAdversaryPokeRespectsWX(t *testing.T) {
	m := New()
	mustMap(t, m, 0x1000, PageSize, PermR) // read-only data
	mustMap(t, m, 0x2000, PageSize, PermRX)
	adv := NewAdversary(m)
	if err := adv.Poke(0x1000, 0xdead); err != nil {
		t.Errorf("adversary blocked from read-only data page: %v", err)
	}
	v, _ := m.Read64(0x1000)
	if v != 0xdead {
		t.Errorf("poke did not land: %#x", v)
	}
	if err := adv.Poke(0x2000, 0xdead); err == nil {
		t.Error("adversary modified executable memory")
	}
}

func TestAdversaryScan(t *testing.T) {
	m := New()
	mustMap(t, m, 0x1000, PageSize, PermRW)
	for i := uint64(0); i < 4; i++ {
		if err := m.Write64(0x1000+8*i, 100+i); err != nil {
			t.Fatal(err)
		}
	}
	got, err := NewAdversary(m).Scan(0x1000, 4)
	if err != nil {
		t.Fatal(err)
	}
	for i, v := range got {
		if v != uint64(100+i) {
			t.Errorf("scan[%d] = %d", i, v)
		}
	}
}

func TestFaultError(t *testing.T) {
	f := &Fault{Addr: 0x42, Kind: AccessFetch, Reason: "unmapped"}
	want := "mem: fetch fault at 0x42: unmapped"
	if f.Error() != want {
		t.Errorf("Error() = %q, want %q", f.Error(), want)
	}
}

func TestCloneIndependence(t *testing.T) {
	m := New()
	mustMap(t, m, 0x1000, PageSize, PermRW)
	mustMap(t, m, 0x3000, PageSize, PermRX)
	if err := m.Write64(0x1000, 42); err != nil {
		t.Fatal(err)
	}
	c := m.Clone()
	// Same contents and permissions...
	if v, _ := c.Read64(0x1000); v != 42 {
		t.Errorf("clone lost data: %d", v)
	}
	if c.Perm(0x3000) != PermRX {
		t.Errorf("clone lost permissions: %v", c.Perm(0x3000))
	}
	// ...but writes diverge both ways.
	if err := c.Write64(0x1000, 43); err != nil {
		t.Fatal(err)
	}
	if v, _ := m.Read64(0x1000); v != 42 {
		t.Error("clone write leaked into the original")
	}
	if err := m.Write64(0x1008, 99); err != nil {
		t.Fatal(err)
	}
	if v, _ := c.Read64(0x1008); v == 99 {
		t.Error("original write leaked into the clone")
	}
	// New mappings do not propagate either.
	mustMap(t, c, 0x5000, PageSize, PermRW)
	if m.Mapped(0x5000) {
		t.Error("clone mapping appeared in the original")
	}
}

func TestReadWriteBytesAcrossPages(t *testing.T) {
	// The page-at-a-time copy paths must behave exactly like the old
	// byte-wise walk across page boundaries.
	m := New()
	if err := m.Map(0x1000, 4*PageSize, PermRW); err != nil {
		t.Fatal(err)
	}
	data := make([]byte, 2*PageSize+100)
	for i := range data {
		data[i] = byte(i*7 + 3)
	}
	start := uint64(0x1000 + PageSize - 50) // straddles two boundaries
	if err := m.WriteBytes(start, data); err != nil {
		t.Fatal(err)
	}
	got, err := m.ReadBytes(start, uint64(len(data)))
	if err != nil {
		t.Fatal(err)
	}
	for i := range data {
		if got[i] != data[i] {
			t.Fatalf("byte %d: got %#x, want %#x", i, got[i], data[i])
		}
	}
	// Spot-check against the single-byte path.
	b, err := m.Read8(start + uint64(PageSize))
	if err != nil {
		t.Fatal(err)
	}
	if b != data[PageSize] {
		t.Fatalf("Read8 disagrees with ReadBytes: %#x vs %#x", b, data[PageSize])
	}
}

func TestWriteBytesPartialOnFault(t *testing.T) {
	// A fault mid-copy happens at a page boundary; everything before
	// the faulting page must have been written (byte-wise semantics).
	m := New()
	if err := m.Map(0x1000, PageSize, PermRW); err != nil {
		t.Fatal(err)
	}
	data := make([]byte, 100)
	for i := range data {
		data[i] = 0xAB
	}
	start := uint64(0x1000 + PageSize - 40)
	err := m.WriteBytes(start, data)
	var f *Fault
	if !errors.As(err, &f) || f.Kind != AccessWrite {
		t.Fatalf("got %v, want write fault at the unmapped page", err)
	}
	for i := 0; i < 40; i++ {
		b, err := m.Read8(start + uint64(i))
		if err != nil {
			t.Fatal(err)
		}
		if b != 0xAB {
			t.Fatalf("byte %d not written before the fault", i)
		}
	}
}

func TestReadBytesFaultsOnUnmappedTail(t *testing.T) {
	m := New()
	if err := m.Map(0x1000, PageSize, PermRW); err != nil {
		t.Fatal(err)
	}
	if _, err := m.ReadBytes(0x1000+PageSize-8, 16); err == nil {
		t.Fatal("read into unmapped page succeeded")
	}
}

func TestExecRegion(t *testing.T) {
	m := New()
	if err := m.Map(0x10000, 3*PageSize, PermRX); err != nil {
		t.Fatal(err)
	}
	if err := m.Map(0x10000+3*PageSize, PageSize, PermRW); err != nil {
		t.Fatal(err)
	}
	lo, hi, err := m.ExecRegion(0x10000 + PageSize + 12)
	if err != nil {
		t.Fatal(err)
	}
	if lo != 0x10000 || hi != 0x10000+3*PageSize {
		t.Fatalf("ExecRegion = [%#x, %#x), want [%#x, %#x)", lo, hi, 0x10000, 0x10000+3*PageSize)
	}
	// Non-executable and unmapped addresses return the CheckFetch error.
	if _, _, err := m.ExecRegion(0x10000 + 3*PageSize); err == nil {
		t.Fatal("ExecRegion on an RW page succeeded")
	}
	if _, _, err := m.ExecRegion(0x90000); err == nil {
		t.Fatal("ExecRegion on an unmapped page succeeded")
	}
}

func TestGenBumpsOnMapAndProtect(t *testing.T) {
	m := New()
	g0 := m.Gen()
	if err := m.Map(0x1000, PageSize, PermRX); err != nil {
		t.Fatal(err)
	}
	g1 := m.Gen()
	if g1 == g0 {
		t.Fatal("Map did not bump the generation")
	}
	if err := m.Protect(0x1000, PageSize, PermR); err != nil {
		t.Fatal(err)
	}
	if m.Gen() == g1 {
		t.Fatal("Protect did not bump the generation")
	}
}

// The data lookaside (the last read-permitted and write-permitted
// page) must be semantically invisible: these tests drive each edge
// where a stale entry could change behaviour.

func TestTLBProtectRevokesCachedPage(t *testing.T) {
	m := New()
	mustMap(t, m, 0x1000, PageSize, PermRW)
	// Prime both lookaside entries with full-permission accesses.
	if err := m.Write64(0x1000, 7); err != nil {
		t.Fatal(err)
	}
	if _, err := m.Read64(0x1000); err != nil {
		t.Fatal(err)
	}
	// Downgrade to read-only: the cached write entry must not let a
	// write through.
	if err := m.Protect(0x1000, PageSize, PermR); err != nil {
		t.Fatal(err)
	}
	if err := m.Write64(0x1000, 8); err == nil {
		t.Error("Write64 through a stale lookaside entry succeeded after Protect")
	}
	if err := m.Write8(0x1000, 8); err == nil {
		t.Error("Write8 through a stale lookaside entry succeeded after Protect")
	}
	if v, err := m.Read64(0x1000); err != nil || v != 7 {
		t.Errorf("read-only page unreadable after Protect: %d, %v", v, err)
	}
	// Downgrade to write-only: the cached read entry must miss too.
	if err := m.Protect(0x1000, PageSize, PermW); err != nil {
		t.Fatal(err)
	}
	if _, err := m.Read64(0x1000); err == nil {
		t.Error("Read64 through a stale lookaside entry succeeded after Protect")
	}
	if _, err := m.Read8(0x1000); err == nil {
		t.Error("Read8 through a stale lookaside entry succeeded after Protect")
	}
}

func TestTLBStraddleStillFaultsExactly(t *testing.T) {
	// A primed lookaside entry covers the page, but a word straddling
	// its end must still take the slow path and fault identically.
	m := New()
	mustMap(t, m, 0x1000, PageSize, PermRW)
	if err := m.Write64(0x1000, 1); err != nil { // prime
		t.Fatal(err)
	}
	edge := uint64(0x1000) + PageSize - 4
	var f *Fault
	if err := m.Write64(edge, 2); err == nil {
		t.Error("straddling Write64 succeeded via the lookaside")
	} else if !errors.As(err, &f) {
		t.Errorf("straddling Write64 error is not a *Fault: %v", err)
	}
	if _, err := m.Read64(edge); err == nil {
		t.Error("straddling Read64 succeeded via the lookaside")
	}
}

func TestTLBCloneStartsCold(t *testing.T) {
	// Clone builds fresh page objects and frames; a lookaside primed on
	// the source must not alias them — writes through it stay in the
	// source, and the clone diverges permissions independently.
	m := New()
	mustMap(t, m, 0x1000, PageSize, PermRW)
	if err := m.Write64(0x1000, 1); err != nil { // prime source TLB
		t.Fatal(err)
	}
	c := m.Clone()
	if err := m.Write64(0x1000, 2); err != nil { // lookaside-hit path
		t.Fatal(err)
	}
	if v, _ := c.Read64(0x1000); v != 1 {
		t.Errorf("source lookaside write leaked into clone: %d", v)
	}
	if err := c.Protect(0x1000, PageSize, PermR); err != nil {
		t.Fatal(err)
	}
	if err := m.Write64(0x1000, 3); err != nil {
		t.Errorf("clone Protect affected source writes: %v", err)
	}
}

func TestTLBSeesInPlaceMutation(t *testing.T) {
	// The lookaside caches the page's frame, not a copy of its bytes:
	// an adversary Poke mutating the page in place must be visible to
	// a lookaside-hit read immediately.
	m := New()
	mustMap(t, m, 0x1000, PageSize, PermRW)
	if err := m.Write64(0x1000, 0xAAAA); err != nil {
		t.Fatal(err)
	}
	if _, err := m.Read64(0x1000); err != nil { // prime read entry
		t.Fatal(err)
	}
	adv := NewAdversary(m)
	if err := adv.Poke(0x1000, 0xBBBB); err != nil {
		t.Fatal(err)
	}
	if v, _ := m.Read64(0x1000); v != 0xBBBB {
		t.Errorf("lookaside read returned stale data %#x after Poke", v)
	}
}

// TestReloadRestoresSnapshot reloads a used address space from a
// snapshot of its pages: every page takes the snapshot's permission
// and data, zero-extended past short snapshot data, the generation is
// bumped, no stale lookaside entry survives, and no frame is shared
// with the snapshot.
func TestReloadRestoresSnapshot(t *testing.T) {
	m := New()
	mustMap(t, m, 0x1000, 2*PageSize, PermRW)
	mustMap(t, m, 0x8000, PageSize, PermRX)
	snap := []PageState{
		{Addr: 0x1000, Perm: PermRW, Data: []byte{1, 2, 3}},
		{Addr: 0x2000, Perm: PermR},
		{Addr: 0x8000, Perm: PermRX, Data: []byte{0xd5}},
	}
	// Dirty the space; the last write leaves the write lookaside entry
	// on the page the snapshot makes read-only.
	for a := uint64(0x1000); a < 0x3000; a += 8 {
		if err := m.Write64(a, ^a); err != nil {
			t.Fatal(err)
		}
	}
	gen := m.Gen()
	if err := m.Reload(snap); err != nil {
		t.Fatalf("Reload refused a snapshot of exactly the mapped pages: %v", err)
	}
	if m.Gen() == gen {
		t.Error("Reload left the generation unchanged")
	}
	got := m.Pages()
	if len(got) != len(snap) {
		t.Fatalf("reloaded %d pages, the snapshot has %d", len(got), len(snap))
	}
	for i, ps := range snap {
		want := make([]byte, PageSize)
		copy(want, ps.Data)
		if got[i].Addr != ps.Addr || got[i].Perm != ps.Perm || !bytes.Equal(got[i].Data, want) {
			t.Errorf("page %#x: reloaded as %#x %s, not the snapshot's %s and data", ps.Addr, got[i].Addr, got[i].Perm, ps.Perm)
		}
	}
	if err := m.Write64(0x2ff8, 9); err == nil {
		t.Error("a stale lookaside entry let a write through to a page Reload made read-only")
	}
	if err := m.Write8(0x1000, 0xee); err != nil || snap[0].Data[0] != 1 {
		t.Errorf("reloaded frame aliases the snapshot (err %v)", err)
	}
}

func TestReloadRefusesOtherPageSets(t *testing.T) {
	m := New()
	mustMap(t, m, 0x1000, 2*PageSize, PermRW)
	if err := m.Write64(0x1000, 5); err != nil {
		t.Fatal(err)
	}
	for name, snap := range map[string][]PageState{
		"fewer pages": {{Addr: 0x1000, Perm: PermRW}},
		"more pages":  {{Addr: 0x1000, Perm: PermRW}, {Addr: 0x2000, Perm: PermRW}, {Addr: 0x3000, Perm: PermRW}},
		"other page":  {{Addr: 0x1000, Perm: PermRW}, {Addr: 0x5000, Perm: PermRW}},
	} {
		gen := m.Gen()
		if m.Reload(snap) == nil {
			t.Errorf("%s: Reload accepted a different page set", name)
		}
		if v, err := m.Read64(0x1000); err != nil || v != 5 || m.Gen() != gen {
			t.Errorf("%s: refused Reload changed the space (word %d, err %v)", name, v, err)
		}
	}
}

func TestCheckPages(t *testing.T) {
	ok := []PageState{{Addr: 0x1000, Perm: PermRX}, {Addr: 0x3000, Perm: PermRW}}
	if err := CheckPages(ok); err != nil {
		t.Fatalf("valid snapshot rejected: %v", err)
	}
	if n := testing.AllocsPerRun(10, func() { _ = CheckPages(ok) }); n != 0 {
		t.Errorf("checking pages in address order allocated %.0f times", n)
	}
	for name, pages := range map[string][]PageState{
		"unaligned":           {{Addr: 0x1008, Perm: PermRW}},
		"W+X":                 {{Addr: 0x1000, Perm: PermW | PermX}},
		"oversized":           {{Addr: 0x1000, Perm: PermRW, Data: make([]byte, PageSize+1)}},
		"adjacent duplicate":  {{Addr: 0x1000, Perm: PermRW}, {Addr: 0x1000, Perm: PermR}},
		"unordered duplicate": {{Addr: 0x3000, Perm: PermRW}, {Addr: 0x1000, Perm: PermRW}, {Addr: 0x3000, Perm: PermR}},
	} {
		if err := CheckPages(pages); err == nil {
			t.Errorf("%s: CheckPages accepted it", name)
		}
		// A space mapping as many pages from 0x1000 on holds every
		// page the snapshot names, so only the checks can refuse it.
		m := New()
		mustMap(t, m, 0x1000, uint64(len(pages))*PageSize, PermRW)
		if m.Reload(pages) == nil {
			t.Errorf("%s: Reload accepted it", name)
		}
	}
	if err := CheckPages([]PageState{{Addr: 0x3000, Perm: PermRW}, {Addr: 0x1000, Perm: PermRW}}); err != nil {
		t.Errorf("pages out of address order but distinct rejected: %v", err)
	}
}

// reloadedSpace maps five pages and loads a snapshot of them: a data
// page with bytes, two all-zero data pages, a read-only page and a
// code page. The first Reload of a space rewrites every page.
func reloadedSpace(t *testing.T) (*Memory, []PageState) {
	t.Helper()
	m := New()
	mustMap(t, m, 0x1000, 4*PageSize, PermRW)
	mustMap(t, m, 0x8000, PageSize, PermRX)
	snap := []PageState{
		{Addr: 0x1000, Perm: PermRW, Data: []byte{1, 2, 3}},
		{Addr: 0x2000, Perm: PermRW},
		{Addr: 0x3000, Perm: PermRW, Data: make([]byte, PageSize)},
		{Addr: 0x4000, Perm: PermR, Data: []byte{4}},
		{Addr: 0x8000, Perm: PermRX, Data: []byte{0xd5}},
	}
	if err := m.Reload(snap); err != nil {
		t.Fatal(err)
	}
	return m, snap
}

// checkSnapshot fails the test unless every page of m holds the
// snapshot's permission and bytes, zero-extended.
func checkSnapshot(t *testing.T, m *Memory, snap []PageState) {
	t.Helper()
	got := m.Pages()
	if len(got) != len(snap) {
		t.Fatalf("space maps %d pages, the snapshot %d", len(got), len(snap))
	}
	for i, ps := range snap {
		want := make([]byte, PageSize)
		copy(want, ps.Data)
		if got[i].Addr != ps.Addr || got[i].Perm != ps.Perm || !bytes.Equal(got[i].Data, want) {
			t.Errorf("page %#x reads back as %#x %s, not the snapshot's %s and bytes", ps.Addr, got[i].Addr, got[i].Perm, ps.Perm)
		}
	}
}

// writePaths is every way to write a frame: the word and byte
// accessors (lookaside and slow path), the byte-range copy, and the
// adversary's window. Each writes 0xfe at the address.
var writePaths = map[string]func(m *Memory, addr uint64) error{
	"Write64":    func(m *Memory, a uint64) error { return m.Write64(a, 0xfeedfacecafef0fe) },
	"Write8":     func(m *Memory, a uint64) error { return m.Write8(a, 0xfe) },
	"WriteBytes": func(m *Memory, a uint64) error { return m.WriteBytes(a, []byte{0xfe, 0xed}) },
	"Poke":       func(m *Memory, a uint64) error { return NewAdversary(m).Poke(a, 0xfeedfacecafef0fe) },
}

// TestReloadRestoresEveryWritePath writes pages through each write
// path, then reloads the snapshot the space last loaded, twice over. A
// reload of the same snapshot rewrites only the pages written since,
// so a path that does not mark its page dirty leaves its write behind.
func TestReloadRestoresEveryWritePath(t *testing.T) {
	for name, write := range writePaths {
		t.Run(name, func(t *testing.T) {
			m, snap := reloadedSpace(t)
			for round := 0; round < 2; round++ {
				// A page with snapshot bytes and a frameless one, each
				// written twice so the second write can hit the lookaside.
				for _, a := range []uint64{0x1000, 0x1008, 0x2ff0, 0x2ff8} {
					if err := write(m, a); err != nil {
						t.Fatal(err)
					}
				}
				if err := m.Reload(snap); err != nil {
					t.Fatal(err)
				}
				checkSnapshot(t, m, snap)
			}
		})
	}
}

// TestFramelessPageReadsZeroUntilWritten: a page reads as zeros before
// its first write, and a read that cached the shared zero frame in the
// lookaside sees the write that backs the page. The zero frame itself
// stays zero.
func TestFramelessPageReadsZeroUntilWritten(t *testing.T) {
	for name, write := range writePaths {
		m := New()
		mustMap(t, m, 0x1000, PageSize, PermRW)
		if v, err := m.Read64(0x1000); err != nil || v != 0 {
			t.Fatalf("%s: a frameless page reads %#x, %v", name, v, err)
		}
		if err := write(m, 0x1000); err != nil {
			t.Fatal(err)
		}
		if b, err := m.Read8(0x1000); err != nil || b != 0xfe {
			t.Errorf("%s: the read after the first write saw %#x, %v", name, b, err)
		}
		if zeroFrame != [PageSize]byte{} {
			t.Fatalf("%s wrote the shared zero frame", name)
		}
	}
}

// TestMapBacksNoFrame: mapping, reading, listing and cloning a page
// leave it frameless; only a write gives it a frame, and Clone copies
// only the frames that exist.
func TestMapBacksNoFrame(t *testing.T) {
	m := New()
	mustMap(t, m, 0x1000, 3*PageSize, PermRW)
	if _, err := m.Read64(0x1000); err != nil {
		t.Fatal(err)
	}
	if _, err := m.ReadBytes(0x1000, 3*PageSize); err != nil {
		t.Fatal(err)
	}
	if _, err := NewAdversary(m).Peek(0x2000); err != nil {
		t.Fatal(err)
	}
	for _, ps := range m.Pages() {
		if len(ps.Data) != PageSize {
			t.Fatalf("page %#x lists %d bytes of data", ps.Addr, len(ps.Data))
		}
	}
	if err := m.Write64(0x3000, 1); err != nil {
		t.Fatal(err)
	}
	for name, space := range map[string]*Memory{"space": m, "clone": m.Clone()} {
		for num, pg := range space.pages {
			if backed := pg.data != nil; backed != (num == 3) {
				t.Errorf("%s: page %#x has a frame: %v, want one only on the written page", name, num*PageSize, backed)
			}
		}
	}
}

// TestReloadKeepsFrames: a page that has a frame keeps it across a
// reload, cleared, so a warm reload allocates nothing; a frameless page
// whose snapshot bytes are all zero stays frameless, whether the
// snapshot lists no bytes or a page of zeros.
func TestReloadKeepsFrames(t *testing.T) {
	m, snap := reloadedSpace(t)
	for num, pg := range m.pages {
		if backed := pg.data != nil; backed != (num == 1 || num == 4 || num == 8) {
			t.Errorf("page %#x has a frame: %v after the first reload", num*PageSize, backed)
		}
	}
	if err := m.Write64(0x2000, 7); err != nil {
		t.Fatal(err)
	}
	frame := m.pages[2].data
	if n := testing.AllocsPerRun(10, func() {
		if err := m.Write64(0x2000, 7); err != nil {
			t.Fatal(err)
		}
		if err := m.Reload(snap); err != nil {
			t.Fatal(err)
		}
	}); n != 0 {
		t.Errorf("a write and a reload of the same snapshot allocated %.0f times", n)
	}
	if m.pages[2].data != frame {
		t.Error("reload dropped the frame of a page it cleared")
	}
	checkSnapshot(t, m, snap)
}

// tamper changes a page's bytes behind the dirty bit, the way no write
// path may, so a test can tell a page the reload rewrote from one it
// skipped.
func tamper(m *Memory, addr uint64) {
	pg := m.pages[addr/PageSize]
	if pg.data == nil {
		pg.data = new([PageSize]byte)
	}
	pg.data[0] = 0x77
}

// TestReloadRewritesOnlyDirtyPages pins when Reload may skip a page: a
// reload of the snapshot the space last loaded skips the pages not
// written since, but a Protect in between, or a different snapshot
// (even one with equal contents), makes it rewrite every page's bytes
// and permission.
func TestReloadRewritesOnlyDirtyPages(t *testing.T) {
	m, snap := reloadedSpace(t)
	tamper(m, 0x3000)
	if err := m.Reload(snap); err != nil {
		t.Fatal(err)
	}
	if b, _ := m.Read8(0x3000); b != 0x77 {
		t.Fatal("a reload of the same snapshot rewrote a page nothing wrote")
	}

	m, snap = reloadedSpace(t)
	if err := m.Protect(0x1000, 2*PageSize, PermR); err != nil {
		t.Fatal(err)
	}
	tamper(m, 0x3000)
	if err := m.Reload(snap); err != nil {
		t.Fatal(err)
	}
	checkSnapshot(t, m, snap)

	m, snap = reloadedSpace(t)
	tamper(m, 0x3000)
	tamper(m, 0x8000)
	other := slices.Clone(snap)
	if err := m.Reload(other); err != nil {
		t.Fatal(err)
	}
	checkSnapshot(t, m, snap)
}
