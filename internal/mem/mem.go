// Package mem provides the simulated process address space: sparse,
// paged, little-endian memory with per-page permissions.
//
// The W⊕X policy of the PACStack adversary model (assumption A1) is
// enforced structurally: a page can never be mapped or re-protected
// as both writable and executable, and the adversary's raw-access
// window (Adversary) can corrupt any readable data but can never
// touch executable pages.
package mem

import (
	"cmp"
	"encoding/binary"
	"fmt"
	"slices"
)

// Perm is a page permission bit set.
type Perm uint8

// Permission bits.
const (
	PermR Perm = 1 << iota
	PermW
	PermX
)

// Common permission combinations.
const (
	PermRW = PermR | PermW
	PermRX = PermR | PermX
)

// String renders the permissions in ls -l style, e.g. "rw-".
func (p Perm) String() string {
	b := []byte("---")
	if p&PermR != 0 {
		b[0] = 'r'
	}
	if p&PermW != 0 {
		b[1] = 'w'
	}
	if p&PermX != 0 {
		b[2] = 'x'
	}
	return string(b)
}

// AccessKind distinguishes the operation that faulted.
type AccessKind int

// Kinds of memory access.
const (
	AccessRead AccessKind = iota
	AccessWrite
	AccessFetch
)

func (k AccessKind) String() string {
	switch k {
	case AccessRead:
		return "read"
	case AccessWrite:
		return "write"
	case AccessFetch:
		return "fetch"
	}
	return "access"
}

// Fault is a memory access violation: unmapped address or permission
// mismatch. It corresponds to the MMU translation/permission faults
// that terminate a process under the paper's "failed guess crashes the
// program" assumption.
type Fault struct {
	Addr   uint64
	Kind   AccessKind
	Reason string
}

func (f *Fault) Error() string {
	return fmt.Sprintf("mem: %s fault at %#x: %s", f.Kind, f.Addr, f.Reason)
}

// PageSize is the simulated page granularity.
const PageSize = 4096

type page struct {
	perm Perm
	data [PageSize]byte
}

// Memory is one simulated address space. It is not safe for
// concurrent mutation; the kernel serializes access, matching a
// single-core interleaving model.
type Memory struct {
	pages map[uint64]*page
	// gen counts mapping/permission changes. Fetch-permission caches
	// (cpu.Machine's executable-window cache) key on it so they only
	// re-walk pages after a Map or Protect.
	gen uint64

	// Data lookaside: the last page served for a read and for a write,
	// with the permission check already passed. A nil page marks the
	// entry invalid; Map, Protect and FromPages invalidate both (any
	// mapping or permission change might revoke what the entry
	// proved), so the fast path needs no generation compare. Clone
	// copies neither entry — the clone's pages are fresh objects.
	lrNum uint64 // page number of lrPg
	lrPg  *page  // last read-permitted page, or nil
	lwNum uint64
	lwPg  *page // last write-permitted page, or nil
}

// dropTLB invalidates the data lookaside entries.
func (m *Memory) dropTLB() {
	m.lrPg = nil
	m.lwPg = nil
}

// New returns an empty address space.
func New() *Memory {
	return &Memory{pages: make(map[uint64]*page)}
}

// Gen returns the mapping generation: it changes whenever a Map or
// Protect could have altered which addresses are executable, so any
// cached fetch-permission decision taken at an older generation must
// be revalidated.
func (m *Memory) Gen() uint64 { return m.gen }

// Clone returns a deep copy of the address space: the copy-on-write
// effect of fork, fully materialized. Used by the kernel's fork and
// by attack harnesses that replay a process from a snapshot.
func (m *Memory) Clone() *Memory {
	c := &Memory{pages: make(map[uint64]*page, len(m.pages)), gen: m.gen}
	for k, pg := range m.pages {
		cp := *pg
		c.pages[k] = &cp
	}
	return c
}

// Map creates pages covering [addr, addr+size) with the given
// permissions. Mapping W+X is rejected (W⊕X), as is overlapping an
// existing mapping.
func (m *Memory) Map(addr, size uint64, perm Perm) error {
	if perm&PermW != 0 && perm&PermX != 0 {
		return fmt.Errorf("mem: W+X mapping at %#x violates W⊕X", addr)
	}
	if size == 0 {
		return fmt.Errorf("mem: zero-size mapping at %#x", addr)
	}
	first := addr / PageSize
	last := (addr + size - 1) / PageSize
	for p := first; p <= last; p++ {
		if _, ok := m.pages[p]; ok {
			return fmt.Errorf("mem: mapping at %#x overlaps existing page %#x", addr, p*PageSize)
		}
	}
	for p := first; p <= last; p++ {
		m.pages[p] = &page{perm: perm}
	}
	m.gen++
	m.dropTLB()
	return nil
}

// Protect changes the permissions of already-mapped pages. W+X is
// rejected.
func (m *Memory) Protect(addr, size uint64, perm Perm) error {
	if perm&PermW != 0 && perm&PermX != 0 {
		return fmt.Errorf("mem: W+X protection at %#x violates W⊕X", addr)
	}
	first := addr / PageSize
	last := (addr + size - 1) / PageSize
	for p := first; p <= last; p++ {
		if _, ok := m.pages[p]; !ok {
			return &Fault{Addr: p * PageSize, Kind: AccessWrite, Reason: "protect of unmapped page"}
		}
	}
	for p := first; p <= last; p++ {
		m.pages[p].perm = perm
	}
	m.gen++
	m.dropTLB()
	return nil
}

// Perm returns the permissions of the page containing addr, or 0 if
// unmapped.
func (m *Memory) Perm(addr uint64) Perm {
	pg, ok := m.pages[addr/PageSize]
	if !ok {
		return 0
	}
	return pg.perm
}

// Mapped reports whether addr lies in a mapped page.
func (m *Memory) Mapped(addr uint64) bool {
	_, ok := m.pages[addr/PageSize]
	return ok
}

func (m *Memory) access(addr uint64, n int, kind AccessKind, need Perm) (*page, int, error) {
	pg, ok := m.pages[addr/PageSize]
	if !ok {
		return nil, 0, &Fault{Addr: addr, Kind: kind, Reason: "unmapped"}
	}
	off := int(addr % PageSize)
	if off+n > PageSize {
		// Multi-page accesses are handled byte-wise by callers; the
		// word accessors reject page-straddling for simplicity.
		return nil, 0, &Fault{Addr: addr, Kind: kind, Reason: "access straddles page boundary"}
	}
	if pg.perm&need != need {
		return nil, 0, &Fault{Addr: addr, Kind: kind,
			Reason: fmt.Sprintf("permission %s lacks %s", pg.perm, need)}
	}
	return pg, off, nil
}

// Read64 loads a little-endian 64-bit word.
func (m *Memory) Read64(addr uint64) (uint64, error) {
	if pg := m.lrPg; pg != nil && addr/PageSize == m.lrNum {
		if off := addr % PageSize; off <= PageSize-8 {
			return le64(pg.data[off:]), nil
		}
		// Page-straddling word: fall through for the exact fault.
	}
	pg, off, err := m.access(addr, 8, AccessRead, PermR)
	if err != nil {
		return 0, err
	}
	m.lrNum, m.lrPg = addr/PageSize, pg
	return le64(pg.data[off:]), nil
}

// Write64 stores a little-endian 64-bit word.
func (m *Memory) Write64(addr, v uint64) error {
	if pg := m.lwPg; pg != nil && addr/PageSize == m.lwNum {
		if off := addr % PageSize; off <= PageSize-8 {
			putLE64(pg.data[off:], v)
			return nil
		}
	}
	pg, off, err := m.access(addr, 8, AccessWrite, PermW)
	if err != nil {
		return err
	}
	m.lwNum, m.lwPg = addr/PageSize, pg
	putLE64(pg.data[off:], v)
	return nil
}

// Read8 loads one byte.
func (m *Memory) Read8(addr uint64) (byte, error) {
	if pg := m.lrPg; pg != nil && addr/PageSize == m.lrNum {
		return pg.data[addr%PageSize], nil
	}
	pg, off, err := m.access(addr, 1, AccessRead, PermR)
	if err != nil {
		return 0, err
	}
	m.lrNum, m.lrPg = addr/PageSize, pg
	return pg.data[off], nil
}

// Write8 stores one byte.
func (m *Memory) Write8(addr uint64, v byte) error {
	if pg := m.lwPg; pg != nil && addr/PageSize == m.lwNum {
		pg.data[addr%PageSize] = v
		return nil
	}
	pg, off, err := m.access(addr, 1, AccessWrite, PermW)
	if err != nil {
		return err
	}
	m.lwNum, m.lwPg = addr/PageSize, pg
	pg.data[off] = v
	return nil
}

// CheckFetch verifies that addr may be executed from.
func (m *Memory) CheckFetch(addr uint64) error {
	_, _, err := m.access(addr, 1, AccessFetch, PermX)
	return err
}

// ExecRegion returns the maximal contiguous executable window
// [lo, hi) containing addr, or the fetch fault for addr when its page
// is not executable. Together with Gen it backs the CPU's fetch fast
// path: a fetch inside a previously returned window at an unchanged
// generation needs no page walk at all.
func (m *Memory) ExecRegion(addr uint64) (lo, hi uint64, err error) {
	if _, _, err := m.access(addr, 1, AccessFetch, PermX); err != nil {
		return 0, 0, err
	}
	first := addr / PageSize
	last := first
	for first > 0 {
		pg, ok := m.pages[first-1]
		if !ok || pg.perm&PermX == 0 {
			break
		}
		first--
	}
	for {
		pg, ok := m.pages[last+1]
		if !ok || pg.perm&PermX == 0 {
			break
		}
		last++
	}
	return first * PageSize, (last + 1) * PageSize, nil
}

// ReadBytes copies size bytes starting at addr, page at a time.
func (m *Memory) ReadBytes(addr, size uint64) ([]byte, error) {
	out := make([]byte, size)
	for done := uint64(0); done < size; {
		a := addr + done
		n := PageSize - int(a%PageSize)
		if rem := size - done; rem < uint64(n) {
			n = int(rem)
		}
		pg, off, err := m.access(a, n, AccessRead, PermR)
		if err != nil {
			return nil, err
		}
		copy(out[done:], pg.data[off:off+n])
		done += uint64(n)
	}
	return out, nil
}

// WriteBytes stores b starting at addr, page at a time. On a fault
// mid-copy, every byte before the faulting page has been written,
// matching the byte-wise semantics (permissions are per page, so a
// fault can only occur at a page boundary).
func (m *Memory) WriteBytes(addr uint64, b []byte) error {
	for done := 0; done < len(b); {
		a := addr + uint64(done)
		n := PageSize - int(a%PageSize)
		if rem := len(b) - done; rem < n {
			n = rem
		}
		pg, off, err := m.access(a, n, AccessWrite, PermW)
		if err != nil {
			return err
		}
		copy(pg.data[off:off+n], b[done:done+n])
		done += n
	}
	return nil
}

// PageState is one mapped page in exportable form, used by the
// checkpoint/restore subsystem (internal/snap) to serialize an
// address space.
type PageState struct {
	Addr uint64 // page-aligned base address
	Perm Perm
	Data []byte // exactly PageSize bytes
}

// Pages returns every mapped page sorted by address. Each Data slice
// aliases the live page rather than copying it, so it shows the page
// as it is now only until the memory is next written; a caller that
// keeps it longer must copy it.
func (m *Memory) Pages() []PageState {
	out := make([]PageState, 0, len(m.pages))
	for num, pg := range m.pages {
		out = append(out, PageState{Addr: num * PageSize, Perm: pg.perm, Data: pg.data[:]})
	}
	slices.SortFunc(out, func(a, b PageState) int { return cmp.Compare(a.Addr, b.Addr) })
	return out
}

// FromPages reconstructs an address space from a page snapshot. The
// same structural invariants as Map apply: page-aligned addresses, no
// duplicates, no W+X permissions; data must be exactly PageSize bytes
// (shorter slices are accepted and zero-extended, the codec trims
// trailing zeros).
func FromPages(pages []PageState) (*Memory, error) {
	m := New()
	for _, ps := range pages {
		if ps.Addr%PageSize != 0 {
			return nil, fmt.Errorf("mem: page address %#x not page-aligned", ps.Addr)
		}
		if ps.Perm&PermW != 0 && ps.Perm&PermX != 0 {
			return nil, fmt.Errorf("mem: W+X page at %#x violates W⊕X", ps.Addr)
		}
		if len(ps.Data) > PageSize {
			return nil, fmt.Errorf("mem: page at %#x has %d bytes of data", ps.Addr, len(ps.Data))
		}
		num := ps.Addr / PageSize
		if _, ok := m.pages[num]; ok {
			return nil, fmt.Errorf("mem: duplicate page at %#x", ps.Addr)
		}
		pg := &page{perm: ps.Perm}
		copy(pg.data[:], ps.Data)
		m.pages[num] = pg
	}
	m.gen++
	return m, nil
}

func le64(b []byte) uint64 { return binary.LittleEndian.Uint64(b) }

func putLE64(b []byte, v uint64) { binary.LittleEndian.PutUint64(b, v) }
