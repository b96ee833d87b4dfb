package mem

import "fmt"

// Adversary is the attacker's window onto a process address space,
// implementing the adversary model of Section 3: arbitrary read of the
// whole address space and arbitrary write to data pages, but no
// modification of executable memory (W⊕X, assumption A1) and no access
// to registers or kernel state.
//
// All attack code in internal/attack goes through this type, so the
// power granted to the attacker is auditable in one place.
type Adversary struct {
	m *Memory
}

// NewAdversary returns an attacker view of m.
func NewAdversary(m *Memory) *Adversary { return &Adversary{m: m} }

// Peek reads a 64-bit word from anywhere in mapped memory, ignoring
// page permissions — the adversary model grants full disclosure (R2
// is about tolerating exactly this).
func (a *Adversary) Peek(addr uint64) (uint64, error) {
	pg, ok := a.m.pages[addr/PageSize]
	if !ok {
		return 0, &Fault{Addr: addr, Kind: AccessRead, Reason: "unmapped"}
	}
	off := int(addr % PageSize)
	if off+8 > PageSize {
		return 0, &Fault{Addr: addr, Kind: AccessRead, Reason: "access straddles page boundary"}
	}
	return le64(pg.frame()[off:]), nil
}

// Poke writes a 64-bit word to any mapped non-executable page. Writes
// to executable pages are refused: code is protected by W⊕X.
func (a *Adversary) Poke(addr, v uint64) error {
	pg, ok := a.m.pages[addr/PageSize]
	if !ok {
		return &Fault{Addr: addr, Kind: AccessWrite, Reason: "unmapped"}
	}
	if pg.perm&PermX != 0 {
		return fmt.Errorf("mem: adversary write to executable page %#x blocked by W⊕X", addr)
	}
	off := int(addr % PageSize)
	if off+8 > PageSize {
		return &Fault{Addr: addr, Kind: AccessWrite, Reason: "access straddles page boundary"}
	}
	putLE64(a.m.back(addr/PageSize, pg)[off:], v)
	return nil
}

// Scan reads n consecutive 64-bit words starting at addr.
func (a *Adversary) Scan(addr uint64, n int) ([]uint64, error) {
	out := make([]uint64, n)
	for i := range out {
		v, err := a.Peek(addr + uint64(8*i))
		if err != nil {
			return nil, err
		}
		out[i] = v
	}
	return out, nil
}
