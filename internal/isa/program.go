package isa

import (
	"fmt"
	"sort"
	"strings"
)

// Program is a linked instruction image: a contiguous sequence of
// instructions based at Base, with a symbol table mapping labels to
// addresses.
type Program struct {
	Base    uint64
	Instrs  []Instr
	Symbols map[string]uint64
}

// Size returns the program footprint in address units.
func (p *Program) Size() uint64 {
	return uint64(len(p.Instrs)) * InstrSize
}

// At returns the instruction at address addr, or an error if addr is
// outside the image or misaligned.
func (p *Program) At(addr uint64) (Instr, error) {
	if addr < p.Base || addr >= p.Base+p.Size() {
		return Instr{}, fmt.Errorf("isa: address %#x outside program [%#x, %#x)", addr, p.Base, p.Base+p.Size())
	}
	if (addr-p.Base)%InstrSize != 0 {
		return Instr{}, fmt.Errorf("isa: misaligned instruction address %#x", addr)
	}
	return p.Instrs[(addr-p.Base)/InstrSize], nil
}

// Lookup returns the address of a label.
func (p *Program) Lookup(label string) (uint64, bool) {
	a, ok := p.Symbols[label]
	return a, ok
}

// MustLookup is Lookup that panics on unknown labels; intended for
// test and harness setup code where a missing symbol is a programming
// error.
func (p *Program) MustLookup(label string) uint64 {
	a, ok := p.Symbols[label]
	if !ok {
		panic("isa: unknown label " + label)
	}
	return a
}

// SymbolFor returns the label whose code region contains addr,
// together with the offset into it. Used by tracing and fault
// reporting.
func (p *Program) SymbolFor(addr uint64) (string, uint64) {
	best := ""
	var bestAddr uint64
	for name, a := range p.Symbols {
		if a <= addr && (best == "" || a > bestAddr) {
			best, bestAddr = name, a
		}
	}
	if best == "" {
		return "", 0
	}
	return best, addr - bestAddr
}

// Disassemble renders the whole program with addresses and labels.
func (p *Program) Disassemble() string {
	type sym struct {
		name string
		addr uint64
	}
	syms := make([]sym, 0, len(p.Symbols))
	for n, a := range p.Symbols {
		syms = append(syms, sym{n, a})
	}
	sort.Slice(syms, func(i, j int) bool { return syms[i].addr < syms[j].addr })

	var b strings.Builder
	si := 0
	for i, ins := range p.Instrs {
		addr := p.Base + uint64(i)*InstrSize
		for si < len(syms) && syms[si].addr == addr {
			fmt.Fprintf(&b, "%s:\n", syms[si].name)
			si++
		}
		fmt.Fprintf(&b, "  %#08x  %s\n", addr, ins)
	}
	return b.String()
}

// MergePrograms links several programs into one image spanning all of
// them: based at the lowest Base, with the address gaps between inputs
// filled by undefined instructions, so fetching from a gap faults like
// fetching any other undefined opcode. Symbol tables are merged.
// Overlapping images or duplicate symbols panic: the inputs come from
// assemblers and generators, so either is a programming error.
func MergePrograms(progs ...*Program) *Program {
	if len(progs) == 0 {
		panic("isa: MergePrograms with no inputs")
	}
	sorted := make([]*Program, len(progs))
	copy(sorted, progs)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i].Base < sorted[j].Base })
	out := &Program{Base: sorted[0].Base, Symbols: make(map[string]uint64)}
	filler := Instr{Op: numOps} // undefined: faults if ever fetched
	for _, p := range sorted {
		end := out.Base + out.Size()
		if p.Base < end {
			panic(fmt.Sprintf("isa: MergePrograms overlap at %#x", p.Base))
		}
		if gap := p.Base - end; gap%InstrSize != 0 {
			panic(fmt.Sprintf("isa: MergePrograms misaligned base %#x", p.Base))
		} else {
			for i := uint64(0); i < gap/InstrSize; i++ {
				out.Instrs = append(out.Instrs, filler)
			}
		}
		out.Instrs = append(out.Instrs, p.Instrs...)
		for name, addr := range p.Symbols {
			if _, dup := out.Symbols[name]; dup {
				panic("isa: MergePrograms duplicate symbol " + name)
			}
			out.Symbols[name] = addr
		}
	}
	return out
}

// Builder accumulates instructions and labels and links them into a
// Program.
type Builder struct {
	base   uint64
	instrs []Instr
	labels map[string]int // label -> instruction index
}

// NewBuilder returns a Builder for a program based at base.
func NewBuilder(base uint64) *Builder {
	return &Builder{base: base, labels: make(map[string]int)}
}

// Label defines a label at the current position. Defining the same
// label twice panics: duplicate symbols are always a bug in the
// generator.
func (b *Builder) Label(name string) {
	if _, dup := b.labels[name]; dup {
		panic("isa: duplicate label " + name)
	}
	b.labels[name] = len(b.instrs)
}

// Emit appends instructions.
func (b *Builder) Emit(ins ...Instr) {
	b.instrs = append(b.instrs, ins...)
}

// Link resolves all labels and returns the Program.
func (b *Builder) Link() (*Program, error) {
	p := &Program{
		Base:    b.base,
		Instrs:  make([]Instr, len(b.instrs)),
		Symbols: make(map[string]uint64, len(b.labels)),
	}
	copy(p.Instrs, b.instrs)
	for name, idx := range b.labels {
		p.Symbols[name] = b.base + uint64(idx)*InstrSize
	}
	for i := range p.Instrs {
		ins := &p.Instrs[i]
		if ins.Label == "" {
			continue
		}
		switch ins.Op {
		case B, BL, BCND, CBZ, CBNZ:
			addr, ok := p.Symbols[ins.Label]
			if !ok {
				return nil, fmt.Errorf("isa: undefined label %q at %#x", ins.Label, p.Base+uint64(i)*InstrSize)
			}
			ins.Target = addr
		case MOVZ:
			// MOVZ Xd, =label loads a code address (function pointer).
			addr, ok := p.Symbols[ins.Label]
			if !ok {
				return nil, fmt.Errorf("isa: undefined label %q at %#x", ins.Label, p.Base+uint64(i)*InstrSize)
			}
			ins.Imm = int64(addr)
		default:
			return nil, fmt.Errorf("isa: label on non-branch instruction %s", ins)
		}
	}
	return p, nil
}

// MustLink is Link that panics on error, for generators whose label
// sets are static.
func (b *Builder) MustLink() *Program {
	p, err := b.Link()
	if err != nil {
		panic(err)
	}
	return p
}
