package compile

import (
	"fmt"
	"hash/crc64"
	"strings"
	"sync"

	"pacstack/internal/ir"
	"pacstack/internal/isa"
)

// Image is a compiled program: the linked machine code plus the
// metadata the loader needs.
type Image struct {
	Prog   *isa.Program
	Scheme Scheme
	Layout Layout
	IR     *ir.Program

	// FuncEntries maps every function (including runtime functions)
	// to its entry address; Boot uses it as the allowed-target set
	// for the assumption-A2 forward-edge CFI.
	FuncEntries map[string]uint64

	text struct { // see Text
		once  sync.Once
		bytes []byte
		crc   uint64
		err   error
	}
}

// textCRCTable is the CRC-64 of a program text: ECMA, as in the
// snapshot codec.
var textCRCTable = crc64.MakeTable(crc64.ECMA)

// Text returns Prog's encoded text segment, the bytes Boot loads, and
// its CRC-64/ECMA, which every snapshot of the image's processes
// carries to bind it to the binary that can resume it. Both are
// computed once per image; the caller must not modify the bytes.
func (img *Image) Text() ([]byte, uint64, error) {
	t := &img.text
	t.once.Do(func() {
		t.bytes, t.err = isa.EncodeProgram(img.Prog)
		if t.err != nil {
			t.err = fmt.Errorf("compile: encoding text segment: %w", t.err)
			return
		}
		t.crc = crc64.Checksum(t.bytes, textCRCTable)
	})
	return t.bytes, t.crc, t.err
}

// reservedPrefix guards generated label space.
const reservedPrefix = "__"

// Compile lowers p under the given scheme.
func Compile(p *ir.Program, scheme Scheme, layout Layout) (*Image, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	for _, f := range p.Functions {
		if strings.HasPrefix(f.Name, reservedPrefix) || strings.Contains(f.Name, "$") {
			return nil, fmt.Errorf("compile: function name %q collides with generated labels", f.Name)
		}
	}

	c := &compiler{
		b:      isa.NewBuilder(layout.CodeBase),
		scheme: scheme,
		layout: layout,
	}
	c.emitStart(p.Entry)
	for _, f := range p.Functions {
		c.lowerFunction(f)
	}
	c.emitRuntime()

	prog, err := c.b.Link()
	if err != nil {
		return nil, err
	}
	img := &Image{
		Prog:        prog,
		Scheme:      scheme,
		Layout:      layout,
		IR:          p,
		FuncEntries: make(map[string]uint64),
	}
	for _, f := range p.Functions {
		img.FuncEntries[f.Name] = prog.MustLookup(f.Name)
	}
	for _, rt := range []string{"_start", "__task_exit", "__acs_validate", "__stack_chk_fail",
		"__setjmp", "__longjmp", "__setjmp_wrapper", "__longjmp_wrapper", "__thread_seed",
		"__sigreturn", "__sig_handler"} {
		img.FuncEntries[rt] = prog.MustLookup(rt)
	}
	return img, nil
}

// MustCompile is Compile that panics on error, for static fixtures.
func MustCompile(p *ir.Program, scheme Scheme, layout Layout) *Image {
	img, err := Compile(p, scheme, layout)
	if err != nil {
		panic(err)
	}
	return img
}

type compiler struct {
	b      *isa.Builder
	scheme Scheme
	layout Layout
	labels int
}

func (c *compiler) newLabel(fn, kind string) string {
	c.labels++
	return fmt.Sprintf("%s$%s%d", fn, kind, c.labels)
}

func (c *compiler) i(op isa.Op, mk func(*isa.Instr)) {
	ins := isa.Instr{Op: op}
	if mk != nil {
		mk(&ins)
	}
	c.b.Emit(ins)
}

// frameInfo captures the per-function stack frame plan.
type frameInfo struct {
	f         *ir.Function
	scheme    Scheme // effective scheme: SchemeNone when uninstrumented
	leaf      bool
	userSlots int
	loopSlots int
	hasCanary bool
	localSize int64 // bytes reserved below the frame record, 16-aligned
}

func (c *compiler) plan(f *ir.Function) frameInfo {
	fi := frameInfo{
		f:         f,
		scheme:    c.scheme,
		leaf:      f.IsLeaf(),
		userSlots: f.Locals,
		loopSlots: countLoops(f.Body),
	}
	if f.Uninstrumented {
		fi.scheme = SchemeNone
	}
	fi.hasCanary = fi.scheme == SchemeCanary && f.Locals > 0
	slots := fi.userSlots + fi.loopSlots
	if fi.hasCanary {
		slots++
	}
	fi.localSize = int64(8*slots+15) &^ 15
	return fi
}

func countLoops(ops []ir.Op) int {
	n := 0
	for _, op := range ops {
		switch o := op.(type) {
		case ir.Loop:
			n += 1 + countLoops(o.Body)
		case ir.IfNZ:
			n += countLoops(o.Then)
		}
	}
	return n
}

// Local slot offsets from SP while the body runs: user slots first,
// hidden loop slots after them, the canary (when present) last so it
// sits directly below the caller-saved frame record — the position a
// buffer overflow must cross.
func (fi *frameInfo) userOff(slot int) int64 { return int64(8 * slot) }
func (fi *frameInfo) loopOff(k int) int64    { return int64(8 * (fi.userSlots + k)) }
func (fi *frameInfo) canaryOff() int64       { return int64(8 * (fi.userSlots + fi.loopSlots)) }
func (c *compiler) lowerFunction(f *ir.Function) {
	fi := c.plan(f)
	c.b.Label(f.Name)
	c.emitPrologue(&fi)

	loopIdx := 0
	c.lowerOps(&fi, f.Body, &loopIdx, true)

	// Functions ending in a tail call emitted their own epilogue.
	if !endsInTailCall(f.Body) {
		c.emitEpilogue(&fi)
		c.emitReturn(&fi)
	}
}

func endsInTailCall(ops []ir.Op) bool {
	if len(ops) == 0 {
		return false
	}
	_, ok := ops[len(ops)-1].(ir.TailCall)
	return ok
}

func (c *compiler) lowerOps(fi *frameInfo, ops []ir.Op, loopIdx *int, tail bool) {
	for k, op := range ops {
		last := tail && k == len(ops)-1
		switch o := op.(type) {
		case ir.Compute:
			c.lowerCompute(fi, o)
		case ir.StoreLocal:
			c.i(isa.MOVZ, func(i *isa.Instr) { i.Rd = isa.X10; i.Imm = o.Value })
			off := fi.userOff(o.Slot)
			c.i(isa.STR, func(i *isa.Instr) { i.Rd = isa.X10; i.Rn = isa.SP; i.Imm = off })
		case ir.LoadLocal:
			off := fi.userOff(o.Slot)
			c.i(isa.LDR, func(i *isa.Instr) { i.Rd = isa.X10; i.Rn = isa.SP; i.Imm = off })
		case ir.Call:
			c.i(isa.BL, func(i *isa.Instr) { i.Label = o.Target })
		case ir.CallPtr:
			c.i(isa.MOVZ, func(i *isa.Instr) { i.Rd = isa.X12; i.Label = o.Target })
			c.i(isa.BLR, func(i *isa.Instr) { i.Rn = isa.X12 })
		case ir.TailCall:
			if !last {
				panic("compile: tail call not in tail position (validated earlier)")
			}
			c.emitEpilogue(fi)
			c.emitTailBranch(fi, o.Target)
		case ir.Loop:
			c.lowerLoop(fi, o, loopIdx)
		case ir.Write:
			c.i(isa.MOVZ, func(i *isa.Instr) { i.Rd = isa.X0; i.Imm = int64(o.Byte) })
			c.i(isa.SVC, func(i *isa.Instr) { i.Imm = 1 })
		case ir.SetJmp:
			// Wrapper selection is program-wide, like libc symbol
			// interposition: an uninstrumented caller in a PACStack
			// process still gets the binding wrappers, or a buffer
			// written by one side could not be consumed by the other.
			label := "__setjmp"
			if c.scheme == SchemePACStack || c.scheme == SchemePACStackNoMask {
				label = "__setjmp_wrapper"
			}
			c.i(isa.MOVZ, func(i *isa.Instr) { i.Rd = isa.X0; i.Imm = int64(c.layout.JmpBufAddr(o.Buf)) })
			c.i(isa.BL, func(i *isa.Instr) { i.Label = label })
		case ir.LongJmp:
			label := "__longjmp"
			if c.scheme == SchemePACStack || c.scheme == SchemePACStackNoMask {
				label = "__longjmp_wrapper"
			}
			c.i(isa.MOVZ, func(i *isa.Instr) { i.Rd = isa.X0; i.Imm = int64(c.layout.JmpBufAddr(o.Buf)) })
			c.i(isa.MOVZ, func(i *isa.Instr) { i.Rd = isa.X1; i.Imm = o.Value })
			c.i(isa.BL, func(i *isa.Instr) { i.Label = label })
		case ir.IfNZ:
			skip := c.newLabel(fi.f.Name, "ifnz")
			c.i(isa.CBZ, func(i *isa.Instr) { i.Rn = isa.X0; i.Label = skip })
			c.lowerOps(fi, o.Then, loopIdx, false)
			c.b.Label(skip)
		case ir.Exit:
			c.i(isa.MOVZ, func(i *isa.Instr) { i.Rd = isa.X0; i.Imm = o.Code })
			c.i(isa.SVC, func(i *isa.Instr) { i.Imm = 0 })
		case ir.ValidateFrames:
			c.i(isa.MOVZ, func(i *isa.Instr) { i.Rd = isa.X0; i.Imm = int64(o.Max) })
			c.i(isa.BL, func(i *isa.Instr) { i.Label = "__acs_validate" })
			// Print the validated-frame count as an ASCII digit.
			c.i(isa.ADDI, func(i *isa.Instr) { i.Rd = isa.X0; i.Rn = isa.X0; i.Imm = '0' })
			c.i(isa.SVC, func(i *isa.Instr) { i.Imm = 1 })
		case ir.AssertLocal:
			ok := c.newLabel(fi.f.Name, "assert")
			c.i(isa.LDR, func(i *isa.Instr) { i.Rd = isa.X10; i.Rn = isa.SP; i.Imm = fi.userOff(o.Slot) })
			c.i(isa.CMPI, func(i *isa.Instr) { i.Rn = isa.X10; i.Imm = o.Value })
			c.i(isa.BCND, func(i *isa.Instr) { i.Cond = isa.EQ; i.Label = ok })
			c.i(isa.MOVZ, func(i *isa.Instr) { i.Rd = isa.X0; i.Imm = 77 })
			c.i(isa.SVC, func(i *isa.Instr) { i.Imm = 0 })
			c.b.Label(ok)
		}
	}
}

func (c *compiler) lowerCompute(fi *frameInfo, o ir.Compute) {
	switch {
	case o.Units == 0:
	case o.Units <= 4:
		for n := 0; n < o.Units; n++ {
			c.i(isa.ADDI, func(i *isa.Instr) { i.Rd = isa.X9; i.Rn = isa.X9; i.Imm = 1 })
		}
	default:
		head := c.newLabel(fi.f.Name, "compute")
		c.i(isa.MOVZ, func(i *isa.Instr) { i.Rd = isa.X9; i.Imm = int64(o.Units) })
		c.b.Label(head)
		c.i(isa.SUBI, func(i *isa.Instr) { i.Rd = isa.X9; i.Rn = isa.X9; i.Imm = 1 })
		c.i(isa.CBNZ, func(i *isa.Instr) { i.Rn = isa.X9; i.Label = head })
	}
}

func (c *compiler) lowerLoop(fi *frameInfo, o ir.Loop, loopIdx *int) {
	slot := *loopIdx
	*loopIdx++
	off := fi.loopOff(slot)
	head := c.newLabel(fi.f.Name, "loop")
	end := c.newLabel(fi.f.Name, "endloop")

	c.i(isa.MOVZ, func(i *isa.Instr) { i.Rd = isa.X10; i.Imm = int64(o.Count) })
	c.i(isa.STR, func(i *isa.Instr) { i.Rd = isa.X10; i.Rn = isa.SP; i.Imm = off })
	c.b.Label(head)
	c.i(isa.LDR, func(i *isa.Instr) { i.Rd = isa.X10; i.Rn = isa.SP; i.Imm = off })
	c.i(isa.CBZ, func(i *isa.Instr) { i.Rn = isa.X10; i.Label = end })
	c.lowerOps(fi, o.Body, loopIdx, false)
	c.i(isa.LDR, func(i *isa.Instr) { i.Rd = isa.X10; i.Rn = isa.SP; i.Imm = off })
	c.i(isa.SUBI, func(i *isa.Instr) { i.Rd = isa.X10; i.Rn = isa.X10; i.Imm = 1 })
	c.i(isa.STR, func(i *isa.Instr) { i.Rd = isa.X10; i.Rn = isa.SP; i.Imm = off })
	c.i(isa.B, func(i *isa.Instr) { i.Label = head })
	c.b.Label(end)
}
