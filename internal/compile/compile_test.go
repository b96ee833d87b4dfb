package compile

import (
	"errors"
	"hash/crc64"
	"strings"
	"testing"

	"pacstack/internal/cpu"
	"pacstack/internal/ir"
	"pacstack/internal/isa"
	"pacstack/internal/kernel"
	"pacstack/internal/mem"
	"pacstack/internal/pa"
)

func testKernel() *kernel.Kernel { return kernel.New(pa.DefaultConfig()) }

// demoProgram exercises calls, indirect calls, locals, loops and
// output; every scheme must run it to the same result.
func demoProgram() *ir.Program {
	return &ir.Program{
		Entry: "main",
		Functions: []*ir.Function{
			{
				Name:   "main",
				Locals: 2,
				Body: []ir.Op{
					ir.StoreLocal{Slot: 0, Value: 7},
					ir.Call{Target: "work"},
					ir.Loop{Count: 3, Body: []ir.Op{
						ir.Call{Target: "work"},
						ir.Write{Byte: '.'},
					}},
					ir.CallPtr{Target: "leafy"},
					ir.LoadLocal{Slot: 0},
					ir.Write{Byte: '!'},
				},
			},
			{
				Name:   "work",
				Locals: 1,
				Body: []ir.Op{
					ir.StoreLocal{Slot: 0, Value: 1},
					ir.Compute{Units: 10},
					ir.Call{Target: "leafy"},
					ir.Write{Byte: 'w'},
				},
			},
			{
				Name: "leafy",
				Body: []ir.Op{ir.Compute{Units: 3}},
			},
		},
	}
}

func runScheme(t *testing.T, p *ir.Program, s Scheme) *kernel.Process {
	t.Helper()
	img, err := Compile(p, s, DefaultLayout())
	if err != nil {
		t.Fatalf("%v: %v", s, err)
	}
	proc, err := img.Boot(testKernel())
	if err != nil {
		t.Fatalf("%v: %v", s, err)
	}
	if err := proc.Run(10_000_000); err != nil {
		t.Fatalf("%v: %v\n%s", s, err, img.Prog.Disassemble())
	}
	return proc
}

func TestAllSchemesBehaveIdentically(t *testing.T) {
	const want = "ww.w.w.!"
	for _, s := range Schemes {
		proc := runScheme(t, demoProgram(), s)
		if got := string(proc.Output); got != want {
			t.Errorf("%v: output %q, want %q", s, got, want)
		}
		if proc.ExitCode != 0 {
			t.Errorf("%v: exit code %d", s, proc.ExitCode)
		}
	}
}

func TestSchemeOverheadOrdering(t *testing.T) {
	// A call-heavy workload: instrumentation cost must rank
	// baseline <= every scheme, nomask <= mask, and PACStack must be
	// the most expensive of the PA-based schemes (Table 2's shape).
	p := &ir.Program{
		Entry: "main",
		Functions: []*ir.Function{
			{Name: "main", Body: []ir.Op{
				ir.Loop{Count: 200, Body: []ir.Op{ir.Call{Target: "f"}}},
			}},
			{Name: "f", Body: []ir.Op{ir.Call{Target: "g"}}},
			{Name: "g", Body: []ir.Op{ir.Compute{Units: 2}}},
		},
	}
	cycles := map[Scheme]uint64{}
	for _, s := range Schemes {
		cycles[s] = runScheme(t, p, s).Cycles()
	}
	base := cycles[SchemeNone]
	for _, s := range Schemes[1:] {
		if cycles[s] < base {
			t.Errorf("%v (%d cycles) cheaper than baseline (%d)", s, cycles[s], base)
		}
	}
	if cycles[SchemePACStackNoMask] >= cycles[SchemePACStack] {
		t.Errorf("nomask (%d) should be cheaper than masked (%d)",
			cycles[SchemePACStackNoMask], cycles[SchemePACStack])
	}
	if cycles[SchemeBranchProtection] > cycles[SchemePACStack] {
		t.Errorf("-mbranch-protection (%d) should not exceed PACStack (%d)",
			cycles[SchemeBranchProtection], cycles[SchemePACStack])
	}
}

// sequence extracts the ops of function fn from the image.
func sequence(t *testing.T, img *Image, fn string) []isa.Op {
	t.Helper()
	start := img.Prog.MustLookup(fn)
	var ops []isa.Op
	for addr := start; ; addr += isa.InstrSize {
		ins, err := img.Prog.At(addr)
		if err != nil {
			break
		}
		ops = append(ops, ins.Op)
		if ins.Op == isa.RET || ins.Op == isa.RETAA {
			break
		}
	}
	return ops
}

func TestPACStackEmitsListing3(t *testing.T) {
	p := &ir.Program{Entry: "main", Functions: []*ir.Function{
		{Name: "main", Body: []ir.Op{ir.Call{Target: "leaf"}}},
		{Name: "leaf", Body: []ir.Op{ir.Compute{Units: 1}}},
	}}
	img := MustCompile(p, SchemePACStack, DefaultLayout())
	got := sequence(t, img, "main")
	want := []isa.Op{
		// Prologue, Listing 3.
		isa.STRPRE, isa.STP, isa.ADDI, // str X28; stp FP, LR; FP setup
		isa.MOV, isa.PACIA, isa.PACIA, isa.EOR, isa.MOV, // masking
		isa.MOV, // CR <- aret
		isa.BL,
		// Epilogue, Listing 3.
		isa.MOV, isa.LDR, isa.LDRPOST,
		isa.MOV, isa.PACIA, isa.EOR, isa.MOV,
		isa.AUTIA, isa.RET,
	}
	if len(got) != len(want) {
		t.Fatalf("sequence length %d, want %d:\n%s", len(got), len(want), img.Prog.Disassemble())
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("op %d = %v, want %v", i, got[i], want[i])
		}
	}
}

func TestPACStackNoMaskEmitsListing2(t *testing.T) {
	p := &ir.Program{Entry: "main", Functions: []*ir.Function{
		{Name: "main", Body: []ir.Op{ir.Call{Target: "leaf"}}},
		{Name: "leaf", Body: []ir.Op{ir.Compute{Units: 1}}},
	}}
	img := MustCompile(p, SchemePACStackNoMask, DefaultLayout())
	got := sequence(t, img, "main")
	want := []isa.Op{
		isa.STRPRE, isa.STP, isa.ADDI, isa.PACIA, isa.MOV,
		isa.BL,
		isa.MOV, isa.LDR, isa.LDRPOST, isa.AUTIA, isa.RET,
	}
	if len(got) != len(want) {
		t.Fatalf("sequence length %d, want %d:\n%s", len(got), len(want), img.Prog.Disassemble())
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("op %d = %v, want %v", i, got[i], want[i])
		}
	}
}

func TestBranchProtectionEmitsListing1(t *testing.T) {
	p := &ir.Program{Entry: "main", Functions: []*ir.Function{
		{Name: "main", Body: []ir.Op{ir.Call{Target: "leaf"}}},
		{Name: "leaf", Body: []ir.Op{ir.Compute{Units: 1}}},
	}}
	img := MustCompile(p, SchemeBranchProtection, DefaultLayout())
	got := sequence(t, img, "main")
	if got[0] != isa.PACIASP {
		t.Errorf("first op = %v, want PACIASP", got[0])
	}
	if got[len(got)-1] != isa.RETAA {
		t.Errorf("last op = %v, want RETAA", got[len(got)-1])
	}
}

func TestLeafFunctionsNotInstrumented(t *testing.T) {
	p := &ir.Program{Entry: "main", Functions: []*ir.Function{
		{Name: "main", Body: []ir.Op{ir.Call{Target: "leaf"}}},
		{Name: "leaf", Body: []ir.Op{ir.Compute{Units: 1}}},
	}}
	for _, s := range Schemes {
		img := MustCompile(p, s, DefaultLayout())
		for _, op := range sequence(t, img, "leaf") {
			switch op {
			case isa.PACIA, isa.PACIASP, isa.RETAA, isa.AUTIA, isa.STP, isa.STRPRE:
				t.Errorf("%v: leaf contains %v", s, op)
			}
		}
	}
}

func TestTailCallLowering(t *testing.T) {
	p := &ir.Program{Entry: "main", Functions: []*ir.Function{
		{Name: "main", Body: []ir.Op{
			ir.Call{Target: "a"},
			ir.Write{Byte: 'm'},
		}},
		{Name: "a", Body: []ir.Op{
			ir.Write{Byte: 'a'},
			ir.TailCall{Target: "b"},
		}},
		{Name: "b", Body: []ir.Op{
			ir.Call{Target: "leaf"},
			ir.Write{Byte: 'b'},
		}},
		{Name: "leaf", Body: []ir.Op{ir.Compute{Units: 1}}},
	}}
	// b must return directly to main through a's tail call, under
	// every scheme (Listing 8 behaviour).
	for _, s := range Schemes {
		proc := runScheme(t, p, s)
		if got := string(proc.Output); got != "abm" {
			t.Errorf("%v: output %q, want \"abm\"", s, got)
		}
	}
}

func TestNestedLoopsAndLocals(t *testing.T) {
	p := &ir.Program{Entry: "main", Functions: []*ir.Function{
		{Name: "main", Locals: 1, Body: []ir.Op{
			ir.Loop{Count: 2, Body: []ir.Op{
				ir.Loop{Count: 3, Body: []ir.Op{
					ir.Call{Target: "tick"},
				}},
			}},
		}},
		{Name: "tick", Body: []ir.Op{ir.Write{Byte: 't'}, ir.Call{Target: "leaf"}}},
		{Name: "leaf", Body: []ir.Op{ir.Compute{Units: 1}}},
	}}
	for _, s := range []Scheme{SchemeNone, SchemePACStack} {
		proc := runScheme(t, p, s)
		if got := strings.Count(string(proc.Output), "t"); got != 6 {
			t.Errorf("%v: %d ticks, want 6", s, got)
		}
	}
}

func TestSetjmpLongjmpAcrossSchemes(t *testing.T) {
	// main: setjmp; if returned via longjmp write 'R'; else call f
	// which longjmps back.
	p := &ir.Program{Entry: "main", Functions: []*ir.Function{
		{Name: "main", Body: []ir.Op{
			ir.SetJmp{Buf: 0},
			ir.IfNZ{Then: []ir.Op{
				ir.Write{Byte: 'R'},
				ir.Exit{Code: 7},
			}},
			ir.Write{Byte: 'S'},
			ir.Call{Target: "f"},
			ir.Write{Byte: 'X'}, // must be skipped by the longjmp
		}},
		{Name: "f", Body: []ir.Op{
			ir.Write{Byte: 'f'},
			ir.LongJmp{Buf: 0, Value: 1},
			ir.Write{Byte: 'Y'}, // unreachable
		}},
		{Name: "leaf", Body: []ir.Op{ir.Compute{Units: 1}}},
	}}
	for _, s := range Schemes {
		proc := runScheme(t, p, s)
		if got := string(proc.Output); got != "SfR" {
			t.Errorf("%v: output %q, want \"SfR\"", s, got)
		}
		if proc.ExitCode != 7 {
			t.Errorf("%v: exit %d, want 7", s, proc.ExitCode)
		}
	}
}

// pokeOnEntry arranges for fn() to run once when execution first
// reaches the given symbol.
func pokeOnEntry(proc *kernel.Process, addr uint64, fn func(m interface{ Reg(isa.Reg) uint64 })) {
	fired := false
	m := proc.Tasks[0].M
	m.Trace = func(pc uint64, ins isa.Instr) {
		if pc == addr && !fired {
			fired = true
			fn(m)
		}
	}
}

func TestPACStackDetectsChainSlotCorruption(t *testing.T) {
	// The adversary overwrites the spilled aret_{i-1} in main's
	// frame while a callee runs; main's epilogue must then poison LR
	// and the return faults.
	p := &ir.Program{Entry: "main", Functions: []*ir.Function{
		{Name: "main", Body: []ir.Op{ir.Call{Target: "f"}}},
		{Name: "f", Body: []ir.Op{ir.Call{Target: "leaf"}}},
		{Name: "leaf", Body: []ir.Op{ir.Compute{Units: 1}}},
	}}
	for _, s := range []Scheme{SchemePACStack, SchemePACStackNoMask} {
		img := MustCompile(p, s, DefaultLayout())
		proc := img.MustBoot(testKernel())
		adv := mem.NewAdversary(proc.Mem)
		// When f is entered, f's frame holds main's aret at [SP];
		// corrupt it.
		pokeOnEntry(proc, img.FuncEntries["f"]+5*isa.InstrSize, func(m interface{ Reg(isa.Reg) uint64 }) {
			if err := adv.Poke(m.Reg(isa.SP), 0x1234_5678); err != nil {
				t.Fatal(err)
			}
		})
		err := proc.Run(100_000)
		if err == nil {
			t.Errorf("%v: chain-slot corruption went undetected", s)
		}
	}
}

func TestPACStackIgnoresFrameRecordReturnAddress(t *testing.T) {
	// Section 5 / R3: the unmodified frame record is stored for
	// compatibility but never trusted. Corrupting it must have no
	// effect under PACStack — while the baseline is hijacked by the
	// same write.
	p := &ir.Program{Entry: "main", Functions: []*ir.Function{
		{Name: "main", Body: []ir.Op{ir.Call{Target: "f"}, ir.Write{Byte: 'k'}}},
		{Name: "f", Body: []ir.Op{ir.Call{Target: "leaf"}}},
		{Name: "leaf", Body: []ir.Op{ir.Compute{Units: 1}}},
	}}
	img := MustCompile(p, SchemePACStack, DefaultLayout())
	proc := img.MustBoot(testKernel())
	adv := mem.NewAdversary(proc.Mem)
	pokeOnEntry(proc, img.FuncEntries["f"]+5*isa.InstrSize, func(m interface{ Reg(isa.Reg) uint64 }) {
		// f's frame record return-address slot is at [SP, #24].
		if err := adv.Poke(m.Reg(isa.SP)+24, 0xBAD); err != nil {
			t.Fatal(err)
		}
	})
	if err := proc.Run(100_000); err != nil {
		t.Fatalf("PACStack used the frame-record return address: %v", err)
	}
	if string(proc.Output) != "k" {
		t.Errorf("output %q", proc.Output)
	}
}

func TestBaselineHijackedByReturnAddressOverwrite(t *testing.T) {
	// Control: without protection, overwriting the spilled LR
	// redirects the return.
	p := &ir.Program{Entry: "main", Functions: []*ir.Function{
		{Name: "main", Body: []ir.Op{ir.Call{Target: "f"}, ir.Write{Byte: 'k'}}},
		{Name: "f", Body: []ir.Op{ir.Call{Target: "leaf"}}},
		{Name: "gadget", Body: []ir.Op{ir.Write{Byte: 'G'}, ir.Exit{Code: 42}}},
		{Name: "leaf", Body: []ir.Op{ir.Compute{Units: 1}}},
	}}
	img := MustCompile(p, SchemeNone, DefaultLayout())
	proc := img.MustBoot(testKernel())
	adv := mem.NewAdversary(proc.Mem)
	// Baseline f prologue: stp FP, LR, [SP, #-16]! => return address
	// at [SP, #8] once the two prologue instructions ran.
	pokeOnEntry(proc, img.FuncEntries["f"]+2*isa.InstrSize, func(m interface{ Reg(isa.Reg) uint64 }) {
		if err := adv.Poke(m.Reg(isa.SP)+8, img.FuncEntries["gadget"]); err != nil {
			t.Fatal(err)
		}
	})
	if err := proc.Run(100_000); err != nil {
		t.Fatalf("baseline run: %v", err)
	}
	if !strings.Contains(string(proc.Output), "G") {
		t.Errorf("hijack failed; output %q", proc.Output)
	}
}

func TestCanaryDetectsOverflowStyleCorruption(t *testing.T) {
	p := &ir.Program{Entry: "main", Functions: []*ir.Function{
		{Name: "main", Body: []ir.Op{
			ir.Call{Target: "victim"},
			ir.Write{Byte: 'k'},
		}},
		{Name: "victim", Locals: 1, Body: []ir.Op{
			ir.StoreLocal{Slot: 0, Value: 5},
			ir.Call{Target: "leaf"},
		}},
		{Name: "leaf", Body: []ir.Op{ir.Compute{Units: 1}}},
	}}
	img := MustCompile(p, SchemeCanary, DefaultLayout())
	proc := img.MustBoot(testKernel())
	adv := mem.NewAdversary(proc.Mem)
	// While leaf runs, victim's canary sits at [SP + 8] (slot above
	// the one user local; leaf has no frame).
	pokeOnEntry(proc, img.FuncEntries["leaf"], func(m interface{ Reg(isa.Reg) uint64 }) {
		if err := adv.Poke(m.Reg(isa.SP)+8, 0xDEAD_BEEF); err != nil {
			t.Fatal(err)
		}
	})
	if err := proc.Run(100_000); err != nil {
		t.Fatal(err)
	}
	if proc.ExitCode != 134 {
		t.Errorf("exit code %d, want 134 (__stack_chk_fail)", proc.ExitCode)
	}
	if strings.Contains(string(proc.Output), "k") {
		t.Error("function returned normally despite canary corruption")
	}
}

func TestCFIBlocksIndirectCallToNonEntry(t *testing.T) {
	p := &ir.Program{Entry: "main", Functions: []*ir.Function{
		{Name: "main", Body: []ir.Op{ir.CallPtr{Target: "f"}}},
		{Name: "f", Body: []ir.Op{ir.Call{Target: "leaf"}}},
		{Name: "leaf", Body: []ir.Op{ir.Compute{Units: 1}}},
	}}
	img := MustCompile(p, SchemeNone, DefaultLayout())
	proc := img.MustBoot(testKernel())
	// Redirect the indirect call into the middle of f by rewriting
	// X12 just before the BLR retires.
	m := proc.Tasks[0].M
	m.Trace = func(pc uint64, ins isa.Instr) {
		if ins.Op == isa.BLR {
			m.SetReg(isa.X12, img.FuncEntries["f"]+8)
		}
	}
	err := proc.Run(100_000)
	var viol *cpu.CFIViolation
	if !errors.As(err, &viol) || viol.Edge != "call" {
		t.Errorf("err = %v, want call-edge CFI violation", err)
	}
}

func TestCompileRejectsBadPrograms(t *testing.T) {
	bad := []*ir.Program{
		{Entry: "missing"},
		{Entry: "f", Functions: []*ir.Function{
			{Name: "f", Body: []ir.Op{ir.Call{Target: "nope"}}},
		}},
		{Entry: "f", Functions: []*ir.Function{
			{Name: "f", Body: []ir.Op{ir.TailCall{Target: "f"}, ir.Write{Byte: 'x'}}},
		}},
		{Entry: "__evil", Functions: []*ir.Function{
			{Name: "__evil", Body: nil},
		}},
		{Entry: "f", Functions: []*ir.Function{
			{Name: "f", Locals: 1, Body: []ir.Op{ir.StoreLocal{Slot: 5}}},
		}},
		{Entry: "f", Functions: []*ir.Function{
			{Name: "f", Body: []ir.Op{ir.SetJmp{Buf: 99}}},
		}},
	}
	for i, p := range bad {
		if _, err := Compile(p, SchemeNone, DefaultLayout()); err == nil {
			t.Errorf("program %d compiled, want error", i)
		}
	}
}

func TestSchemeString(t *testing.T) {
	names := map[Scheme]string{
		SchemeNone:             "baseline",
		SchemeCanary:           "-mstack-protector-strong",
		SchemeBranchProtection: "-mbranch-protection",
		SchemeShadowStack:      "ShadowCallStack",
		SchemePACStackNoMask:   "PACStack-nomask",
		SchemePACStack:         "PACStack",
	}
	for s, want := range names {
		if s.String() != want {
			t.Errorf("%d.String() = %q", s, s.String())
		}
	}
}

func TestShadowStackReloadsFromShadowRegion(t *testing.T) {
	// Corrupting the main-stack frame record must not divert a
	// ShadowCallStack-protected return.
	p := &ir.Program{Entry: "main", Functions: []*ir.Function{
		{Name: "main", Body: []ir.Op{ir.Call{Target: "f"}, ir.Write{Byte: 'k'}}},
		{Name: "f", Body: []ir.Op{ir.Call{Target: "leaf"}}},
		{Name: "leaf", Body: []ir.Op{ir.Compute{Units: 1}}},
	}}
	img := MustCompile(p, SchemeShadowStack, DefaultLayout())
	proc := img.MustBoot(testKernel())
	adv := mem.NewAdversary(proc.Mem)
	pokeOnEntry(proc, img.FuncEntries["leaf"], func(m interface{ Reg(isa.Reg) uint64 }) {
		// f's frame record LR is at [SP, #8] while leaf runs.
		if err := adv.Poke(m.Reg(isa.SP)+8, 0xBAD); err != nil {
			t.Fatal(err)
		}
	})
	if err := proc.Run(100_000); err != nil {
		t.Fatalf("shadow stack used the corrupted main-stack value: %v", err)
	}
	if string(proc.Output) != "k" {
		t.Errorf("output %q", proc.Output)
	}
}

func TestShadowStackVulnerableWhenLocationKnown(t *testing.T) {
	// The paper's point about software shadow stacks (Section 1):
	// with full memory disclosure the shadow region itself can be
	// rewritten. Our adversary knows the layout, so the same hijack
	// succeeds against the shadow copy.
	p := &ir.Program{Entry: "main", Functions: []*ir.Function{
		{Name: "main", Body: []ir.Op{ir.Call{Target: "f"}, ir.Write{Byte: 'k'}}},
		{Name: "f", Body: []ir.Op{ir.Call{Target: "leaf"}}},
		{Name: "gadget", Body: []ir.Op{ir.Write{Byte: 'G'}, ir.Exit{Code: 42}}},
		{Name: "leaf", Body: []ir.Op{ir.Compute{Units: 1}}},
	}}
	img := MustCompile(p, SchemeShadowStack, DefaultLayout())
	proc := img.MustBoot(testKernel())
	adv := mem.NewAdversary(proc.Mem)
	pokeOnEntry(proc, img.FuncEntries["leaf"], func(m interface{ Reg(isa.Reg) uint64 }) {
		// The shadow stack holds main's and f's return addresses; f's
		// is the most recent push, at ShadowBase + 8.
		if err := adv.Poke(img.Layout.ShadowBase+8, img.FuncEntries["gadget"]); err != nil {
			t.Fatal(err)
		}
	})
	if err := proc.Run(100_000); err != nil {
		t.Fatalf("run: %v", err)
	}
	if !strings.Contains(string(proc.Output), "G") {
		t.Errorf("shadow-stack hijack failed; output %q", proc.Output)
	}
}

func validateProgram() *ir.Program {
	return &ir.Program{Entry: "main", Functions: []*ir.Function{
		{Name: "main", Body: []ir.Op{ir.Call{Target: "f"}, ir.Write{Byte: 'k'}}},
		{Name: "f", Body: []ir.Op{ir.Call{Target: "g"}}},
		{Name: "g", Body: []ir.Op{
			ir.Call{Target: "leaf"},
			ir.ValidateFrames{Max: 3},
		}},
		{Name: "leaf", Body: []ir.Op{ir.Compute{Units: 1}}},
	}}
}

func TestAcsValidateWalksCleanChain(t *testing.T) {
	// Section 9.1: the frame-by-frame validator confirms the whole
	// chain g -> f -> main on an untampered stack.
	for _, s := range []Scheme{SchemePACStack, SchemePACStackNoMask} {
		proc := runScheme(t, validateProgram(), s)
		if got := string(proc.Output); got != "3k" {
			t.Errorf("%v: output %q, want \"3k\"", s, got)
		}
	}
	// Under unprotected schemes the validator is a stub returning 0.
	proc := runScheme(t, validateProgram(), SchemeNone)
	if got := string(proc.Output); got != "0k" {
		t.Errorf("baseline: output %q, want \"0k\"", got)
	}
}

func TestAcsValidateDetectsCorruptDepth(t *testing.T) {
	// Corrupting f's spilled chain value must stop the walk after
	// exactly one valid frame (g's own link), before any control
	// transfer happens.
	img := MustCompile(validateProgram(), SchemePACStack, DefaultLayout())
	proc := img.MustBoot(testKernel())
	adv := mem.NewAdversary(proc.Mem)
	pokeOnEntry(proc, img.FuncEntries["g"]+9*isa.InstrSize, func(m interface{ Reg(isa.Reg) uint64 }) {
		// At this point g's prologue ran; f's frame (and its spilled
		// slot holding main's aret) sits just above g's 32-byte frame.
		if err := adv.Poke(m.Reg(isa.SP)+32, 0xBADBAD); err != nil {
			t.Fatal(err)
		}
	})
	err := proc.Run(100_000)
	if err == nil {
		t.Fatal("f's eventual return should fault on the corrupt chain")
	}
	if got := string(proc.Output); got != "1" {
		t.Errorf("validator output %q, want \"1\" (stop after g's link)", got)
	}
}

func TestBootLoadsRealCodeBytes(t *testing.T) {
	// The text segment in simulated memory must decode back to the
	// program the CPU executes — code is real data in the address
	// space, sealed execute-only by the loader.
	img := MustCompile(demoProgram(), SchemePACStack, DefaultLayout())
	proc := img.MustBoot(testKernel())
	raw, err := proc.Mem.ReadBytes(img.Layout.CodeBase, img.Prog.Size())
	if err != nil {
		t.Fatal(err)
	}
	back, err := isa.DecodeProgram(img.Layout.CodeBase, raw)
	if err != nil {
		t.Fatal(err)
	}
	if !isa.SameCode(img.Prog, back) {
		t.Error("memory image does not decode to the executing program")
	}
	// And W(+)X still holds: the adversary cannot patch the bytes.
	adv := mem.NewAdversary(proc.Mem)
	if err := adv.Poke(img.Layout.CodeBase, 0); err == nil {
		t.Error("adversary modified sealed code")
	}
	// The process still runs from the sealed pages.
	if err := proc.Run(10_000_000); err != nil {
		t.Fatal(err)
	}
}

// TestTextEncodedOnce pins the image's cached text: the bytes and CRC
// Text returns are isa.EncodeProgram's and CRC-64/ECMA's, every call
// and every boot share one encoding, and a second boot loads the same
// bytes.
func TestTextEncodedOnce(t *testing.T) {
	img := MustCompile(demoProgram(), SchemePACStack, DefaultLayout())
	text, crc, err := img.Text()
	if err != nil {
		t.Fatal(err)
	}
	want, err := isa.EncodeProgram(img.Prog)
	if err != nil {
		t.Fatal(err)
	}
	if string(text) != string(want) {
		t.Fatal("Text differs from isa.EncodeProgram")
	}
	if got := crc64.Checksum(want, crc64.MakeTable(crc64.ECMA)); crc != got {
		t.Errorf("Text CRC %#x, CRC-64/ECMA of the encoding %#x", crc, got)
	}
	again, _, _ := img.Text()
	if &again[0] != &text[0] {
		t.Error("a second Text call encoded the program again")
	}
	for i := 0; i < 2; i++ {
		raw, err := img.MustBoot(testKernel()).Mem.ReadBytes(img.Layout.CodeBase, img.Prog.Size())
		if err != nil || string(raw) != string(want) {
			t.Fatalf("boot %d loaded other text (err %v)", i, err)
		}
	}
}
