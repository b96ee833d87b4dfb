package kernel

import (
	"bytes"
	"context"
	"errors"
	"testing"

	"pacstack/internal/cpu"
	"pacstack/internal/isa"
	"pacstack/internal/mem"
	"pacstack/internal/pa"
	"pacstack/internal/telemetry"
)

const (
	codeBase  = 0x10000
	stackBase = 0x100000
	stackSize = 0x4000
)

func boot(t *testing.T, src string) *Process {
	t.Helper()
	prog, err := isa.Assemble(codeBase, src)
	if err != nil {
		t.Fatal(err)
	}
	m := mem.New()
	codeLen := (prog.Size()/mem.PageSize + 1) * mem.PageSize
	if err := m.Map(codeBase, codeLen, mem.PermRX); err != nil {
		t.Fatal(err)
	}
	if err := m.Map(stackBase, stackSize, mem.PermRW); err != nil {
		t.Fatal(err)
	}
	k := New(pa.DefaultConfig())
	return k.NewProcess(prog, m, codeBase, stackBase+stackSize)
}

func TestExitSyscall(t *testing.T) {
	p := boot(t, `
    movz X0, #42
    svc #0
`)
	if err := p.Run(1000); err != nil {
		t.Fatal(err)
	}
	if !p.Exited || p.ExitCode != 42 {
		t.Errorf("exited=%v code=%d", p.Exited, p.ExitCode)
	}
	if p.Alive() {
		t.Error("exited process reports alive")
	}
}

func TestWriteOutput(t *testing.T) {
	p := boot(t, `
    movz X0, #72
    svc #1
    movz X0, #105
    svc #1
    movz X0, #0
    svc #0
`)
	if err := p.Run(1000); err != nil {
		t.Fatal(err)
	}
	if string(p.Output) != "Hi" {
		t.Errorf("output = %q", p.Output)
	}
}

func TestGetPIDAndTID(t *testing.T) {
	p := boot(t, `
    svc #2
    mov X19, X0
    svc #8
    mov X20, X0
    movz X0, #0
    svc #0
`)
	if err := p.Run(1000); err != nil {
		t.Fatal(err)
	}
	m := p.Tasks[0].M
	if m.Reg(isa.X19) != 1 || m.Reg(isa.X20) != 0 {
		t.Errorf("pid=%d tid=%d", m.Reg(isa.X19), m.Reg(isa.X20))
	}
}

func TestSpawnSchedulesBothTasks(t *testing.T) {
	// The main task spawns a second task; each writes a distinct
	// byte repeatedly. Both must make progress.
	p := boot(t, `
main:
    movz X0, =thread
    movz X1, #0x102000
    svc #5
    movz X21, #100
mainloop:
    movz X0, #77      ; 'M'
    svc #1
    sub X21, X21, #1
    cbnz X21, mainloop
    svc #6
thread:
    movz X22, #100
tloop:
    movz X0, #84      ; 'T'
    svc #1
    sub X22, X22, #1
    cbnz X22, tloop
    svc #6
`)
	if err := p.Run(1_000_000); err != nil {
		t.Fatal(err)
	}
	ms := bytes.Count(p.Output, []byte{'M'})
	ts := bytes.Count(p.Output, []byte{'T'})
	if ms != 100 || ts != 100 {
		t.Fatalf("M=%d T=%d", ms, ts)
	}
	// Interleaving: the scheduler must not run one task to completion
	// before the other starts.
	firstT := bytes.IndexByte(p.Output, 'T')
	lastM := bytes.LastIndexByte(p.Output, 'M')
	if firstT < 0 || firstT > lastM {
		t.Error("tasks did not interleave")
	}
}

func TestContextSwitchPreservesRegisters(t *testing.T) {
	// Two tasks each build a register-resident value over many
	// quanta; preemption must never leak one task's registers into
	// the other. X28 (CR) is used deliberately.
	p := boot(t, `
main:
    movz X0, =thread
    movz X1, #0x102000
    svc #5
    movz X28, #1
    movz X21, #200
mloop:
    add X28, X28, #2
    sub X21, X21, #1
    cbnz X21, mloop
    mov X19, X28
    svc #6
thread:
    movz X28, #1000
    movz X22, #200
tloop:
    add X28, X28, #3
    sub X22, X22, #1
    cbnz X22, tloop
    svc #6
`)
	if err := p.Run(1_000_000); err != nil {
		t.Fatal(err)
	}
	if got := p.Tasks[0].M.Reg(isa.X19); got != 1+2*200 {
		t.Errorf("main CR = %d, want %d", got, 1+2*200)
	}
	if got := p.Tasks[1].M.Reg(isa.X28); got != 1000+3*200 {
		t.Errorf("thread CR = %d, want %d", got, 1000+3*200)
	}
}

func TestForkSharesPAKeys(t *testing.T) {
	p := boot(t, `
    movz X0, #0
    svc #0
`)
	child := p.Fork(p.Tasks[0])
	// A pointer signed in the parent must authenticate in the child:
	// fork does not change PA keys (Section 4.3).
	signed := p.Auth.AddPAC(pa.KeyIA, 0x41000, 7)
	if got, ok := child.Auth.Auth(pa.KeyIA, signed, 7); !ok || got != 0x41000 {
		t.Error("child could not authenticate parent-signed pointer")
	}
	if child.PID == p.PID {
		t.Error("child has parent PID")
	}
}

func TestForkCopiesMemory(t *testing.T) {
	p := boot(t, `
    movz X0, #0
    svc #0
`)
	if err := p.Mem.Write64(stackBase, 111); err != nil {
		t.Fatal(err)
	}
	child := p.Fork(p.Tasks[0])
	if err := child.Mem.Write64(stackBase, 222); err != nil {
		t.Fatal(err)
	}
	pv, _ := p.Mem.Read64(stackBase)
	cv, _ := child.Mem.Read64(stackBase)
	if pv != 111 || cv != 222 {
		t.Errorf("parent=%d child=%d; address spaces not independent", pv, cv)
	}
}

func TestForkSyscallReturnValues(t *testing.T) {
	p := boot(t, `
    svc #7
    mov X19, X0
    movz X0, #0
    svc #0
`)
	if err := p.Run(1000); err != nil {
		t.Fatal(err)
	}
	if got := p.Tasks[0].M.Reg(isa.X19); got != 2 {
		t.Errorf("parent fork() = %d, want child PID 2", got)
	}
	kids := p.Children()
	if len(kids) != 1 {
		t.Fatalf("children = %d", len(kids))
	}
	child := kids[0]
	if err := child.Run(1000); err != nil {
		t.Fatal(err)
	}
	if got := child.Tasks[0].M.Reg(isa.X19); got != 0 {
		t.Errorf("child fork() = %d, want 0", got)
	}
}

const signalProgram = `
main:
    movz X9, #1
loop:
    cbnz X9, loop
    movz X0, #0
    svc #0
handler:
    movz X0, #65      ; 'A'
    svc #1
    ret               ; to the trampoline
tramp:
    svc #4            ; sigreturn
victim:
    movz X0, #66      ; 'B'
    svc #1
    movz X0, #99
    svc #0
`

func deliverAfter(t *testing.T, p *Process, steps uint64) {
	t.Helper()
	if err := p.Run(steps); !errors.Is(err, cpu.ErrStepLimit) {
		t.Fatalf("expected spin, got %v", err)
	}
	h := p.Prog.MustLookup("handler")
	tr := p.Prog.MustLookup("tramp")
	if err := p.DeliverSignal(p.Tasks[0], 11, h, tr); err != nil {
		t.Fatal(err)
	}
}

func TestSignalDeliveryAndReturn(t *testing.T) {
	for _, hardened := range []bool{false, true} {
		p := boot(t, signalProgram)
		p.HardenedSigreturn = hardened
		task := p.Tasks[0]
		spBefore := task.M.Regs()[isa.SP]
		deliverAfter(t, p, 100)

		// Let the handler run and sigreturn.
		if err := p.Run(100); !errors.Is(err, cpu.ErrStepLimit) {
			t.Fatalf("hardened=%v: %v", hardened, err)
		}
		if string(p.Output) != "A" {
			t.Errorf("hardened=%v: output %q", hardened, p.Output)
		}
		// Back in the spin loop with the original SP.
		if got := task.M.Reg(isa.SP); got != spBefore {
			t.Errorf("hardened=%v: SP = %#x, want %#x", hardened, got, spBefore)
		}
		sym, _ := p.Prog.SymbolFor(task.M.PC)
		if sym != "loop" && sym != "main" {
			t.Errorf("hardened=%v: resumed at %q", hardened, sym)
		}
	}
}

// forgeSavedPC corrupts the saved PC in the live signal frame, then
// lets the handler return through sigreturn.
func forgeSavedPC(t *testing.T, p *Process) error {
	t.Helper()
	adv := mem.NewAdversary(p.Mem)
	frame := p.Tasks[0].M.Reg(isa.SP) // SP == frame base inside handler
	if err := adv.Poke(frame, p.Prog.MustLookup("victim")); err != nil {
		t.Fatal(err)
	}
	return p.Run(10_000)
}

func TestSigreturnAttackSucceedsWithoutHardening(t *testing.T) {
	p := boot(t, signalProgram)
	deliverAfter(t, p, 100)
	if err := forgeSavedPC(t, p); err != nil {
		t.Fatalf("attack run: %v", err)
	}
	// Control flow was redirected to victim: 'B' written, exit 99.
	if string(p.Output) != "AB" || p.ExitCode != 99 {
		t.Errorf("output=%q exit=%d; SROP should succeed on the unhardened kernel",
			p.Output, p.ExitCode)
	}
}

func TestSigreturnAttackBlockedByHardening(t *testing.T) {
	p := boot(t, signalProgram)
	p.HardenedSigreturn = true
	deliverAfter(t, p, 100)
	err := forgeSavedPC(t, p)
	if !errors.Is(err, ErrProcessKilled) {
		t.Fatalf("err = %v, want ErrProcessKilled", err)
	}
	if bytes.Contains(p.Output, []byte{'B'}) {
		t.Error("victim code ran despite hardening")
	}
}

func TestSigreturnCRForgeryBlocked(t *testing.T) {
	p := boot(t, signalProgram)
	p.HardenedSigreturn = true
	deliverAfter(t, p, 100)
	adv := mem.NewAdversary(p.Mem)
	frame := p.Tasks[0].M.Reg(isa.SP)
	// Overwrite the saved CR (X28) in the frame.
	if err := adv.Poke(frame+24+8*uint64(isa.CR), 0xDEAD); err != nil {
		t.Fatal(err)
	}
	if err := p.Run(10_000); !errors.Is(err, ErrProcessKilled) {
		t.Fatalf("err = %v, want ErrProcessKilled", err)
	}
}

func TestSigreturnWithoutSignalKilled(t *testing.T) {
	p := boot(t, `
    sub SP, SP, #512
    svc #4
    movz X0, #0
    svc #0
`)
	p.HardenedSigreturn = true
	if err := p.Run(1000); !errors.Is(err, ErrProcessKilled) {
		t.Fatalf("err = %v, want ErrProcessKilled", err)
	}
}

func TestNestedSignals(t *testing.T) {
	p := boot(t, signalProgram)
	p.HardenedSigreturn = true
	deliverAfter(t, p, 100)
	// Deliver a second signal while the first handler is running.
	h := p.Prog.MustLookup("handler")
	tr := p.Prog.MustLookup("tramp")
	if err := p.DeliverSignal(p.Tasks[0], 12, h, tr); err != nil {
		t.Fatal(err)
	}
	if err := p.Run(200); !errors.Is(err, cpu.ErrStepLimit) {
		t.Fatalf("nested return failed: %v", err)
	}
	if string(p.Output) != "AA" {
		t.Errorf("output = %q, want AA", p.Output)
	}
	sym, _ := p.Prog.SymbolFor(p.Tasks[0].M.PC)
	if sym != "loop" && sym != "main" {
		t.Errorf("resumed at %q", sym)
	}
	if len(p.Tasks[0].sigRefs) != 0 {
		t.Errorf("sigRefs not drained: %d", len(p.Tasks[0].sigRefs))
	}
}

func TestUnknownSyscall(t *testing.T) {
	p := boot(t, `svc #999`)
	if err := p.Run(10); err == nil {
		t.Error("unknown syscall succeeded")
	}
}

func TestRunStepBudget(t *testing.T) {
	p := boot(t, `
spin:
    b spin
`)
	if err := p.Run(500); !errors.Is(err, cpu.ErrStepLimit) {
		t.Errorf("err = %v", err)
	}
}

func TestRunCtxCancellation(t *testing.T) {
	p := boot(t, `
spin:
    b spin
`)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	err := p.RunCtx(ctx, 1<<30)
	if !errors.Is(err, ErrCancelled) || !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want ErrCancelled wrapping context.Canceled", err)
	}
	// Cancellation is the caller's deadline, not a machine fault: the
	// process is abandoned alive, with no post-mortem filed.
	if !p.Alive() {
		t.Error("cancelled process marked dead")
	}
	if p.Kill != nil {
		t.Errorf("cancellation filed a post-mortem: %v", p.Kill)
	}
	// A background context changes nothing: the budget still rules.
	if err := p.RunCtx(context.Background(), 500); !errors.Is(err, cpu.ErrStepLimit) {
		t.Errorf("err = %v, want step limit", err)
	}
}

func TestFaultKillsProcess(t *testing.T) {
	p := boot(t, `
    movz X0, #0
    ldr X1, [X0, #0]
`)
	if err := p.Run(100); err == nil {
		t.Error("faulting process ran to completion")
	}
	if p.Alive() {
		t.Error("faulted process still alive")
	}
}

func TestExecRegeneratesKeys(t *testing.T) {
	p := boot(t, `
    movz X0, #0
    svc #0
`)
	signed := p.Auth.AddPAC(pa.KeyIA, 0x41000, 7)
	if _, ok := p.Auth.Auth(pa.KeyIA, signed, 7); !ok {
		t.Fatal("pre-exec auth failed")
	}

	prog2, err := isa.Assemble(codeBase, "movz X0, #9\nsvc #0")
	if err != nil {
		t.Fatal(err)
	}
	m2 := mem.New()
	if err := m2.Map(codeBase, mem.PageSize, mem.PermRX); err != nil {
		t.Fatal(err)
	}
	if err := m2.Map(stackBase, stackSize, mem.PermRW); err != nil {
		t.Fatal(err)
	}
	p.Exec(prog2, m2, codeBase, stackBase+stackSize)

	// Pointers signed before the exec are dead (Section 4.3: keys are
	// per exec).
	if _, ok := p.Auth.Auth(pa.KeyIA, signed, 7); ok {
		t.Error("pre-exec signature survived exec")
	}
	if err := p.Run(1000); err != nil {
		t.Fatal(err)
	}
	if p.ExitCode != 9 {
		t.Errorf("exit = %d, want 9 from the new image", p.ExitCode)
	}
}

func TestExecResetsTasksAndOutput(t *testing.T) {
	p := boot(t, `
    movz X0, #65
    svc #1
    movz X0, #0
    svc #0
`)
	if err := p.Run(1000); err != nil {
		t.Fatal(err)
	}
	if string(p.Output) != "A" {
		t.Fatalf("output %q", p.Output)
	}
	prog2, err := isa.Assemble(codeBase, "movz X0, #66\nsvc #1\nmovz X0, #0\nsvc #0")
	if err != nil {
		t.Fatal(err)
	}
	m2 := mem.New()
	if err := m2.Map(codeBase, mem.PageSize, mem.PermRX); err != nil {
		t.Fatal(err)
	}
	if err := m2.Map(stackBase, stackSize, mem.PermRW); err != nil {
		t.Fatal(err)
	}
	p.Exec(prog2, m2, codeBase, stackBase+stackSize)
	if len(p.Tasks) != 1 || p.Exited {
		t.Fatal("exec did not reset task state")
	}
	if err := p.Run(1000); err != nil {
		t.Fatal(err)
	}
	if string(p.Output) != "B" {
		t.Errorf("post-exec output %q", p.Output)
	}
}

func TestSignalToSecondTask(t *testing.T) {
	// Deliver a signal to a spawned task while the main task runs;
	// only the target task's control flow detours.
	p := boot(t, `
main:
    movz X0, =thread
    movz X1, #0x102000
    svc #5
    movz X21, #50
mloop:
    sub X21, X21, #1
    cbnz X21, mloop
    svc #6
thread:
    movz X9, #1
tspin:
    cbnz X9, tspin
    svc #6
handler:
    movz X0, #83      ; 'S'
    svc #1
    ret
tramp:
    svc #4
`)
	p.HardenedSigreturn = true
	if err := p.Run(400); !errors.Is(err, cpu.ErrStepLimit) {
		t.Fatalf("warmup: %v", err)
	}
	target := p.Task(1)
	if target == nil {
		t.Fatal("spawned task missing")
	}
	if err := p.DeliverSignal(target, 10, p.Prog.MustLookup("handler"), p.Prog.MustLookup("tramp")); err != nil {
		t.Fatal(err)
	}
	if err := p.Run(5000); !errors.Is(err, cpu.ErrStepLimit) && err != nil {
		t.Fatal(err)
	}
	if string(p.Output) != "S" {
		t.Errorf("output %q", p.Output)
	}
	// The main task was not diverted: it keeps counting down in its
	// own loop.
	sym, _ := p.Prog.SymbolFor(p.Tasks[0].M.PC)
	if sym == "handler" || sym == "tramp" {
		t.Errorf("main task diverted to %q", sym)
	}
}

func TestForkChain(t *testing.T) {
	// fork of a fork: keys stay shared down the whole chain, PIDs
	// stay unique, memories stay independent.
	p := boot(t, `
    movz X0, #0
    svc #0
`)
	child := p.Fork(p.Tasks[0])
	grand := child.Fork(child.Tasks[0])
	signed := p.Auth.AddPAC(pa.KeyIB, 0x42000, 3)
	if _, ok := grand.Auth.Auth(pa.KeyIB, signed, 3); !ok {
		t.Error("grandchild lost the key lineage")
	}
	pids := map[int]bool{p.PID: true, child.PID: true, grand.PID: true}
	if len(pids) != 3 {
		t.Errorf("duplicate PIDs: %d %d %d", p.PID, child.PID, grand.PID)
	}
	if err := grand.Mem.Write64(stackBase, 7); err != nil {
		t.Fatal(err)
	}
	v, _ := child.Mem.Read64(stackBase)
	if v == 7 {
		t.Error("grandchild write visible in child")
	}
}

func TestRunBudgetSharedAcrossTasks(t *testing.T) {
	p := boot(t, `
main:
    movz X0, =spin
    movz X1, #0x102000
    svc #5
loop:
    b loop
spin:
    b spin
`)
	if err := p.Run(1000); !errors.Is(err, cpu.ErrStepLimit) {
		t.Fatalf("err = %v", err)
	}
	total := p.Tasks[0].M.Instrs + p.Tasks[1].M.Instrs
	if total < 1000 || total > 1000+2*Quantum {
		t.Errorf("executed %d instructions against a budget of 1000", total)
	}
	// Both tasks made progress.
	if p.Tasks[1].M.Instrs == 0 {
		t.Error("second task starved")
	}
}

func TestFullFrameSigreturnDetectsAnyRegisterForgery(t *testing.T) {
	// Appendix B's closing suggestion: fold every saved register into
	// the asigret chain. Forging an arbitrary register — not just PC
	// or CR — must kill the process.
	for _, reg := range []isa.Reg{isa.X0, isa.X5, isa.X19, isa.SP} {
		p := boot(t, signalProgram)
		p.FullFrameSigreturn = true
		deliverAfter(t, p, 100)
		adv := mem.NewAdversary(p.Mem)
		frame := p.Tasks[0].M.Reg(isa.SP)
		if err := adv.Poke(frame+24+8*uint64(reg), 0xFEED); err != nil {
			t.Fatal(err)
		}
		if err := p.Run(10_000); !errors.Is(err, ErrProcessKilled) {
			t.Errorf("forged %v: err = %v, want ErrProcessKilled", reg, err)
		}
	}
	// And forging the saved flags word is detected too.
	p := boot(t, signalProgram)
	p.FullFrameSigreturn = true
	deliverAfter(t, p, 100)
	adv := mem.NewAdversary(p.Mem)
	frame := p.Tasks[0].M.Reg(isa.SP)
	if err := adv.Poke(frame+8, 0xF); err != nil {
		t.Fatal(err)
	}
	if err := p.Run(10_000); !errors.Is(err, ErrProcessKilled) {
		t.Errorf("forged flags: err = %v", err)
	}
}

func TestFullFrameSigreturnAcceptsHonestFrames(t *testing.T) {
	p := boot(t, signalProgram)
	p.FullFrameSigreturn = true
	deliverAfter(t, p, 100)
	if err := p.Run(200); !errors.Is(err, cpu.ErrStepLimit) {
		t.Fatalf("honest signal round trip failed: %v", err)
	}
	if string(p.Output) != "A" {
		t.Errorf("output %q", p.Output)
	}
}

func TestBaseHardeningMissesNonCRRegisterForgery(t *testing.T) {
	// The contrast that motivates the full-frame mode: the PC+CR
	// chain alone does not cover, say, X5.
	p := boot(t, signalProgram)
	p.HardenedSigreturn = true
	deliverAfter(t, p, 100)
	adv := mem.NewAdversary(p.Mem)
	frame := p.Tasks[0].M.Reg(isa.SP)
	if err := adv.Poke(frame+24+8*uint64(isa.X5), 0xFEED); err != nil {
		t.Fatal(err)
	}
	err := p.Run(10_000)
	if errors.Is(err, ErrProcessKilled) {
		t.Error("PC+CR hardening unexpectedly caught an X5 forgery")
	}
}

func TestKillInfoRecordsFaultPostMortem(t *testing.T) {
	p := boot(t, `
main:
    movz X0, #0
    ldr X1, [X0, #0]
`)
	err := p.Run(100)
	if err == nil {
		t.Fatal("faulting process ran to completion")
	}
	ki := p.Kill
	if ki == nil {
		t.Fatal("no post-mortem recorded")
	}
	if ki.TaskID != p.Tasks[0].ID {
		t.Errorf("TaskID = %d, want %d", ki.TaskID, p.Tasks[0].ID)
	}
	if ki.PC != p.Tasks[0].M.PC {
		t.Errorf("PC = %#x, want %#x", ki.PC, p.Tasks[0].M.PC)
	}
	if ki.Symbol != "main" {
		t.Errorf("Symbol = %q, want main", ki.Symbol)
	}
	var f *mem.Fault
	if !errors.As(ki.Cause, &f) {
		t.Errorf("Cause %v does not chain to *mem.Fault", ki.Cause)
	}
	if s := ki.String(); s == "" {
		t.Error("empty post-mortem string")
	}
}

func TestKillInfoNilOnCleanExit(t *testing.T) {
	p := boot(t, `
    movz X0, #0
    svc #0
`)
	if err := p.Run(100); err != nil {
		t.Fatal(err)
	}
	if p.Kill != nil {
		t.Errorf("clean exit filed a post-mortem: %v", p.Kill)
	}
}

// TestDeliverSignalNearStackBottom pins the kernel's behaviour when
// the signal frame barely fits — or doesn't — at the bottom of the
// mapped stack.
func TestDeliverSignalNearStackBottom(t *testing.T) {
	// Exactly fits: the frame ends flush with the bottom of the stack.
	p := boot(t, signalProgram)
	task := p.Tasks[0]
	task.M.SetReg(isa.SP, stackBase+FrameSize)
	h, tr := p.Prog.MustLookup("handler"), p.Prog.MustLookup("tramp")
	if err := p.DeliverSignal(task, 11, h, tr); err != nil {
		t.Fatalf("frame that exactly fits was rejected: %v", err)
	}
	if got := task.M.Reg(isa.SP); got != stackBase {
		t.Errorf("handler SP = %#x, want stack bottom %#x", got, stackBase)
	}

	// One word short: the frame write faults, and the kernel kills the
	// process the way Linux forces SIGSEGV.
	p = boot(t, signalProgram)
	task = p.Tasks[0]
	task.M.SetReg(isa.SP, stackBase+FrameSize-8)
	err := p.DeliverSignal(task, 11, h, tr)
	if !errors.Is(err, ErrProcessKilled) {
		t.Fatalf("err = %v, want ErrProcessKilled", err)
	}
	var f *mem.Fault
	if !errors.As(err, &f) {
		t.Errorf("err %v does not chain to *mem.Fault", err)
	}
	if p.Alive() {
		t.Error("killed process reports alive")
	}
	if p.Kill == nil {
		t.Fatal("no post-mortem for the failed frame write")
	}
	if p.Kill.TaskID != task.ID {
		t.Errorf("post-mortem TaskID = %d, want %d", p.Kill.TaskID, task.ID)
	}
}

func TestSeedMakesKernelDeterministic(t *testing.T) {
	mk := func(seed int64) *Process {
		prog, err := isa.Assemble(codeBase, "main:\n    movz X0, #0\n    svc #0\n")
		if err != nil {
			t.Fatal(err)
		}
		m := mem.New()
		if err := m.Map(codeBase, mem.PageSize, mem.PermRX); err != nil {
			t.Fatal(err)
		}
		if err := m.Map(stackBase, stackSize, mem.PermRW); err != nil {
			t.Fatal(err)
		}
		k := New(pa.DefaultConfig())
		k.Seed(seed)
		if !k.Seeded() {
			t.Fatal("Seed did not mark the kernel seeded")
		}
		return k.NewProcess(prog, m, codeBase, stackBase+stackSize)
	}
	a, b := mk(42), mk(42)
	const ptr, mod = 0x10040, 0xfeed
	if sealed := a.Auth.AddPAC(pa.KeyIA, ptr, mod); sealed != b.Auth.AddPAC(pa.KeyIA, ptr, mod) {
		t.Error("same seed produced different PA keys")
	}
	c := mk(43)
	sealed := a.Auth.AddPAC(pa.KeyIA, ptr, mod)
	if _, ok := c.Auth.Auth(pa.KeyIA, sealed, mod); ok {
		t.Error("different seeds produced colliding PA keys")
	}
}

// TestRestoreCountsChainOperations pins that a restored incarnation's
// PA operations reach the kernel's chain trace, like those of a booted
// one: a supervisor's warm restore from a snapshot runs on the
// Authenticator Restore builds.
func TestRestoreCountsChainOperations(t *testing.T) {
	prog, err := isa.Assemble(codeBase, `
    movz X1, #0x40
    movz X9, #3
loop:
    pacia X1, X28
    autia X1, X28
    sub X9, X9, #1
    cbnz X9, loop
    movz X0, #0
    svc #0
`)
	if err != nil {
		t.Fatal(err)
	}
	reg := telemetry.NewRegistry()
	issued := reg.Counter("pac_issued", "")
	k := New(pa.DefaultConfig())
	k.Seed(5)
	k.SetTelemetry(&Telemetry{Chain: &pa.Trace{PACIssued: issued}})
	mk := func() *Process {
		m := mem.New()
		if err := m.Map(codeBase, mem.PageSize, mem.PermRX); err != nil {
			t.Fatal(err)
		}
		if err := m.Map(stackBase, stackSize, mem.PermRW); err != nil {
			t.Fatal(err)
		}
		return k.NewProcess(prog, m, codeBase, stackBase+stackSize)
	}
	run := func(p *Process) uint64 {
		t.Helper()
		before := issued.Value()
		if err := p.Run(1000); err != nil {
			t.Fatal(err)
		}
		return issued.Value() - before
	}
	booted := mk()
	cp := booted.Checkpoint()
	restored := mk()
	if err := restored.Restore(cp); err != nil {
		t.Fatal(err)
	}
	fromBoot := run(booted)
	if fromBoot != 3 {
		t.Fatalf("run from boot issued %d PACs, want 3", fromBoot)
	}
	if got := run(restored); got != fromBoot {
		t.Errorf("restored run issued %d PACs, the same run from boot %d", got, fromBoot)
	}
}

// TestRestoreUndoesSignalFrame: the signal frame the kernel writes
// onto the user stack marks its page dirty, so restoring the
// checkpoint the process last restored, which rewrites only the pages
// written since, takes the frame back out.
func TestRestoreUndoesSignalFrame(t *testing.T) {
	p := boot(t, signalProgram)
	cp := p.Checkpoint()
	for i := range cp.Pages { // Checkpoint aliases the live frames
		cp.Pages[i].Data = bytes.Clone(cp.Pages[i].Data)
	}
	if err := p.Restore(cp); err != nil {
		t.Fatal(err)
	}
	if err := p.DeliverSignal(p.Tasks[0], 11, p.Prog.MustLookup("handler"), p.Prog.MustLookup("tramp")); err != nil {
		t.Fatal(err)
	}
	frame := p.Tasks[0].M.Reg(isa.SP)
	if pc, err := p.Mem.Read64(frame); err != nil || pc == 0 {
		t.Fatalf("no signal frame at %#x (saved PC %#x, %v)", frame, pc, err)
	}
	if err := p.Restore(cp); err != nil {
		t.Fatal(err)
	}
	got := p.Mem.Pages()
	for i, ps := range cp.Pages {
		if got[i].Addr != ps.Addr || got[i].Perm != ps.Perm || !bytes.Equal(got[i].Data, ps.Data) {
			t.Errorf("page %#x differs from the checkpoint after the restore", ps.Addr)
		}
	}
}

// TestRestoreRefusesOtherPageSet pins that Restore loads only a
// checkpoint of the pages the process maps, and that a refused one
// leaves the process as it was.
func TestRestoreRefusesOtherPageSet(t *testing.T) {
	const src = `
    movz X0, #7
    svc #0
`
	p, q := boot(t, src), boot(t, src)
	if err := q.Mem.Map(0x200000, mem.PageSize, mem.PermRW); err != nil {
		t.Fatal(err)
	}
	if err := p.Mem.Write64(stackBase, 0xfeed); err != nil {
		t.Fatal(err)
	}
	keys, gen := p.keys, p.Mem.Gen()
	if err := p.Restore(q.Checkpoint()); err == nil {
		t.Fatal("Restore accepted a checkpoint that maps one more page")
	}
	if v, err := p.Mem.Read64(stackBase); err != nil || v != 0xfeed || p.Mem.Gen() != gen || !p.HasKeys(keys) {
		t.Errorf("a refused Restore changed the process (word %#x, err %v)", v, err)
	}
	if err := p.Run(1000); err != nil || !p.Exited || p.ExitCode != 7 {
		t.Errorf("after a refused Restore: err %v, exited %v, code %d", err, p.Exited, p.ExitCode)
	}
}
