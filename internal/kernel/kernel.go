// Package kernel is the Linux-v5.0 analogue of this reproduction: it
// owns the pointer-authentication keys, schedules tasks, services
// system calls, delivers signals, and implements fork with the key-
// sharing semantics the paper's brute-force analysis (Section 4.3)
// depends on.
//
// Security-relevant modelling choices, each mirroring the paper:
//
//   - PA keys are generated per exec (NewProcess) and are fields of
//     kernel-side Go structs: user code has no instruction that reads
//     them and the adversary window (mem.Adversary) cannot reach them.
//   - Forked children share the parent's keys; only a new exec draws
//     fresh ones.
//   - On a context switch the register file — including the PACStack
//     chain register CR and LR — is saved in the kernel task struct
//     (struct cpu_context in Linux), not in user-visible memory
//     (Section 5.4).
//   - Signal delivery writes the signal frame onto the *user* stack,
//     which is exactly the sigreturn attack surface of Section 6.3.2;
//     the Appendix B hardening (a kernel-held chained MAC over the
//     frame's PC and CR) can be switched on per process.
package kernel

import (
	"context"
	"crypto/rand"
	"encoding/binary"
	"errors"
	"fmt"
	mrand "math/rand"

	"pacstack/internal/cpu"
	"pacstack/internal/isa"
	"pacstack/internal/lazyrand"
	"pacstack/internal/mem"
	"pacstack/internal/pa"
	"pacstack/internal/telemetry"
)

// System call numbers (SVC immediates).
const (
	SysExit      = 0 // X0: exit code; terminates the whole process
	SysWrite     = 1 // X0: byte appended to the process output
	SysGetPID    = 2 // returns PID in X0
	SysYield     = 3 // voluntary context switch
	SysSigReturn = 4 // return from a signal handler (frame at SP)
	SysSpawn     = 5 // X0: entry address, X1: new stack top; returns TID
	SysExitTask  = 6 // terminates the calling task only
	SysFork      = 7 // returns child PID in parent, 0 in child
	SysGetTID    = 8 // returns TID in X0
)

// Quantum is the number of instructions a task runs before the
// scheduler preempts it.
const Quantum = 64

// ErrProcessKilled reports a security-relevant kill (failed sigreturn
// validation).
var ErrProcessKilled = errors.New("kernel: process killed")

// ErrCancelled reports that RunCtx stopped because the caller's
// context expired — a deadline or shutdown, not a machine fault. The
// process is left alive and unkilled; no post-mortem is filed.
var ErrCancelled = errors.New("kernel: run cancelled")

// Kernel holds global configuration shared by all processes.
type Kernel struct {
	cfg pa.Config
	rng *mrand.Rand // nil: cryptographic entropy
	tel *Telemetry  // nil: telemetry disabled
}

// New returns a kernel configured with the given PA parameters.
func New(cfg pa.Config) *Kernel { return &Kernel{cfg: cfg} }

// Config returns the kernel's PA configuration.
func (k *Kernel) Config() pa.Config { return k.cfg }

// Seed switches the kernel's entropy pool — PA key generation on
// exec, the stack-protector canary — to a deterministic stream, so
// that identical seeds produce byte-identical processes. Experiments
// that must replay exactly (fault campaigns, the reproducibility
// audit) seed their kernels; everything else keeps cryptographic
// entropy.
//
// The stream is rand.NewSource(seed)'s. A kernel keeps its source
// across Seed calls, and the source builds its state lazily, so
// re-seeding a pooled machine's kernel per request is cheap.
func (k *Kernel) Seed(seed int64) {
	if k.rng == nil {
		k.rng = mrand.New(lazyrand.New(seed))
		return
	}
	k.rng.Seed(seed)
}

// Seeded reports whether the kernel draws deterministic entropy.
func (k *Kernel) Seeded() bool { return k.rng != nil }

// Entropy64 returns one word from the kernel entropy pool:
// deterministic after Seed, cryptographic otherwise.
func (k *Kernel) Entropy64() uint64 {
	if k.rng != nil {
		return k.rng.Uint64()
	}
	var buf [8]byte
	if _, err := rand.Read(buf[:]); err != nil {
		panic("kernel: entropy source failed: " + err.Error())
	}
	return binary.LittleEndian.Uint64(buf[:])
}

// genKeys draws a PA key set from the kernel entropy pool.
func (k *Kernel) genKeys() pa.Keys {
	if k.rng != nil {
		return pa.GenerateKeysFrom(k.rng)
	}
	return pa.GenerateKeys()
}

// Task is one schedulable thread. Its register file lives inside the
// embedded machine — kernel memory, from the adversary's viewpoint.
type Task struct {
	ID   int
	M    *cpu.Machine
	Done bool

	// sigRefs is the kernel-held reference chain for hardened
	// sigreturn (Appendix B): sigRefs[len-1] is asigret_n.
	sigRefs []uint64
}

// KillInfo is the structured post-mortem the kernel records when it
// kills a process: which task died, at which PC, and why. Supervisors
// (internal/supervise) and the fault classifier (internal/fault) read
// it instead of string-matching errors; Cause retains the full error
// chain, so errors.As still reaches *cpu.Fault, *mem.Fault,
// *cpu.TranslationFault and *cpu.CFIViolation.
type KillInfo struct {
	TaskID int
	PC     uint64
	Symbol string // nearest symbol at PC, when known
	Cause  error
}

func (ki *KillInfo) String() string {
	where := fmt.Sprintf("%#x", ki.PC)
	if ki.Symbol != "" {
		where = fmt.Sprintf("%#x (%s)", ki.PC, ki.Symbol)
	}
	return fmt.Sprintf("task %d killed at %s: %v", ki.TaskID, where, ki.Cause)
}

// Process is one address space plus its tasks and kernel-side state.
type Process struct {
	k    *Kernel
	PID  int
	Mem  *mem.Memory
	Prog *isa.Program
	Auth *pa.Authenticator

	keys pa.Keys // kernel-held; intentionally unexported

	Tasks  []*Task
	Output []byte

	Exited   bool
	ExitCode uint64

	// Kill is the post-mortem of the fault that killed the process,
	// nil after a clean exit (or while still running). Exec clears it.
	Kill *KillInfo

	// HardenedSigreturn enables the Appendix B signal-frame chain
	// binding the saved PC and CR.
	HardenedSigreturn bool

	// FullFrameSigreturn extends the Appendix B chain over every
	// saved register and the flags, so that forging *any* part of the
	// signal frame is detected. Implies HardenedSigreturn semantics.
	FullFrameSigreturn bool

	// CallCFI is propagated to every task machine; it implements the
	// assumption-A2 forward-edge check (see cpu.Machine.CallCFI).
	CallCFI func(target uint64) error

	// RetCFI is propagated likewise; the static-CFI comparator scheme
	// installs it (see cpu.Machine.RetCFI).
	RetCFI func(retPC, target uint64) error

	nextTID  int
	children []*Process
	nextPID  *int // shared PID counter rooted at the initial process
}

// NewProcess "execs" prog: fresh PA keys, the given address space,
// and one initial task starting at entry with the stack top at sp.
func (k *Kernel) NewProcess(prog *isa.Program, m *mem.Memory, entry, sp uint64) *Process {
	keys := k.genKeys()
	pidCounter := 1
	p := &Process{
		k:       k,
		PID:     1,
		Mem:     m,
		Prog:    prog,
		Auth:    pa.New(keys, k.cfg),
		keys:    keys,
		nextPID: &pidCounter,
	}
	if k.tel != nil {
		p.Auth.SetTrace(k.tel.Chain)
	}
	p.spawn(entry, sp)
	return p
}

// spawn creates a task; the caller provides entry PC and stack top.
func (p *Process) spawn(entry, sp uint64) *Task {
	t := &Task{ID: p.nextTID}
	p.nextTID++
	t.M = cpu.New(p.Prog, p.Mem, p.Auth)
	t.M.PC = entry
	t.M.SetReg(isa.SP, sp)
	t.M.Syscall = func(m *cpu.Machine, imm int64) error {
		return p.syscall(t, imm)
	}
	t.M.CallCFI = func(target uint64) error {
		if p.CallCFI == nil {
			return nil
		}
		return p.CallCFI(target)
	}
	t.M.RetCFI = func(retPC, target uint64) error {
		if p.RetCFI == nil {
			return nil
		}
		return p.RetCFI(retPC, target)
	}
	p.Tasks = append(p.Tasks, t)
	return t
}

// SpawnTask creates an additional task (thread) at the given entry
// point and stack top — the kernel-side half of pthread_create. The
// caller is responsible for seeding any scheme-specific registers
// (chain register, shadow-stack base) before running.
func (p *Process) SpawnTask(entry, sp uint64) *Task {
	return p.spawn(entry, sp)
}

// Fork clones the process: copied address space and registers, the
// same PA keys (Section 4.3: keys are per exec, so pre-forked workers
// share them). Only the calling task survives into the child,
// matching POSIX fork semantics.
func (p *Process) Fork(caller *Task) *Process {
	*p.nextPID++
	child := &Process{
		k:                  p.k,
		PID:                *p.nextPID,
		Mem:                p.Mem.Clone(),
		Prog:               p.Prog,
		Auth:               p.Auth, // same keys, same authenticator
		keys:               p.keys,
		HardenedSigreturn:  p.HardenedSigreturn,
		FullFrameSigreturn: p.FullFrameSigreturn,
		CallCFI:            p.CallCFI,
		RetCFI:             p.RetCFI,
		nextPID:            p.nextPID,
	}
	t := child.spawn(caller.M.PC, caller.M.Reg(isa.SP))
	t.M.SetRegs(caller.M.Regs())
	t.M.N, t.M.Z, t.M.C, t.M.V = caller.M.N, caller.M.Z, caller.M.C, caller.M.V
	t.sigRefs = append([]uint64(nil), caller.sigRefs...)
	p.children = append(p.children, child)
	return child
}

// Children returns processes forked from this one, in creation order.
func (p *Process) Children() []*Process { return p.children }

// Exec replaces the process image: a fresh address space and program,
// one task at the given entry, and — the security-relevant part —
// freshly generated PA keys. Every authenticated pointer produced
// before the exec is worthless afterwards, which is the property the
// paper's crash-and-restart guessing analysis (Section 4.3) rests on.
func (p *Process) Exec(prog *isa.Program, m *mem.Memory, entry, sp uint64) {
	p.keys = p.k.genKeys()
	p.Auth = pa.New(p.keys, p.k.cfg)
	if p.k.tel != nil {
		p.Auth.SetTrace(p.k.tel.Chain)
	}
	p.Mem = m
	p.Prog = prog
	p.Tasks = nil
	p.Output = nil
	p.Exited = false
	p.ExitCode = 0
	p.Kill = nil
	p.spawn(entry, sp)
}

// Task returns the task with the given ID, or nil.
func (p *Process) Task(id int) *Task {
	for _, t := range p.Tasks {
		if t.ID == id {
			return t
		}
	}
	return nil
}

// Alive reports whether any task can still run.
func (p *Process) Alive() bool {
	if p.Exited {
		return false
	}
	for _, t := range p.Tasks {
		if !t.Done {
			return true
		}
	}
	return false
}

// Run schedules tasks round-robin until the process exits, a task
// faults (which kills the whole process, per the paper's crash-on-
// failure assumption), or the instruction budget is exhausted.
func (p *Process) Run(maxInstrs uint64) error {
	return p.RunCtx(context.Background(), maxInstrs)
}

// RunCtx is Run with cooperative cancellation: between scheduler
// quanta it checks the context and returns an error wrapping
// ErrCancelled (and ctx.Err()) once the context is done. The serving
// layer uses this for per-request wall-clock deadlines; the check
// costs one non-blocking select per Quantum instructions, so
// background-context callers pay nothing measurable.
func (p *Process) RunCtx(ctx context.Context, maxInstrs uint64) error {
	done := ctx.Done()
	executed := uint64(0)
	tel := p.k.tel
	if tel != nil {
		defer func() { tel.Instrs.Add(executed) }()
	}
	cur := 0
	for p.Alive() {
		select {
		case <-done:
			if tel != nil {
				tel.Cancels.Inc()
			}
			return fmt.Errorf("%w: %w", ErrCancelled, ctx.Err())
		default:
		}
		if executed >= maxInstrs {
			return cpu.ErrStepLimit
		}
		t := p.Tasks[cur%len(p.Tasks)]
		cur++
		if t.Done {
			continue
		}
		if tel != nil {
			tel.Quanta.Inc()
		}
		// Context switch in: the task's registers were sitting in the
		// kernel task struct the whole time. The quantum is retired
		// through StepN so hot code runs block-compiled; the count it
		// returns excludes a faulting instruction, exactly like the old
		// per-Step loop.
		for q := uint64(0); q < Quantum && !t.Done && !p.Exited; {
			n, err := t.M.StepN(Quantum - q)
			executed += n
			q += n
			if err != nil {
				p.Exited = true
				if p.Kill == nil { // sigreturn may have filed a more precise report
					p.recordKill(t, err)
				}
				return err
			}
			if t.M.Halted {
				t.Done = true
			}
			if n == 0 {
				break
			}
		}
	}
	return nil
}

// recordKill files the post-mortem for the fault that killed the
// process.
func (p *Process) recordKill(t *Task, cause error) {
	sym, _ := p.Prog.SymbolFor(t.M.PC)
	p.Kill = &KillInfo{TaskID: t.ID, PC: t.M.PC, Symbol: sym, Cause: cause}
	p.k.tel.killRecorded(p.Kill)
}

// Cycles returns the total cycle count across all tasks.
func (p *Process) Cycles() uint64 {
	var c uint64
	for _, t := range p.Tasks {
		c += t.M.Cycles
	}
	return c
}

// syscall services one SVC from task t.
func (p *Process) syscall(t *Task, imm int64) error {
	m := t.M
	switch imm {
	case SysExit:
		p.Exited = true
		p.ExitCode = m.Reg(isa.X0)
		m.Halted = true
		t.Done = true
	case SysWrite:
		p.Output = append(p.Output, byte(m.Reg(isa.X0)))
	case SysGetPID:
		m.SetReg(isa.X0, uint64(p.PID))
	case SysGetTID:
		m.SetReg(isa.X0, uint64(t.ID))
	case SysYield:
		// Scheduling is cooperative at quantum granularity; yield is
		// accounted for by the syscall cost.
	case SysSpawn:
		nt := p.spawn(m.Reg(isa.X0), m.Reg(isa.X1))
		if tel := p.k.tel; tel != nil {
			tel.Spawns.Inc()
			tel.Events.Record(telemetry.EvReseed, "spawn", "", uint64(nt.ID))
		}
		// The child inherits the caller's callee-saved registers so
		// PACStack's CR re-seeding (Section 4.3) is observable.
		regs := m.Regs()
		nt.M.SetRegs(regs)
		nt.M.PC = m.Reg(isa.X0)
		nt.M.SetReg(isa.SP, m.Reg(isa.X1))
		m.SetReg(isa.X0, uint64(nt.ID))
	case SysExitTask:
		m.Halted = true
		t.Done = true
	case SysFork:
		child := p.Fork(t)
		child.Tasks[0].M.SetReg(isa.X0, 0)
		m.SetReg(isa.X0, uint64(child.PID))
	case SysSigReturn:
		return p.sigreturn(t)
	default:
		return fmt.Errorf("kernel: unknown syscall %d", imm)
	}
	return nil
}
