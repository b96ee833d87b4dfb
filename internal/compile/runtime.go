package compile

import "pacstack/internal/isa"

// The runtime appended to every image: process entry, stack-protector
// failure handler, the libc-analogue setjmp/longjmp, the PACStack
// setjmp/longjmp wrappers (paper Listings 4 and 5), and the ACS
// re-seeding helper for threads (Section 4.3).

// jmp_buf layout, 8-byte slots: X19..X28 at 0..72, FP at 80, LR at
// 88, SP at 96.
const (
	jmpBufX19  = 0
	jmpBufCR   = 72 // X28 slot: under PACStack this is aret_i
	jmpBufFP   = 80
	jmpBufLR   = 88 // return address; aret_b under PACStack
	jmpBufSP   = 96
	JmpBufSize = 112 // rounded to 16
)

func (c *compiler) emitStart(entry string) {
	c.b.Label("_start")
	// Shadow stack base for X18; harmless under other schemes.
	c.i(isa.MOVZ, func(i *isa.Instr) { i.Rd = isa.SCS; i.Imm = int64(c.layout.ShadowBase) })
	// CR starts as the ACS seed value (auth_0 = H(ret_0, 0)).
	c.i(isa.MOVZ, func(i *isa.Instr) { i.Rd = isa.CR; i.Imm = 0 })
	c.i(isa.BL, func(i *isa.Instr) { i.Label = entry })
	c.i(isa.MOVZ, func(i *isa.Instr) { i.Rd = isa.X0; i.Imm = 0 })
	c.i(isa.SVC, func(i *isa.Instr) { i.Imm = 0 }) // exit(0)
}

func (c *compiler) emitRuntime() {
	c.emitTaskExit()
	c.emitAcsValidate()
	c.emitStackChkFail()
	c.emitSetjmp()
	c.emitLongjmp()
	c.emitSetjmpWrapper()
	c.emitLongjmpWrapper()
	c.emitThreadSeed()
	c.emitSignalRuntime()
}

// __acs_validate is the Section 9.1 libunwind-style validator: it
// walks up to X0 stack frames along the frame-pointer chain, verifying
// each ACS link exactly as a return would — unmask with the next
// spilled aret, authenticate, compare against the stripped pointer —
// without transferring control. It returns in X0 the number of frames
// that validated, so an unwinder can ensure "a fresh and valid state
// is reached" before resuming there. The walk assumes the PACStack
// frame layout (spilled aret at [FP - 16], caller FP at [FP]); under
// other schemes the routine is a stub returning 0.
//
// Register use: X9 current aret, X10 frame pointer, X11 count,
// X12 loaded aret_{i-1}, X13/X14/X15 scratch (X15 cleared after
// carrying the mask, as in Listing 3).
func (c *compiler) emitAcsValidate() {
	c.b.Label("__acs_validate")
	if c.scheme != SchemePACStack && c.scheme != SchemePACStackNoMask {
		c.i(isa.MOVZ, func(i *isa.Instr) { i.Rd = isa.X0; i.Imm = 0 })
		c.i(isa.RET, func(i *isa.Instr) { i.Rn = isa.LR })
		return
	}
	c.i(isa.MOV, func(i *isa.Instr) { i.Rd = isa.X9; i.Rn = isa.CR })
	c.i(isa.MOV, func(i *isa.Instr) { i.Rd = isa.X10; i.Rn = isa.FP })
	c.i(isa.MOVZ, func(i *isa.Instr) { i.Rd = isa.X11; i.Imm = 0 })
	c.b.Label("__acs_validate$loop")
	c.i(isa.CBZ, func(i *isa.Instr) { i.Rn = isa.X0; i.Label = "__acs_validate$done" })
	// X12 <- spilled aret_{i-1} of the current frame.
	c.i(isa.LDR, func(i *isa.Instr) { i.Rd = isa.X12; i.Rn = isa.X10; i.Imm = -16 })
	if c.scheme == SchemePACStack {
		c.i(isa.MOV, func(i *isa.Instr) { i.Rd = isa.X15; i.Rn = isa.XZR })
		c.i(isa.PACIA, func(i *isa.Instr) { i.Rd = isa.X15; i.Rn = isa.X12 })
		c.i(isa.EOR, func(i *isa.Instr) { i.Rd = isa.X13; i.Rn = isa.X9; i.Rm = isa.X15 })
		c.i(isa.MOV, func(i *isa.Instr) { i.Rd = isa.X15; i.Rn = isa.XZR })
	} else {
		c.i(isa.MOV, func(i *isa.Instr) { i.Rd = isa.X13; i.Rn = isa.X9 })
	}
	// Authenticate, then compare against the stripped pointer: equal
	// iff the link verifies.
	c.i(isa.AUTIA, func(i *isa.Instr) { i.Rd = isa.X13; i.Rn = isa.X12 })
	c.i(isa.MOV, func(i *isa.Instr) { i.Rd = isa.X14; i.Rn = isa.X9 })
	c.i(isa.XPACI, func(i *isa.Instr) { i.Rd = isa.X14 })
	c.i(isa.CMP, func(i *isa.Instr) { i.Rn = isa.X13; i.Rm = isa.X14 })
	c.i(isa.BCND, func(i *isa.Instr) { i.Cond = isa.NE; i.Label = "__acs_validate$done" })
	// Step outward: count, aret <- loaded, FP <- caller FP.
	c.i(isa.ADDI, func(i *isa.Instr) { i.Rd = isa.X11; i.Rn = isa.X11; i.Imm = 1 })
	c.i(isa.MOV, func(i *isa.Instr) { i.Rd = isa.X9; i.Rn = isa.X12 })
	c.i(isa.LDR, func(i *isa.Instr) { i.Rd = isa.X10; i.Rn = isa.X10; i.Imm = 0 })
	c.i(isa.SUBI, func(i *isa.Instr) { i.Rd = isa.X0; i.Rn = isa.X0; i.Imm = 1 })
	c.i(isa.B, func(i *isa.Instr) { i.Label = "__acs_validate$loop" })
	c.b.Label("__acs_validate$done")
	c.i(isa.MOV, func(i *isa.Instr) { i.Rd = isa.X0; i.Rn = isa.X11 })
	c.i(isa.RET, func(i *isa.Instr) { i.Rn = isa.LR })
}

// __task_exit terminates the calling task; it is the LR a spawned
// thread starts with, so returning from the thread function ends the
// thread (Section 4.3's "a return from the function starting the
// thread causes the thread to exit").
func (c *compiler) emitTaskExit() {
	c.b.Label("__task_exit")
	c.i(isa.SVC, func(i *isa.Instr) { i.Imm = 6 })
}

func (c *compiler) emitStackChkFail() {
	c.b.Label("__stack_chk_fail")
	// glibc aborts; exit code 134 = 128 + SIGABRT.
	c.i(isa.MOVZ, func(i *isa.Instr) { i.Rd = isa.X0; i.Imm = 134 })
	c.i(isa.SVC, func(i *isa.Instr) { i.Imm = 0 })
}

// __setjmp stores the callee-saved registers, FP, LR and SP into the
// jmp_buf at X0 and returns 0.
func (c *compiler) emitSetjmp() {
	c.b.Label("__setjmp")
	for k := 0; k < 10; k++ {
		reg, off := isa.X19+isa.Reg(k), int64(jmpBufX19+8*k)
		c.i(isa.STR, func(i *isa.Instr) { i.Rd = reg; i.Rn = isa.X0; i.Imm = off })
	}
	c.i(isa.STR, func(i *isa.Instr) { i.Rd = isa.FP; i.Rn = isa.X0; i.Imm = jmpBufFP })
	c.i(isa.STR, func(i *isa.Instr) { i.Rd = isa.LR; i.Rn = isa.X0; i.Imm = jmpBufLR })
	c.i(isa.MOV, func(i *isa.Instr) { i.Rd = isa.X9; i.Rn = isa.SP })
	c.i(isa.STR, func(i *isa.Instr) { i.Rd = isa.X9; i.Rn = isa.X0; i.Imm = jmpBufSP })
	c.i(isa.MOVZ, func(i *isa.Instr) { i.Rd = isa.X0; i.Imm = 0 })
	c.i(isa.RET, func(i *isa.Instr) { i.Rn = isa.LR })
}

// __longjmp restores the environment from the jmp_buf at X0 and
// resumes at the stored return address with X0 = X1 (or 1 if X1 was
// 0, per the C standard).
func (c *compiler) emitLongjmp() {
	c.b.Label("__longjmp")
	for k := 0; k < 10; k++ {
		reg, off := isa.X19+isa.Reg(k), int64(jmpBufX19+8*k)
		c.i(isa.LDR, func(i *isa.Instr) { i.Rd = reg; i.Rn = isa.X0; i.Imm = off })
	}
	c.i(isa.LDR, func(i *isa.Instr) { i.Rd = isa.FP; i.Rn = isa.X0; i.Imm = jmpBufFP })
	c.i(isa.LDR, func(i *isa.Instr) { i.Rd = isa.LR; i.Rn = isa.X0; i.Imm = jmpBufLR })
	c.i(isa.LDR, func(i *isa.Instr) { i.Rd = isa.X9; i.Rn = isa.X0; i.Imm = jmpBufSP })
	c.i(isa.MOV, func(i *isa.Instr) { i.Rd = isa.SP; i.Rn = isa.X9 })
	c.i(isa.MOV, func(i *isa.Instr) { i.Rd = isa.X0; i.Rn = isa.X1 })
	c.i(isa.CBNZ, func(i *isa.Instr) { i.Rn = isa.X0; i.Label = "__longjmp$go" })
	c.i(isa.MOVZ, func(i *isa.Instr) { i.Rd = isa.X0; i.Imm = 1 })
	c.b.Label("__longjmp$go")
	c.i(isa.RET, func(i *isa.Instr) { i.Rn = isa.LR })
}

// __setjmp_wrapper is the Listing 4 construction: before the buffer
// is filled, the stored return address is replaced by
//
//	aret_b = pacia(ret_b, aret_i) XOR pacia(SP_b, aret_i)
//
// which cryptographically binds it to both the current ACS state
// (aret_i, in CR) and the SP at the setjmp call. The wrapper itself is
// a leaf and returns normally.
func (c *compiler) emitSetjmpWrapper() {
	c.b.Label("__setjmp_wrapper")
	// Fill the buffer exactly like __setjmp (X28 slot = aret_i).
	for k := 0; k < 10; k++ {
		reg, off := isa.X19+isa.Reg(k), int64(jmpBufX19+8*k)
		c.i(isa.STR, func(i *isa.Instr) { i.Rd = reg; i.Rn = isa.X0; i.Imm = off })
	}
	c.i(isa.STR, func(i *isa.Instr) { i.Rd = isa.FP; i.Rn = isa.X0; i.Imm = jmpBufFP })
	c.i(isa.MOV, func(i *isa.Instr) { i.Rd = isa.X9; i.Rn = isa.SP })
	c.i(isa.STR, func(i *isa.Instr) { i.Rd = isa.X9; i.Rn = isa.X0; i.Imm = jmpBufSP })
	// aret_b = pacia(ret_b, aret_i) ^ pacia(SP_b, aret_i).
	c.i(isa.MOV, func(i *isa.Instr) { i.Rd = isa.X15; i.Rn = isa.SP })
	c.i(isa.PACIA, func(i *isa.Instr) { i.Rd = isa.X15; i.Rn = isa.CR })
	c.i(isa.MOV, func(i *isa.Instr) { i.Rd = isa.X9; i.Rn = isa.LR })
	c.i(isa.PACIA, func(i *isa.Instr) { i.Rd = isa.X9; i.Rn = isa.CR })
	c.i(isa.EOR, func(i *isa.Instr) { i.Rd = isa.X9; i.Rn = isa.X9; i.Rm = isa.X15 })
	c.i(isa.MOV, func(i *isa.Instr) { i.Rd = isa.X15; i.Rn = isa.XZR })
	c.i(isa.STR, func(i *isa.Instr) { i.Rd = isa.X9; i.Rn = isa.X0; i.Imm = jmpBufLR })
	c.i(isa.MOVZ, func(i *isa.Instr) { i.Rd = isa.X0; i.Imm = 0 })
	c.i(isa.RET, func(i *isa.Instr) { i.Rn = isa.LR })
}

// __longjmp_wrapper is the Listing 5 construction: it restores CR to
// the aret_i stored in the buffer, recomputes the SP binding, and
// authenticates aret_b before jumping. A forged or stale buffer fails
// authentication and the jump faults.
func (c *compiler) emitLongjmpWrapper() {
	c.b.Label("__longjmp_wrapper")
	// CR <- aret_i; also restores the other callee-saved registers.
	for k := 0; k < 10; k++ {
		reg, off := isa.X19+isa.Reg(k), int64(jmpBufX19+8*k)
		c.i(isa.LDR, func(i *isa.Instr) { i.Rd = reg; i.Rn = isa.X0; i.Imm = off })
	}
	c.i(isa.LDR, func(i *isa.Instr) { i.Rd = isa.FP; i.Rn = isa.X0; i.Imm = jmpBufFP })
	c.i(isa.LDR, func(i *isa.Instr) { i.Rd = isa.X9; i.Rn = isa.X0; i.Imm = jmpBufLR })  // aret_b
	c.i(isa.LDR, func(i *isa.Instr) { i.Rd = isa.X15; i.Rn = isa.X0; i.Imm = jmpBufSP }) // SP_b
	c.i(isa.MOV, func(i *isa.Instr) { i.Rd = isa.X10; i.Rn = isa.X15 })
	// Strip the SP binding: X9 ^= pacia(SP_b, aret_i).
	c.i(isa.PACIA, func(i *isa.Instr) { i.Rd = isa.X15; i.Rn = isa.CR })
	c.i(isa.EOR, func(i *isa.Instr) { i.Rd = isa.X9; i.Rn = isa.X9; i.Rm = isa.X15 })
	c.i(isa.MOV, func(i *isa.Instr) { i.Rd = isa.X15; i.Rn = isa.XZR })
	// Verify against aret_i; a mismatch poisons X9.
	c.i(isa.AUTIA, func(i *isa.Instr) { i.Rd = isa.X9; i.Rn = isa.CR })
	c.i(isa.MOV, func(i *isa.Instr) { i.Rd = isa.LR; i.Rn = isa.X9 })
	c.i(isa.MOV, func(i *isa.Instr) { i.Rd = isa.SP; i.Rn = isa.X10 })
	c.i(isa.MOV, func(i *isa.Instr) { i.Rd = isa.X0; i.Rn = isa.X1 })
	c.i(isa.CBNZ, func(i *isa.Instr) { i.Rn = isa.X0; i.Label = "__longjmp_wrapper$go" })
	c.i(isa.MOVZ, func(i *isa.Instr) { i.Rd = isa.X0; i.Imm = 1 })
	c.b.Label("__longjmp_wrapper$go")
	c.i(isa.RET, func(i *isa.Instr) { i.Rn = isa.LR })
}

// emitSignalRuntime emits the signal-handling runtime every image
// carries, the libc rt_sigreturn analogue:
//
//   - __sigreturn is the trampoline the kernel points LR at when it
//     delivers a signal (kernel.Process.DeliverSignal); returning from
//     the handler lands here and issues the sigreturn system call,
//     which restores the interrupted context from the frame at SP.
//   - __sig_handler is a minimal do-nothing handler (a leaf: it
//     neither spills LR nor touches CR) that programs without their
//     own handler can field signals with; the fault-injection engine
//     uses it for its signal-frame tampering campaigns.
func (c *compiler) emitSignalRuntime() {
	c.b.Label("__sigreturn")
	c.i(isa.SVC, func(i *isa.Instr) { i.Imm = 4 })
	c.b.Label("__sig_handler")
	c.i(isa.RET, func(i *isa.Instr) { i.Rn = isa.LR })
}

// __thread_seed re-seeds the ACS for a new thread (Section 4.3): CR is
// derived from the thread ID, making the thread's chain disjoint from
// every other chain and defeating divide-and-conquer guessing.
func (c *compiler) emitThreadSeed() {
	c.b.Label("__thread_seed")
	c.i(isa.SVC, func(i *isa.Instr) { i.Imm = 8 }) // gettid -> X0
	c.i(isa.MOV, func(i *isa.Instr) { i.Rd = isa.CR; i.Rn = isa.X0 })
	c.i(isa.PACIA, func(i *isa.Instr) { i.Rd = isa.CR; i.Rn = isa.XZR })
	c.i(isa.RET, func(i *isa.Instr) { i.Rn = isa.LR })
}
