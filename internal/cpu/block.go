// Trace-compiled execution: runtime-discovered superblocks.
//
// The single-step interpreter (Step) pays per-instruction costs that
// are invariant over straight-line code: the fetch-permission check,
// the decode-cache and cost-table revalidations, and the hook nil
// checks. This file amortizes all of them over basic-block-shaped
// units discovered at run time:
//
//   - a *block* is a run of pre-decoded micro-ops starting at a hot
//     entry PC, extended across unconditional direct branches and
//     direct calls (superblock formation: B is followed, BL inlines
//     the link-register write and continues at the callee), ending at
//     the first indirect branch, return, SVC, HLT, or undefined
//     instruction. Conditional branches stay inside the block as side
//     exits, and a side exit that targets the block's own entry loops
//     back in-block, so tight loops pay no dispatch per iteration.
//   - fetch/permission checks are hoisted to block entry: the builder
//     proves every instruction byte and every static branch target of
//     the block executable under the memory generation (mem.Gen) it
//     was built at, so dispatch revalidates one counter instead of
//     page-walking per instruction. Map/Protect bump the generation
//     and force a rebuild, which makes remapped or shrunk executable
//     regions invalidate exactly as the slow path would fault.
//   - per-block cycle and instruction totals are precomputed from the
//     flat cost table as running sums per micro-op, so any exit —
//     fall-through, side exit, fault, loop-back, or budget stop —
//     charges exactly what Step-by-Step execution would have.
//   - adjacent pac* instructions sharing a key and modifier are fused
//     into one batched pa.AddPACPair call (the masked-prologue shape),
//     observably identical to the two separate calls.
//
// The single-step interpreter remains the semantic oracle. Execution
// falls back to it, instruction by instruction, whenever observability
// demands: an armed PreStep hook (the fault-injection engine), an
// attached Trace hook, or SetBlockCompile(false). Block-compiled and
// single-step execution are observably identical — registers, flags,
// memory, PC, Cycles, Instrs, fault identity and PA trace/telemetry
// counters — which the differential tests in block_test.go and the
// root determinism suite enforce.
package cpu

import (
	"sync/atomic"

	"pacstack/internal/isa"
	"pacstack/internal/pa"
)

// blockCompileOff disables the block engine when set; the zero value
// (enabled) is the default. Stored inverted so the package needs no
// init function.
var blockCompileOff atomic.Bool

// SetBlockCompile toggles the trace-compiled engine globally and
// returns a func restoring the previous setting. The differential
// tests use it to run identical workloads block-compiled and purely
// single-stepped; production code never calls it.
func SetBlockCompile(on bool) (restore func()) {
	prev := !blockCompileOff.Load()
	blockCompileOff.Store(!on)
	return func() { blockCompileOff.Store(!prev) }
}

// maxBlockUops caps superblock length: long enough to amortize
// dispatch over whole scheduler quanta, short enough to bound the
// rebuild cost after an invalidation.
const maxBlockUops = 128

// Pseudo-ops used only inside blocks. They live above isa.NumOps so
// they can never collide with a real opcode.
const (
	// uopGoto is an executed unconditional direct branch whose target
	// is the next micro-op of the same block (superblock formation
	// across B): it retires and is charged like B, but transfers
	// control implicitly.
	uopGoto = isa.Op(isa.NumOps) + iota
	// uopCall is a followed direct call (BL): it writes LR = pc+8 and
	// control continues at the next micro-op, which is the callee's
	// first instruction. Direct calls take no CFI hook (only BLR
	// does), so inlining them is invisible.
	uopCall
	// uopPACPair fuses two adjacent pac* instructions sharing a key
	// and modifier register — the PACStack masked-prologue shape —
	// into one batched pa.AddPACPair call. aux holds the key, Rd and
	// Rm the two destinations (each also its own input), Rn the
	// modifier.
	uopPACPair
)

// uop is one pre-decoded micro-op. Operands are flattened out of
// isa.Instr so the dispatch loop never touches the decode path; cum
// and icnt carry the running cycle and retired-instruction totals
// (inclusive of this op) so every exit charges the cost model in one
// addition. A fused pair counts as two instructions, like the oracle.
type uop struct {
	op         isa.Op
	rd, rn, rm uint8
	aux        uint8    // uopPACPair: the pa.KeyID
	cond       isa.Cond // BCND side exits
	imm        uint64   // immediate as the executor consumes it
	target     uint64   // static branch target (pre-validated)
	pc         uint64   // address of the source instruction
	cum        uint64   // cycles of uops[0..this], from the cost table
	icnt       uint16   // instructions retired by uops[0..this]
}

// block is one compiled superblock. prog, auth and gen identify the
// sources the block was derived from; a mismatch at dispatch forces a
// rebuild, which is how self-modifying mappings, program swaps and
// authenticator swaps invalidate exactly like the slow path.
type block struct {
	entry uint64
	next  uint64 // continuation PC when the block falls through
	gen   uint64 // mem.Gen() all fetch/target proofs were made at
	prog  *isa.Program
	auth  *pa.Authenticator
	uops  []uop // nil: unbuildable at this entry under this gen
}

// flushBlocks drops every compiled block (cost-model change, program
// swap). The arrays are lazily reallocated at the next dispatch.
func (m *Machine) flushBlocks() {
	m.blocks = nil
	m.heat = nil
	m.blockProg = nil
	m.resumeB = nil
}

// costCurrent reports whether the flat cost table still matches the
// exported Cost field (field-wise: the struct compare Step used to do
// per instruction is a runtime memequal call, which profiling showed
// at 14% of engine time).
func (m *Machine) costCurrent() bool { return m.costTabInit && m.Cost.equal(m.costSrc) }

// staticTargetOK proves a build-time branch target safe to take
// without a per-execution check: canonical (checkTarget's translation
// rule) and executable under the build generation.
func (m *Machine) staticTargetOK(t uint64) bool {
	if m.Auth != nil && !m.Auth.IsCanonical(t) {
		return false
	}
	_, _, err := m.Mem.ExecRegion(t)
	return err == nil
}

// buildBlock compiles the superblock entered at entry under the given
// memory generation. It stops — leaving the rest to the interpreter —
// at anything whose slow-path semantics it cannot reproduce
// bit-for-bit: SVC (the handler may remap memory), undefined opcodes
// (exact fault text), PA instructions without an authenticator, and
// branches whose static targets cannot be proven at build time. A
// block with no compilable head instruction is returned with nil uops
// and cached as unbuildable for this generation.
func (m *Machine) buildBlock(entry, gen uint64) *block {
	b := &block{entry: entry, gen: gen, prog: m.progCached, auth: m.Auth}
	var lo, hi uint64 // validated executable window
	haveWin := false
	pc := entry
	var cum uint64
	var icnt uint16
	inBlock := func(t uint64) bool {
		for i := range b.uops {
			if b.uops[i].pc == t {
				return true
			}
		}
		return false
	}

build:
	for len(b.uops) < maxBlockUops {
		if !haveWin || pc < lo || pc >= hi {
			l, h, err := m.Mem.ExecRegion(pc)
			if err != nil {
				break // next fetch would fault: interpreter raises it
			}
			lo, hi, haveWin = l, h, true
		}
		off := pc - m.progBase
		if off >= m.progSize || off%isa.InstrSize != 0 {
			break // decode fault: interpreter raises it
		}
		ins := m.progInstrs[off/isa.InstrSize]
		if uint(ins.Op) >= uint(isa.NumOps) {
			break // undefined opcode: interpreter raises the exact fault
		}
		cum += uint64(m.costTab[ins.Op])
		icnt++
		u := uop{
			op: ins.Op, rd: uint8(ins.Rd), rn: uint8(ins.Rn), rm: uint8(ins.Rm),
			cond: ins.Cond, imm: uint64(ins.Imm), target: ins.Target, pc: pc,
			cum: cum, icnt: icnt,
		}
		switch ins.Op {
		case isa.SVC:
			break build // handler may remap or halt: interpreter only

		case isa.LSLI, isa.LSRI:
			u.imm = uint64(ins.Imm) & 63

		case isa.PACIA, isa.PACIB, isa.AUTIA, isa.AUTIB,
			isa.PACIASP, isa.AUTIASP, isa.PACGA, isa.XPACI, isa.RETAA:
			if m.Auth == nil {
				break build // exact "PA without authenticator" fault
			}
			if ins.Op == isa.RETAA {
				b.uops = append(b.uops, u)
				return b
			}
			// Fuse "pac* Xa, Xm ; pac* Xb, Xm" (same key, same live
			// modifier, distinct destinations) into one batched
			// AddPACPair call — the PACStack masked-prologue shape.
			if ins.Op == isa.PACIA || ins.Op == isa.PACIB {
				if nb, ok := m.peekInstr(pc + isa.InstrSize); ok && nb.Op == ins.Op &&
					nb.Rn == ins.Rn && nb.Rd != ins.Rd && ins.Rd != ins.Rn &&
					len(b.uops) < maxBlockUops-1 {
					u.op = uopPACPair
					u.rm = uint8(nb.Rd)
					if ins.Op == isa.PACIB {
						u.aux = uint8(pa.KeyIB)
					} else {
						u.aux = uint8(pa.KeyIA)
					}
					cum += uint64(m.costTab[nb.Op])
					icnt++
					u.cum, u.icnt = cum, icnt
					b.uops = append(b.uops, u)
					pc += 2 * isa.InstrSize
					continue
				}
			}

		case isa.B:
			if !m.staticTargetOK(ins.Target) {
				break build
			}
			if len(b.uops) < maxBlockUops-1 && !inBlock(ins.Target) && ins.Target != pc {
				// Superblock formation: follow the jump in-block.
				u.op = uopGoto
				b.uops = append(b.uops, u)
				pc = ins.Target
				continue
			}
			b.uops = append(b.uops, u)
			return b

		case isa.BL:
			if !m.staticTargetOK(ins.Target) {
				break build
			}
			if len(b.uops) < maxBlockUops-1 && ins.Target != pc {
				// Follow the direct call: inline the LR write and keep
				// compiling at the callee. The callee's dynamic return
				// (RET/RETAA) terminates the block.
				u.op = uopCall
				b.uops = append(b.uops, u)
				pc = ins.Target
				continue
			}
			b.uops = append(b.uops, u)
			return b

		case isa.BCND, isa.CBZ, isa.CBNZ:
			if !m.staticTargetOK(ins.Target) {
				break build // taken path may fault: interpreter decides
			}

		case isa.BR, isa.BLR, isa.RET, isa.HLT:
			b.uops = append(b.uops, u)
			return b
		}
		b.uops = append(b.uops, u)
		pc += isa.InstrSize
	}
	b.next = pc
	if len(b.uops) == 0 {
		b.uops = nil // cached as unbuildable for this generation
	}
	return b
}

// peekInstr decodes the instruction at pc from the cached program
// window, for the builder's fusion lookahead.
func (m *Machine) peekInstr(pc uint64) (isa.Instr, bool) {
	off := pc - m.progBase
	if off >= m.progSize || off%isa.InstrSize != 0 {
		return isa.Instr{}, false
	}
	return m.progInstrs[off/isa.InstrSize], true
}

// stepInto is StepN's per-instruction fallback: one oracle step.
func (m *Machine) stepInto(executed *uint64) error {
	if err := m.Step(); err != nil {
		return err
	}
	*executed++
	return nil
}

// StepN retires up to budget instructions and returns how many
// actually retired before the machine halted, the budget ran out, or
// a fault occurred. It is observably identical to calling Step in a
// loop — the kernel's scheduler quantum is exactly such a loop — but
// dispatches hot straight-line code through compiled superblocks. A
// faulting instruction is excluded from the returned count (matching
// the scheduler's accounting) while still charged to Cycles and
// Instrs (matching Step's).
//
// Fallback invariants: an armed PreStep hook (fault injection), an
// attached Trace hook, or SetBlockCompile(false) forces per-
// instruction interpretation, so corruption indexes, trace streams
// and detection classification are bit-for-bit those of the oracle.
func (m *Machine) StepN(budget uint64) (uint64, error) {
	executed := uint64(0)
	// Dispatch environment — decode cache, cost table, block arrays,
	// memory generation — is validated once and re-validated only
	// after an interpreter step, which is the only place inside StepN
	// that can run foreign code (an SVC handler).
	envOK := false
	var gen uint64
	for executed < budget {
		if m.Halted {
			return executed, nil
		}
		if m.PreStep != nil || m.Trace != nil || blockCompileOff.Load() {
			m.resumeB = nil
			if err := m.stepInto(&executed); err != nil {
				return executed, err
			}
			envOK = false
			continue
		}
		if !envOK {
			if m.Prog != m.progCached {
				m.cacheProg()
			}
			if !m.costCurrent() {
				m.cacheCost()
				m.flushBlocks()
			}
			if m.blockProg != m.progCached {
				n := int(m.progSize / isa.InstrSize)
				m.blocks = make([]*block, n)
				m.heat = make([]uint8, n)
				m.blockProg = m.progCached
			}
			gen = m.Mem.Gen()
			envOK = true
		}

		var n uint64
		var err error
		ran := false
		// A budget stop mid-block leaves a resume point; re-entering at
		// the same PC under the same sources continues inside the block
		// without a dispatch lookup. The PC compare makes any external
		// control transfer (signal delivery, state restore) miss.
		if rb := m.resumeB; rb != nil {
			i := m.resumeIdx
			m.resumeB = nil
			if rb.prog == m.progCached && rb.auth == m.Auth && rb.gen == gen &&
				i < len(rb.uops) && rb.uops[i].pc == m.PC {
				n, err = m.runBlock(rb, i, budget-executed)
				ran = true
			}
		}
		if !ran {
			off := m.PC - m.progBase
			if off >= m.progSize || off%isa.InstrSize != 0 {
				// Off-image PC: the interpreter raises the exact fault.
				if err := m.stepInto(&executed); err != nil {
					return executed, err
				}
				envOK = false
				continue
			}
			slot := off / isa.InstrSize
			b := m.blocks[slot]
			if b == nil || b.gen != gen || b.auth != m.Auth || b.prog != m.progCached {
				if b == nil && m.heat[slot] == 0 {
					// Cold entry: interpret once before spending a build,
					// so code executed a single time is never compiled.
					m.heat[slot] = 1
					if err := m.stepInto(&executed); err != nil {
						return executed, err
					}
					envOK = false
					continue
				}
				b = m.buildBlock(m.PC, gen)
				m.blocks[slot] = b
			}
			if b.uops == nil {
				if err := m.stepInto(&executed); err != nil {
					return executed, err
				}
				envOK = false
				continue
			}
			n, err = m.runBlock(b, 0, budget-executed)
		}
		executed += n
		if err != nil {
			return executed, err
		}
		if n == 0 {
			// The budget boundary fell inside a fused pair: the oracle
			// would retire its first instruction — single-step it.
			if err := m.stepInto(&executed); err != nil {
				return executed, err
			}
			envOK = false
		}
	}
	return executed, nil
}

// runBlock executes b.uops[start:] under the instruction budget,
// charging Cycles/Instrs exactly as the interpreter would at every
// exit shape: side exit, fall-through, fault, loop-back, budget stop.
// Budget must be >= 1. A return of (0, nil) means the first micro-op
// is a fused pair the budget cannot cover whole — the caller single-
// steps its first half instead, matching the oracle's stop point.
func (m *Machine) runBlock(b *block, start int, budget uint64) (uint64, error) {
	uops := b.uops
	auth := b.auth
	var base, baseI, done uint64

	// commit finalizes an exit after executing uops[..i]: charge the
	// prefix deltas, retire the instructions, move PC.
	commit := func(i int, nextPC uint64) uint64 {
		delta := uint64(uops[i].icnt) - baseI
		m.Cycles += uops[i].cum - base
		m.Instrs += delta
		m.PC = nextPC
		return done + delta
	}
	// fail reproduces Step's fault accounting: the faulting
	// instruction is charged and retired on the machine, PC stays at
	// it, but it is excluded from the scheduler-visible count. (A
	// fused pair cannot fault, so the exclusion is always exactly 1.)
	fail := func(i int, err error) (uint64, error) {
		delta := uint64(uops[i].icnt) - baseI
		m.Cycles += uops[i].cum - base
		m.Instrs += delta
		m.PC = uops[i].pc
		return done + delta - 1, m.fault(err)
	}
	// loopback accounts a taken branch back to the block entry and
	// reports whether the budget allows another in-block iteration.
	loopback := func(i int) bool {
		delta := uint64(uops[i].icnt) - baseI
		m.Cycles += uops[i].cum - base
		m.Instrs += delta
		done += delta
		if done < budget {
			return true
		}
		m.PC = b.entry
		return false
	}

outer:
	for {
		base, baseI = 0, 0
		if start > 0 {
			base = uops[start-1].cum
			baseI = uint64(uops[start-1].icnt)
		}
		end := len(uops)
		limited := false
		if rem := budget - done; uint64(uops[end-1].icnt)-baseI > rem {
			// Each uop retires at least one instruction, so at most rem
			// uops fit; walk back over a fused pair straddling the limit.
			if e := start + int(rem); e < end {
				end = e
			}
			for end > start && uint64(uops[end-1].icnt)-baseI > rem {
				end--
			}
			if end == start {
				if done > 0 {
					m.PC = uops[start].pc
				}
				return done, nil
			}
			limited = true
		}

		for i := start; i < end; i++ {
			u := &uops[i]
			switch u.op {
			case isa.NOP, uopGoto:
			case uopCall:
				m.regs[isa.LR] = u.pc + isa.InstrSize
			case isa.MOVZ:
				m.setr(u.rd, u.imm)
			case isa.MOV:
				m.setr(u.rd, m.regs[u.rn])
			case isa.ADD:
				m.setr(u.rd, m.regs[u.rn]+m.regs[u.rm])
			case isa.ADDI:
				m.setr(u.rd, m.regs[u.rn]+u.imm)
			case isa.SUB:
				m.setr(u.rd, m.regs[u.rn]-m.regs[u.rm])
			case isa.SUBI:
				m.setr(u.rd, m.regs[u.rn]-u.imm)
			case isa.EOR:
				m.setr(u.rd, m.regs[u.rn]^m.regs[u.rm])
			case isa.AND:
				m.setr(u.rd, m.regs[u.rn]&m.regs[u.rm])
			case isa.ORR:
				m.setr(u.rd, m.regs[u.rn]|m.regs[u.rm])
			case isa.LSLI:
				m.setr(u.rd, m.regs[u.rn]<<u.imm)
			case isa.LSRI:
				m.setr(u.rd, m.regs[u.rn]>>u.imm)
			case isa.MUL:
				m.setr(u.rd, m.regs[u.rn]*m.regs[u.rm])

			case isa.LDR:
				v, err := m.Mem.Read64(m.regs[u.rn] + u.imm)
				if err != nil {
					return fail(i, err)
				}
				m.setr(u.rd, v)
			case isa.LDRPOST:
				addr := m.regs[u.rn]
				v, err := m.Mem.Read64(addr)
				if err != nil {
					return fail(i, err)
				}
				m.setr(u.rd, v)
				m.setr(u.rn, addr+u.imm)
			case isa.STR:
				if err := m.Mem.Write64(m.regs[u.rn]+u.imm, m.regs[u.rd]); err != nil {
					return fail(i, err)
				}
			case isa.STRPRE:
				addr := m.regs[u.rn] + u.imm
				if err := m.Mem.Write64(addr, m.regs[u.rd]); err != nil {
					return fail(i, err)
				}
				m.setr(u.rn, addr)
			case isa.LDP:
				bse := m.regs[u.rn] + u.imm
				v1, err := m.Mem.Read64(bse)
				if err != nil {
					return fail(i, err)
				}
				v2, err := m.Mem.Read64(bse + 8)
				if err != nil {
					return fail(i, err)
				}
				m.setr(u.rd, v1)
				m.setr(u.rm, v2)
			case isa.LDPPOST:
				bse := m.regs[u.rn]
				v1, err := m.Mem.Read64(bse)
				if err != nil {
					return fail(i, err)
				}
				v2, err := m.Mem.Read64(bse + 8)
				if err != nil {
					return fail(i, err)
				}
				m.setr(u.rd, v1)
				m.setr(u.rm, v2)
				m.setr(u.rn, bse+u.imm)
			case isa.STP:
				bse := m.regs[u.rn] + u.imm
				if err := m.Mem.Write64(bse, m.regs[u.rd]); err != nil {
					return fail(i, err)
				}
				if err := m.Mem.Write64(bse+8, m.regs[u.rm]); err != nil {
					return fail(i, err)
				}
			case isa.STPPRE:
				bse := m.regs[u.rn] + u.imm
				if err := m.Mem.Write64(bse, m.regs[u.rd]); err != nil {
					return fail(i, err)
				}
				if err := m.Mem.Write64(bse+8, m.regs[u.rm]); err != nil {
					return fail(i, err)
				}
				m.setr(u.rn, bse)

			case isa.B:
				if u.target == b.entry {
					if loopback(i) {
						start = 0
						continue outer
					}
					return done, nil
				}
				return commit(i, u.target), nil
			case isa.BL:
				m.regs[isa.LR] = u.pc + isa.InstrSize
				return commit(i, u.target), nil
			case isa.BR:
				t := m.regs[u.rn]
				if err := m.checkTarget(t); err != nil {
					return fail(i, err)
				}
				return commit(i, t), nil
			case isa.BLR:
				t := m.regs[u.rn]
				if m.CallCFI != nil {
					if err := m.CallCFI(t); err != nil {
						return fail(i, err)
					}
				}
				if err := m.checkTarget(t); err != nil {
					return fail(i, err)
				}
				m.regs[isa.LR] = u.pc + isa.InstrSize
				return commit(i, t), nil
			case isa.RET:
				t := m.regs[u.rn]
				if m.RetCFI != nil {
					if err := m.RetCFI(u.pc, t); err != nil {
						return fail(i, err)
					}
				}
				if err := m.checkTarget(t); err != nil {
					return fail(i, err)
				}
				return commit(i, t), nil
			case isa.RETAA:
				t, _ := auth.Auth(pa.KeyIA, m.regs[isa.LR], m.regs[isa.SP])
				if err := m.checkTarget(t); err != nil {
					return fail(i, err)
				}
				return commit(i, t), nil

			case isa.BCND:
				if m.condHolds(u.cond) {
					if u.target == b.entry {
						if loopback(i) {
							start = 0
							continue outer
						}
						return done, nil
					}
					return commit(i, u.target), nil
				}
			case isa.CBZ:
				if m.regs[u.rn] == 0 {
					if u.target == b.entry {
						if loopback(i) {
							start = 0
							continue outer
						}
						return done, nil
					}
					return commit(i, u.target), nil
				}
			case isa.CBNZ:
				if m.regs[u.rn] != 0 {
					if u.target == b.entry {
						if loopback(i) {
							start = 0
							continue outer
						}
						return done, nil
					}
					return commit(i, u.target), nil
				}

			case isa.CMP:
				m.setFlagsSub(m.regs[u.rn], m.regs[u.rm])
			case isa.CMPI:
				m.setFlagsSub(m.regs[u.rn], u.imm)

			case isa.PACIA:
				m.setr(u.rd, auth.AddPAC(pa.KeyIA, m.regs[u.rd], m.regs[u.rn]))
			case isa.PACIB:
				m.setr(u.rd, auth.AddPAC(pa.KeyIB, m.regs[u.rd], m.regs[u.rn]))
			case isa.AUTIA:
				v, _ := auth.Auth(pa.KeyIA, m.regs[u.rd], m.regs[u.rn])
				m.setr(u.rd, v)
			case isa.AUTIB:
				v, _ := auth.Auth(pa.KeyIB, m.regs[u.rd], m.regs[u.rn])
				m.setr(u.rd, v)
			case isa.PACIASP:
				m.regs[isa.LR] = auth.AddPAC(pa.KeyIA, m.regs[isa.LR], m.regs[isa.SP])
			case isa.AUTIASP:
				v, _ := auth.Auth(pa.KeyIA, m.regs[isa.LR], m.regs[isa.SP])
				m.regs[isa.LR] = v
			case isa.PACGA:
				m.setr(u.rd, auth.PACGA(m.regs[u.rn], m.regs[u.rm]))
			case isa.XPACI:
				m.setr(u.rd, auth.StripPAC(m.regs[u.rd]))
			case uopPACPair:
				v1, v2 := auth.AddPACPair(pa.KeyID(u.aux), m.regs[u.rd], m.regs[u.rm], m.regs[u.rn])
				m.setr(u.rd, v1)
				m.setr(u.rm, v2)

			case isa.HLT:
				m.Halted = true
				return commit(i, u.pc+isa.InstrSize), nil
			}
		}

		if limited {
			// Budget stop at a micro-op boundary: park a resume point so
			// the next quantum re-enters the block without a dispatch.
			delta := uint64(uops[end-1].icnt) - baseI
			m.Cycles += uops[end-1].cum - base
			m.Instrs += delta
			m.PC = uops[end].pc
			m.resumeB, m.resumeIdx = b, end
			return done + delta, nil
		}
		return commit(end-1, b.next), nil
	}
}

// setr writes a register, discarding XZR writes like SetReg. The XZR
// slot of m.regs is kept zero (SetRegs forces it), so reads go
// straight to the array.
func (m *Machine) setr(r uint8, v uint64) {
	if r != uint8(isa.XZR) {
		m.regs[r] = v
	}
}
