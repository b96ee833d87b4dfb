package kernel

import (
	"errors"
	"fmt"

	"pacstack/internal/cpu"
	"pacstack/internal/isa"
	"pacstack/internal/mem"
	"pacstack/internal/pa"
)

// Checkpoint is the full machine state of one process in exportable
// form: every mapped page with its protections, every task's register
// file (including the reserved PACStack chain register CR — it is just
// X28 in the register array), the kernel-held PA key material, the
// kernel-side process metadata, and the pending post-mortem. It is
// what the snapshot codec (internal/snap) serializes.
//
// Checkpointing is a kernel (EL1) operation: the keys cross the
// user/kernel boundary here exactly as they would in a hibernation
// image, which is why snapshot storage integrity is itself part of
// the trusted computing base — a torn or tampered image must never
// restore silently (internal/snap's whole reason to exist).
//
// Deliberately not captured: forked children (each process checkpoints
// independently), and the CFI / syscall / fault-injection hooks, which
// are re-installed by booting the restoring process from its image.
type Checkpoint struct {
	PID     int
	NextPID int
	NextTID int

	Keys   pa.Keys
	Config pa.Config

	Output   []byte
	Exited   bool
	ExitCode uint64

	HardenedSigreturn  bool
	FullFrameSigreturn bool

	Kill *KillCheckpoint

	Tasks []TaskCheckpoint
	Pages []mem.PageState
}

// TaskCheckpoint is one task's saved state: the machine's
// architectural state plus the kernel task-struct fields (scheduler
// Done bit, the Appendix B sigreturn reference chain).
type TaskCheckpoint struct {
	ID      int
	M       cpu.State
	Done    bool
	SigRefs []uint64
}

// KillCheckpoint is a serializable post-mortem. The cause error chain
// cannot cross a serialization boundary, so only its rendering
// survives; a restored Kill therefore supports String() and display
// but not errors.As on the original typed cause.
type KillCheckpoint struct {
	TaskID int
	PC     uint64
	Symbol string
	Cause  string
}

// Checkpoint captures the process's full machine state. The process
// must be between instructions (not inside Step), which every caller
// — supervisors between run slices, the crash-matrix harness — is.
//
// The page data is not copied: each of the checkpoint's Pages aliases
// the live page, so the checkpoint is valid only until the process
// next runs or its memory is otherwise written. Every caller hands it
// straight to the snapshot codec (snap.Encode), which reads each page
// once; anything that keeps a checkpoint longer must encode it or copy
// the pages first.
func (p *Process) Checkpoint() *Checkpoint {
	cp := &Checkpoint{
		PID:                p.PID,
		NextPID:            *p.nextPID,
		NextTID:            p.nextTID,
		Keys:               p.keys,
		Config:             p.k.cfg,
		Output:             append([]byte(nil), p.Output...),
		Exited:             p.Exited,
		ExitCode:           p.ExitCode,
		HardenedSigreturn:  p.HardenedSigreturn,
		FullFrameSigreturn: p.FullFrameSigreturn,
		Pages:              p.Mem.Pages(),
	}
	if p.Kill != nil {
		cp.Kill = &KillCheckpoint{
			TaskID: p.Kill.TaskID,
			PC:     p.Kill.PC,
			Symbol: p.Kill.Symbol,
			Cause:  fmt.Sprint(p.Kill.Cause),
		}
	}
	for _, t := range p.Tasks {
		cp.Tasks = append(cp.Tasks, TaskCheckpoint{
			ID:      t.ID,
			M:       t.M.CaptureState(),
			Done:    t.Done,
			SigRefs: append([]uint64(nil), t.sigRefs...),
		})
	}
	return cp
}

// ReseedKeys draws fresh PA keys for the process in place, without
// touching its address space, tasks or program — the migration-time
// analogue of the exec respawn's key refresh (Section 4.3). Every PAC
// sealed under the old keys is worthless afterwards, so callers must
// only reseed chain-neutral state: a process that has never executed
// (a boot-state snapshot) or one quiesced with an empty auth chain.
// The cluster migration protocol depends on exactly this — a machine
// restored on a new backend must not share keys with its dead
// incarnation, or a snapshot theft would carry the old backend's
// guessing-game progress across the failover.
func (p *Process) ReseedKeys() {
	p.keys = p.k.genKeys()
	p.Auth = pa.New(p.keys, p.k.cfg)
	if p.k.tel != nil {
		p.Auth.SetTrace(p.k.tel.Chain)
	}
	for _, t := range p.Tasks {
		t.M.Auth = p.Auth
	}
}

// HasKeys reports whether p holds exactly the key set ks. This is the
// exact §4.3 freshness check. A probe that seals one pointer under one
// key set and authenticates it under the other would also pass for two
// distinct key sets once in 2^(PAC bits).
func (p *Process) HasKeys(ks pa.Keys) bool { return p.keys == ks }

// SharesKeys reports whether p and q hold the same key set.
func (p *Process) SharesKeys(q *Process) bool { return p.HasKeys(q.keys) }

// Restore overwrites the process's state with the checkpoint. The
// receiver must be a freshly booted process from the same program
// image: Restore replaces the address space, key material and task
// set wholesale, but keeps the program, the syscall binding and the
// CFI hooks the boot installed (they are image-derived, not state).
//
// The restored process resumes mid-run: its tasks continue from their
// saved PCs with their saved chain registers, and every authenticated
// pointer in the restored memory verifies again because the keys came
// back with it — the property the warm-restore respawn path depends
// on.
func (p *Process) Restore(cp *Checkpoint) error {
	if len(cp.Tasks) == 0 {
		return errors.New("kernel: checkpoint has no tasks")
	}
	if cp.Config != p.k.cfg {
		return fmt.Errorf("kernel: checkpoint PA config %+v does not match kernel %+v", cp.Config, p.k.cfg)
	}
	m, err := mem.FromPages(cp.Pages)
	if err != nil {
		return fmt.Errorf("kernel: restoring address space: %w", err)
	}
	p.PID = cp.PID
	*p.nextPID = cp.NextPID
	p.Mem = m
	p.keys = cp.Keys
	p.Auth = pa.New(cp.Keys, p.k.cfg)
	p.Output = append([]byte(nil), cp.Output...)
	p.Exited = cp.Exited
	p.ExitCode = cp.ExitCode
	p.HardenedSigreturn = cp.HardenedSigreturn
	p.FullFrameSigreturn = cp.FullFrameSigreturn
	p.Kill = nil
	if cp.Kill != nil {
		p.Kill = &KillInfo{
			TaskID: cp.Kill.TaskID,
			PC:     cp.Kill.PC,
			Symbol: cp.Kill.Symbol,
			Cause:  errors.New(cp.Kill.Cause),
		}
	}
	p.Tasks = nil
	p.nextTID = 0
	for _, tc := range cp.Tasks {
		t := p.spawn(tc.M.PC, tc.M.Regs[isa.SP]) // spawn installs the syscall/CFI closures
		t.ID = tc.ID
		t.M.RestoreState(tc.M)
		t.Done = tc.Done
		t.sigRefs = append([]uint64(nil), tc.SigRefs...)
	}
	p.nextTID = cp.NextTID
	return nil
}
