package kernel

import (
	"errors"

	"pacstack/internal/cpu"
	"pacstack/internal/mem"
	"pacstack/internal/pa"
	"pacstack/internal/telemetry"
)

// Telemetry is the kernel's instrumentation bundle: pre-resolved
// registry handles shared by every process the kernel boots. All
// fields are optional; a nil *Telemetry on the kernel (the default)
// costs one predictable branch per hook site. Wire it once at setup
// with Kernel.SetTelemetry — the serving layer attaches one bundle
// per scheme so kill classes and chain events carry a scheme label.
type Telemetry struct {
	// Quanta counts scheduler quanta dispatched; Instrs counts
	// instructions retired across all Run/RunCtx calls.
	Quanta *telemetry.Counter
	Instrs *telemetry.Counter
	// Cancels counts RunCtx returns forced by an expired context —
	// deadlines and shutdowns, not faults.
	Cancels *telemetry.Counter
	// Kills is labeled by kill class: auth, cfi, sigreturn, segfault,
	// watchdog, other — mirroring the fault-classifier taxonomy
	// without importing it (internal/fault imports this package).
	Kills *telemetry.CounterVec
	// Signals counts frames delivered; SigframeBinds counts Appendix B
	// chain bindings recorded for them.
	Signals       *telemetry.Counter
	SigframeBinds *telemetry.Counter
	// Spawns counts task creations via SysSpawn — under ACS schemes
	// each one re-seeds the chain register (Section 4.3).
	Spawns *telemetry.Counter
	// Chain, when non-nil, is attached to every Authenticator the
	// kernel builds (NewProcess, Exec, Restore and ReseedKeys), so
	// pac/aut/mask traffic lands in the registry.
	Chain *pa.Trace
	// Events receives kill / sigframe-bind / reseed events.
	Events *telemetry.EventLog
}

// SetTelemetry wires the kernel's instrumentation bundle (nil
// detaches it). Call before booting processes; processes created
// earlier keep whatever trace they were born with.
func (k *Kernel) SetTelemetry(t *Telemetry) { k.tel = t }

// Telemetry returns the wired bundle, nil when disabled.
func (k *Kernel) Telemetry() *Telemetry { return k.tel }

// KillClass maps a kill cause onto the telemetry label taxonomy. It
// mirrors internal/fault's causeOf — kept in sync by a test there —
// because fault imports kernel and the arrow cannot point back.
func KillClass(err error) string {
	var tf *cpu.TranslationFault
	if errors.As(err, &tf) {
		return "auth"
	}
	var cf *cpu.CFIViolation
	if errors.As(err, &cf) {
		return "cfi"
	}
	if errors.Is(err, ErrProcessKilled) {
		return "sigreturn"
	}
	var mf *mem.Fault
	if errors.As(err, &mf) {
		return "segfault"
	}
	if errors.Is(err, cpu.ErrStepLimit) {
		return "watchdog"
	}
	return "other"
}

// killRecorded files the kill into the telemetry bundle; the
// post-mortem itself is already on the process.
func (t *Telemetry) killRecorded(ki *KillInfo) {
	if t == nil {
		return
	}
	class := KillClass(ki.Cause)
	t.Kills.With(class).Inc()
	t.Events.Record(telemetry.EvKill, class, ki.Symbol, ki.PC)
}
