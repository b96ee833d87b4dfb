// Live-traffic injection: the exported surface the serving layer
// (internal/serve) uses to wire fault campaigns into individual
// requests. A campaign (Engine.Run) owns its whole victim lifecycle;
// live traffic inverts that — the server boots and runs the victim,
// and borrows the engine's injector, golden runs and classification
// one request at a time.

package fault

import (
	"fmt"
	"math/rand"

	"pacstack/internal/compile"
	"pacstack/internal/kernel"
)

// Image returns the engine's cached compiled image for the scheme,
// compiling it on first use. Safe for concurrent use.
func (e *Engine) Image(s compile.Scheme) (*compile.Image, error) {
	return e.image(s)
}

// Harden applies the scheme-appropriate Appendix B sigreturn hardening
// to a freshly booted process: the full-frame chain for masked
// PACStack, the PC/CR chain for the unmasked variant, nothing for
// schemes without PA kernel support. The serving layer passes this as
// the supervisor's Configure hook; Engine.boot uses it for campaigns.
func Harden(s compile.Scheme, p *kernel.Process) {
	switch s {
	case compile.SchemePACStack:
		p.FullFrameSigreturn = true
	case compile.SchemePACStackNoMask:
		p.HardenedSigreturn = true
	}
}

// Injection describes one single-shot corruption to arm on a live
// process: the campaign shape and the retired-instruction index at
// which it fires.
type Injection struct {
	Kind Kind
	// At is the retired-instruction index of the initial task at which
	// the corruption lands (between instructions, like a concurrent
	// attacker's write).
	At uint64
}

// Arm installs inj on proc's initial task. proc must have been booted
// from this engine's image for scheme s (the injector needs the layout
// and symbol tables to pick targets). rng supplies the corruption
// draws when the fault fires; a seeded rng makes the injection — and
// therefore the request outcome — deterministic. Safe for concurrent
// use across distinct processes.
func (e *Engine) Arm(proc *kernel.Process, s compile.Scheme, inj Injection, rng *rand.Rand) error {
	img, err := e.image(s)
	if err != nil {
		return err
	}
	if len(proc.Tasks) == 0 {
		return fmt.Errorf("fault: cannot arm injection on a process with no tasks")
	}
	in := &injector{
		engine: e, img: img, proc: proc, task: proc.Tasks[0],
		kind: inj.Kind, at: inj.At, rng: rng,
	}
	in.arm()
	return nil
}

// ClassifyRun maps one finished live run onto the campaign taxonomy
// against the scheme's cached golden reference: Detected (killed, with
// the typed cause), Benign (identical output and exit code), or Silent
// (diverged without a kill — the outcome the serving layer must never
// see from PACStack under return-address corruption).
func (e *Engine) ClassifyRun(s compile.Scheme, runErr error, proc *kernel.Process) (Outcome, Cause, error) {
	g, err := e.goldenRun(s)
	if err != nil {
		return 0, 0, err
	}
	o, c := classify(runErr, proc, g)
	return o, c, nil
}
