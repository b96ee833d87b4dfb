// Package fault is a seeded, fully deterministic fault-injection
// engine: it mounts corruption campaigns against compiled programs
// under every protection scheme and classifies what each scheme
// actually catches.
//
// The paper's security argument is a robustness claim — an adversary
// (or a fault) that corrupts a stored return address must not go
// unnoticed: the chain auth_i = H_k(ret_i, aret_{i-1}) is supposed to
// turn corruption into a kill with all but probability ~2^-b. The
// hand-written attacks in internal/attack probe specific strategies;
// this package measures the complementary quantity: over *arbitrary*
// corruption of a chosen shape, what fraction is detected, what
// fraction is harmlessly absorbed, and — the number the paper drives
// toward zero — what fraction silently changes program behaviour.
//
// Every campaign is deterministic: one seed fixes the PA keys, the
// canary, the injection points and the corruption values of every
// trial, so identical (seed, config) runs give byte-identical reports.
// Faults fire through the cpu.Machine PreStep hook at chosen retired-
// instruction indices, between instructions, exactly as a hardware
// fault or a concurrent attacker's write would land.
package fault

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"sort"
	"strings"
	"sync"

	"pacstack/internal/compile"
	"pacstack/internal/cpu"
	"pacstack/internal/ir"
	"pacstack/internal/isa"
	"pacstack/internal/kernel"
	"pacstack/internal/mem"
	"pacstack/internal/pa"
	"pacstack/internal/par"
)

// Kind selects the corruption shape of a campaign.
type Kind int

// The campaign shapes.
const (
	// KindBitFlip flips one random bit of one random word in the
	// writable address space (stack, globals, shadow stack) — the
	// memory-error model. Code pages are exempt: assumption A1 (W⊕X)
	// protects executable memory in the paper's model.
	KindBitFlip Kind = iota
	// KindRetAddr overwrites the live stored return address of the
	// current activation — wherever the scheme keeps it: the frame
	// record for the baseline and canary schemes, the signed frame
	// record under -mbranch-protection, the shadow-stack slot under
	// ShadowCallStack, the spilled aret under PACStack — with the
	// address of some function in the image (the jump-a-fault-buys-
	// you model).
	KindRetAddr
	// KindStackSmash overwrites a run of consecutive words upward
	// from SP with a recognizable pattern — the linear buffer
	// overflow: locals, canary slot, spilled CR and the frame record
	// all in its path.
	KindStackSmash
	// KindRegister flips one bit of one saved register at a context-
	// switch boundary, modelling corruption of the register file
	// while it sits saved in the kernel task struct between quanta.
	KindRegister
	// KindSigFrame delivers a signal at the chosen instant and
	// tampers with the signal frame on the user stack before the
	// handler returns — the sigreturn surface of Section 6.3.2 that
	// Appendix B hardens.
	KindSigFrame

	NumKinds int = iota
)

// String names the campaign kind.
func (k Kind) String() string {
	switch k {
	case KindBitFlip:
		return "memory bit-flip"
	case KindRetAddr:
		return "return-address overwrite"
	case KindStackSmash:
		return "stack-frame smash"
	case KindRegister:
		return "register corruption"
	case KindSigFrame:
		return "signal-frame tamper"
	}
	return fmt.Sprintf("Kind(%d)", int(k))
}

// Outcome classifies one fault-injection run.
type Outcome int

// The three classes of the detection-coverage metric.
const (
	// OutcomeDetected: the run was killed — authentication or CFI
	// fault, segfault, canary abort, sigreturn validation, or the
	// instruction-budget watchdog.
	OutcomeDetected Outcome = iota
	// OutcomeBenign: the run terminated with output and exit code
	// identical to the golden run; the corruption hit dead state.
	OutcomeBenign
	// OutcomeSilent: the run terminated without any kill but with
	// diverging output or exit code — undetected corruption, the
	// quantity PACStack claims to drive to ~2^-b.
	OutcomeSilent
)

// String names the outcome.
func (o Outcome) String() string {
	switch o {
	case OutcomeDetected:
		return "detected"
	case OutcomeBenign:
		return "benign"
	case OutcomeSilent:
		return "silent corruption"
	}
	return fmt.Sprintf("Outcome(%d)", int(o))
}

// Cause refines OutcomeDetected with what pulled the trigger, read
// from the structured kernel.KillInfo post-mortem rather than error
// strings.
type Cause int

// Detection causes.
const (
	CauseNone      Cause = iota // not detected
	CauseAuth                   // PAC authentication failure (translation fault on a poisoned pointer)
	CauseSegfault               // memory access or fetch fault
	CauseCFI                    // forward- or return-edge CFI hook
	CauseCanary                 // __stack_chk_fail abort (exit 134)
	CauseSigreturn              // kernel sigreturn validation (Appendix B)
	CauseWatchdog               // instruction-budget watchdog expiry
	CauseOther                  // any other kill
	NumCauses      int   = iota
)

// String names the cause.
func (c Cause) String() string {
	switch c {
	case CauseNone:
		return "none"
	case CauseAuth:
		return "auth"
	case CauseSegfault:
		return "segfault"
	case CauseCFI:
		return "cfi"
	case CauseCanary:
		return "canary"
	case CauseSigreturn:
		return "sigreturn"
	case CauseWatchdog:
		return "watchdog"
	case CauseOther:
		return "other"
	}
	return fmt.Sprintf("Cause(%d)", int(c))
}

// Campaign configures one corruption campaign.
type Campaign struct {
	Kind   Kind
	Trials int
	// Seed fixes everything random in the campaign: per-trial PA
	// keys and canary, injection indices, corruption values.
	Seed int64
	// Budget is the per-run instruction watchdog; 0 derives it from
	// the golden run (4x its length).
	Budget uint64
}

// Report is the classified result of one (scheme, campaign) pair.
type Report struct {
	Scheme   compile.Scheme
	Kind     Kind
	Trials   int
	Detected int
	Benign   int
	Silent   int
	// ByCause breaks Detected down by trigger, indexed by Cause.
	ByCause [NumCauses]int
	// Posted holds one sample post-mortem per cause, as the
	// supervisor would log it.
	Posted map[Cause]string
}

// SilentRate is the fraction of trials with undetected divergence.
func (r Report) SilentRate() float64 {
	if r.Trials == 0 {
		return 0
	}
	return float64(r.Silent) / float64(r.Trials)
}

// golden is the reference run of one scheme.
type golden struct {
	output   []byte
	exitCode uint64
	instrs   uint64
}

// Engine runs campaigns for one program. Images and golden runs are
// compiled and measured once per scheme and reused across campaigns.
// The caches are mutex-guarded so campaigns for different schemes can
// run concurrently (RunAll fans them out over the par worker pool).
type Engine struct {
	Prog   *ir.Program
	Layout compile.Layout
	Config pa.Config

	mu      sync.Mutex
	images  map[compile.Scheme]*compile.Image
	goldens map[compile.Scheme]*golden
}

// NewEngine returns an engine for prog under the default layout and
// PA configuration.
func NewEngine(prog *ir.Program) *Engine {
	return &Engine{
		Prog:    prog,
		Layout:  compile.DefaultLayout(),
		Config:  pa.DefaultConfig(),
		images:  make(map[compile.Scheme]*compile.Image),
		goldens: make(map[compile.Scheme]*golden),
	}
}

// DefaultProgram is the standard campaign target: a call tree several
// frames deep with locals (so the stack protector engages), an
// indirect call (so forward-edge CFI engages), loops, and enough
// output that silent divergence is observable.
func DefaultProgram() *ir.Program {
	return &ir.Program{Entry: "main", Functions: []*ir.Function{
		{Name: "main", Locals: 2, Body: []ir.Op{
			ir.Write{Byte: '<'},
			ir.StoreLocal{Slot: 0, Value: 17},
			ir.Loop{Count: 6, Body: []ir.Op{
				ir.Call{Target: "work"},
				ir.CallPtr{Target: "helper"},
			}},
			ir.LoadLocal{Slot: 0},
			ir.Write{Byte: '>'},
		}},
		{Name: "work", Locals: 1, Body: []ir.Op{
			ir.StoreLocal{Slot: 0, Value: 7},
			ir.Compute{Units: 5},
			ir.Call{Target: "inner"},
			ir.LoadLocal{Slot: 0},
			ir.Write{Byte: 'w'},
		}},
		{Name: "inner", Locals: 1, Body: []ir.Op{
			ir.Compute{Units: 3},
			ir.Call{Target: "leaf"},
			ir.Write{Byte: 'i'},
		}},
		{Name: "helper", Body: []ir.Op{
			ir.Compute{Units: 2},
			ir.Call{Target: "leaf"},
			ir.Write{Byte: 'h'},
		}},
		{Name: "leaf", Body: []ir.Op{ir.Compute{Units: 2}}},
	}}
}

func (e *Engine) image(s compile.Scheme) (*compile.Image, error) {
	e.mu.Lock()
	defer e.mu.Unlock()
	if img, ok := e.images[s]; ok {
		return img, nil
	}
	img, err := compile.Compile(e.Prog, s, e.Layout)
	if err != nil {
		return nil, err
	}
	e.images[s] = img
	return img, nil
}

// boot starts one deterministic process for the scheme: the kernel
// entropy (keys, canary) comes from kernelSeed, and the Appendix B
// sigreturn hardening matches the scheme — the full-frame chain for
// masked PACStack, the PC/CR chain for the unmasked variant, nothing
// for schemes without PA kernel support.
func (e *Engine) boot(img *compile.Image, kernelSeed int64) (*kernel.Process, error) {
	k := kernel.New(e.Config)
	k.Seed(kernelSeed)
	proc, err := img.Boot(k)
	if err != nil {
		return nil, err
	}
	Harden(img.Scheme, proc)
	return proc, nil
}

// Golden runs the scheme once without faults and caches the result.
func (e *Engine) Golden(s compile.Scheme) (output []byte, exitCode, instrs uint64, err error) {
	g, err := e.goldenRun(s)
	if err != nil {
		return nil, 0, 0, err
	}
	return g.output, g.exitCode, g.instrs, nil
}

func (e *Engine) goldenRun(s compile.Scheme) (*golden, error) {
	e.mu.Lock()
	g, ok := e.goldens[s]
	e.mu.Unlock()
	if ok {
		return g, nil
	}
	img, err := e.image(s)
	if err != nil {
		return nil, err
	}
	proc, err := e.boot(img, 0)
	if err != nil {
		return nil, err
	}
	if err := proc.Run(50_000_000); err != nil {
		return nil, fmt.Errorf("fault: golden run of %v failed: %w", s, err)
	}
	g = &golden{
		output:   append([]byte(nil), proc.Output...),
		exitCode: proc.ExitCode,
		instrs:   proc.Tasks[0].M.Instrs,
	}
	// A concurrent caller may have raced the computation; both results
	// are identical (the golden run is seeded), so last-store wins.
	e.mu.Lock()
	e.goldens[s] = g
	e.mu.Unlock()
	return g, nil
}

// Run executes one campaign against one scheme.
func (e *Engine) Run(s compile.Scheme, c Campaign) (Report, error) {
	img, err := e.image(s)
	if err != nil {
		return Report{}, err
	}
	g, err := e.goldenRun(s)
	if err != nil {
		return Report{}, err
	}
	budget := c.Budget
	if budget == 0 {
		budget = 4*g.instrs + 10_000
	}
	// One rng drives the whole campaign; every draw below is in a
	// fixed order, so the trial sequence is a pure function of
	// (scheme, campaign).
	rng := rand.New(rand.NewSource(c.Seed ^ int64(s)<<20 ^ int64(c.Kind)<<28))

	rep := Report{Scheme: s, Kind: c.Kind, Trials: c.Trials, Posted: make(map[Cause]string)}
	for t := 0; t < c.Trials; t++ {
		kernelSeed := rng.Int63()
		idx := uint64(rng.Int63n(int64(g.instrs)))
		if c.Kind == KindRegister {
			// Saved-state corruption happens while the registers sit
			// in the kernel task struct: align to a context-switch
			// boundary.
			idx -= idx % kernel.Quantum
			if idx == 0 {
				idx = kernel.Quantum
			}
		}
		proc, err := e.boot(img, kernelSeed)
		if err != nil {
			return rep, err
		}
		inj := &injector{
			engine: e, img: img, proc: proc, task: proc.Tasks[0],
			kind: c.Kind, at: idx, rng: rng,
		}
		inj.arm()
		runErr := proc.Run(budget)
		outcome, cause := classify(runErr, proc, g)
		switch outcome {
		case OutcomeDetected:
			rep.Detected++
			rep.ByCause[cause]++
			if _, ok := rep.Posted[cause]; !ok && proc.Kill != nil {
				rep.Posted[cause] = proc.Kill.String()
			}
		case OutcomeBenign:
			rep.Benign++
		case OutcomeSilent:
			rep.Silent++
		}
	}
	return rep, nil
}

// RunAll executes the campaign against every scheme. Each scheme's
// trial stream is a pure function of (scheme, campaign) — the rng is
// derived from the campaign seed and the scheme — so schemes fan out
// over the par worker pool and reports merge in input order, byte-
// identical to a serial sweep.
func (e *Engine) RunAll(schemes []compile.Scheme, c Campaign) ([]Report, error) {
	out := make([]Report, len(schemes))
	err := par.ForEachErr(len(schemes), func(i int) error {
		r, err := e.Run(schemes[i], c)
		out[i] = r
		return err
	})
	if err != nil {
		return nil, err
	}
	return out, nil
}

// classify maps one finished run onto the detection taxonomy.
func classify(runErr error, proc *kernel.Process, g *golden) (Outcome, Cause) {
	if runErr != nil {
		if errors.Is(runErr, cpu.ErrStepLimit) {
			return OutcomeDetected, CauseWatchdog
		}
		return OutcomeDetected, causeOf(runErr)
	}
	if proc.ExitCode == 134 && g.exitCode != 134 {
		// __stack_chk_fail aborts via exit(134): a clean exit to the
		// kernel, but a detection all the same.
		return OutcomeDetected, CauseCanary
	}
	if bytes.Equal(proc.Output, g.output) && proc.ExitCode == g.exitCode {
		return OutcomeBenign, CauseNone
	}
	return OutcomeSilent, CauseNone
}

// causeOf reads the error chain the way the supervisor reads a
// KillInfo: typed, no string matching.
func causeOf(err error) Cause {
	var tf *cpu.TranslationFault
	if errors.As(err, &tf) {
		return CauseAuth
	}
	var cf *cpu.CFIViolation
	if errors.As(err, &cf) {
		return CauseCFI
	}
	if errors.Is(err, kernel.ErrProcessKilled) {
		return CauseSigreturn
	}
	var mf *mem.Fault
	if errors.As(err, &mf) {
		return CauseSegfault
	}
	return CauseOther
}

// smashWords is how many stack words a KindStackSmash overwrites,
// upward from SP.
const smashWords = 8

// injector holds one trial's armed corruption.
type injector struct {
	engine *Engine
	img    *compile.Image
	proc   *kernel.Process
	task   *kernel.Task
	kind   Kind
	at     uint64
	rng    *rand.Rand

	fired bool
}

// arm installs the PreStep hook on the victim task. Corruption
// parameters are drawn when the fault fires, from the campaign rng —
// the draw order is deterministic because the hook fires exactly once
// at a deterministic instruction index.
func (inj *injector) arm() {
	inj.task.M.PreStep = func(m *cpu.Machine) error {
		if inj.fired || m.Instrs < inj.at {
			return nil
		}
		inj.fired = true
		return inj.inject(m)
	}
}

func (inj *injector) inject(m *cpu.Machine) error {
	adv := mem.NewAdversary(inj.proc.Mem)
	switch inj.kind {
	case KindBitFlip:
		addr := inj.pickDataWord(m)
		v, err := adv.Peek(addr)
		if err != nil {
			return nil // unmapped corner: fault absorbed
		}
		_ = adv.Poke(addr, v^(1<<uint(inj.rng.Intn(64))))

	case KindRetAddr:
		slot, ok := inj.retSlot(m)
		target := inj.plantTarget()
		if ok {
			_ = adv.Poke(slot, target)
		}

	case KindStackSmash:
		top := inj.img.Layout.StackTop()
		sp := m.Reg(isa.SP)
		for i := 0; i < smashWords; i++ {
			addr := sp + uint64(8*i)
			if addr >= top {
				break
			}
			_ = adv.Poke(addr, 0x4141414141414141)
		}

	case KindRegister:
		// Corrupt one register of the saved context — the state that
		// sits in the kernel task struct across the switch: scratch
		// and accumulator registers the compiler uses, the frame and
		// link registers, and the special per-scheme state (CR, SCS).
		// X19/X20 are dead under every scheme and act as controls.
		candidates := []isa.Reg{
			isa.X0, isa.X9, isa.X10, isa.X19, isa.X20,
			isa.CR, isa.SCS, isa.FP, isa.LR, isa.SP,
		}
		r := candidates[inj.rng.Intn(len(candidates))]
		m.SetReg(r, m.Reg(r)^(1<<uint(inj.rng.Intn(64))))

	case KindSigFrame:
		handler := inj.img.FuncEntries["__sig_handler"]
		tramp := inj.img.FuncEntries["__sigreturn"]
		if err := inj.proc.DeliverSignal(inj.task, 7, handler, tramp); err != nil {
			return err // frame did not fit: the kernel killed us
		}
		base := m.Reg(isa.SP) // frame base after delivery
		word := inj.rng.Intn(3 + 32)
		addr := base + uint64(8*word)
		if word == 0 {
			// SROP: redirect the saved PC wholesale.
			_ = adv.Poke(addr, inj.plantTarget())
		} else if v, err := adv.Peek(addr); err == nil {
			_ = adv.Poke(addr, v^(1<<uint(inj.rng.Intn(64))))
		}
	}
	return nil
}

// pickDataWord chooses a word-aligned address among the *live*
// writable words: the in-use stack between SP and the stack top, the
// globals the runtime actually initialises (canary, jmp_bufs), and
// the occupied prefix of the shadow stack. Sampling the whole mapped
// address space would mostly hit dead memory and tell us nothing.
func (inj *injector) pickDataWord(m *cpu.Machine) uint64 {
	l := inj.img.Layout
	sp := m.Reg(isa.SP)
	if sp < l.StackBase || sp >= l.StackTop() {
		sp = l.StackTop() - 8
	}
	regions := [][2]uint64{
		{sp, l.StackTop() - sp},
		{l.GlobalsBase, 0x100},
	}
	if scs := m.Reg(isa.SCS); scs > l.ShadowBase && scs <= l.ShadowBase+l.ShadowSize {
		regions = append(regions, [2]uint64{l.ShadowBase, scs - l.ShadowBase})
	}
	var total uint64
	for _, r := range regions {
		total += r[1]
	}
	off := uint64(inj.rng.Int63n(int64(total))) &^ 7
	for _, r := range regions {
		if off < r[1] {
			return r[0] + off&^7
		}
		off -= r[1]
	}
	return sp
}

// retSlot locates the live stored return address of the current
// activation for the image's scheme. ok is false when no activation
// is live (e.g. the fault landed between frames).
func (inj *injector) retSlot(m *cpu.Machine) (uint64, bool) {
	l := inj.img.Layout
	inStack := func(a uint64) bool {
		return a >= l.StackBase && a+8 <= l.StackTop()
	}
	fp := m.Reg(isa.FP)
	switch inj.img.Scheme {
	case compile.SchemeShadowStack:
		// The live copy is the newest shadow-stack slot.
		scs := m.Reg(isa.SCS)
		if scs > l.ShadowBase && scs <= l.ShadowBase+l.ShadowSize {
			return scs - 8, true
		}
		return 0, false
	case compile.SchemePACStack, compile.SchemePACStackNoMask:
		// The chain register itself is out of reach; the live memory
		// state is the spilled aret_{i-1} below the frame record.
		if inStack(fp - 16) {
			return fp - 16, true
		}
		return 0, false
	default:
		// Baseline, canary, -mbranch-protection, static CFI: the
		// frame record's LR slot.
		if inStack(fp + 8) {
			return fp + 8, true
		}
		return 0, false
	}
}

// plantTarget picks a code address the corrupted return could land
// on. Half the draws are *wrong return sites* — the address after
// some BL in user code, the control-flow-bending target that a
// stateless policy accepts and that therefore runs to completion with
// diverged behaviour unless a stateful scheme objects. The other half
// are user-function entries, occasionally nudged into the body (the
// wild-jump model). Runtime symbols like __stack_chk_fail are
// excluded so a jump into the abort routine is not miscounted as a
// canary detection. All candidate lists are sorted, keeping the draw
// deterministic.
func (inj *injector) plantTarget() uint64 {
	if sites := inj.returnSites(); len(sites) > 0 && inj.rng.Intn(2) == 0 {
		return sites[inj.rng.Intn(len(sites))]
	}
	entries := make([]uint64, 0, len(inj.img.IR.Functions))
	for _, f := range inj.img.IR.Functions {
		entries = append(entries, inj.img.FuncEntries[f.Name])
	}
	sort.Slice(entries, func(i, j int) bool { return entries[i] < entries[j] })
	t := entries[inj.rng.Intn(len(entries))]
	if inj.rng.Intn(4) == 0 {
		t += uint64(inj.rng.Intn(3)) * isa.InstrSize
	}
	return t
}

// returnSites lists every address following a call instruction inside
// user function code, in address order.
func (inj *injector) returnSites() []uint64 {
	userFn := make(map[string]bool, len(inj.img.IR.Functions))
	for _, f := range inj.img.IR.Functions {
		userFn[f.Name] = true
	}
	prog := inj.img.Prog
	var sites []uint64
	for i, ins := range prog.Instrs {
		if ins.Op != isa.BL && ins.Op != isa.BLR {
			continue
		}
		addr := prog.Base + uint64(i)*isa.InstrSize
		sym, _ := prog.SymbolFor(addr)
		if j := strings.IndexByte(sym, '$'); j >= 0 {
			sym = sym[:j]
		}
		if userFn[sym] {
			sites = append(sites, addr+isa.InstrSize)
		}
	}
	return sites
}
