package compile

import (
	"fmt"

	"pacstack/internal/cpu"
	"pacstack/internal/kernel"
	"pacstack/internal/mem"
)

// Boot loads the image into a fresh address space and creates a
// process for it: code pages are mapped read-execute (W⊕X), globals,
// shadow stack and main stack read-write; the stack-protector canary
// is drawn fresh per process like glibc's; and the assumption-A2
// forward-edge CFI is installed with the image's function entries as
// the allowed indirect-call targets.
func (img *Image) Boot(k *kernel.Kernel) (*kernel.Process, error) {
	m := mem.New()
	l := img.Layout
	codeLen := (img.Prog.Size()/mem.PageSize + 1) * mem.PageSize
	// Load the encoded text segment the way an OS loader does: map the
	// pages writable, copy the image in, then seal them execute-only
	// (W⊕X). The bytes in memory and the symbolic program the CPU
	// executes are thereafter two views of the same code.
	if err := m.Map(l.CodeBase, codeLen, mem.PermRW); err != nil {
		return nil, fmt.Errorf("compile: mapping code: %w", err)
	}
	text, _, err := img.Text()
	if err != nil {
		return nil, err
	}
	if err := m.WriteBytes(l.CodeBase, text); err != nil {
		return nil, fmt.Errorf("compile: loading text segment: %w", err)
	}
	if err := m.Protect(l.CodeBase, codeLen, mem.PermRX); err != nil {
		return nil, fmt.Errorf("compile: sealing text segment: %w", err)
	}
	if err := m.Map(l.GlobalsBase, mem.PageSize, mem.PermRW); err != nil {
		return nil, fmt.Errorf("compile: mapping globals: %w", err)
	}
	if err := m.Map(l.ShadowBase, l.ShadowSize, mem.PermRW); err != nil {
		return nil, fmt.Errorf("compile: mapping shadow stack: %w", err)
	}
	if err := m.Map(l.StackBase, l.StackSize, mem.PermRW); err != nil {
		return nil, fmt.Errorf("compile: mapping stack: %w", err)
	}

	p := k.NewProcess(img.Prog, m, img.Prog.MustLookup("_start"), l.StackTop())

	// Seed the canary. The reference value lives in a global the
	// program can read — but the adversary can too, which is exactly
	// the weakness of canaries under the paper's R2 (full disclosure).
	// The entropy comes from the kernel so that a seeded kernel
	// (kernel.Kernel.Seed) boots byte-identical processes.
	if err := m.Write64(l.CanaryAddr(), k.Entropy64()); err != nil {
		return nil, err
	}

	allowed := make(map[uint64]bool, len(img.FuncEntries))
	for _, a := range img.FuncEntries {
		allowed[a] = true
	}
	p.CallCFI = func(target uint64) error {
		if !allowed[target] {
			return &cpu.CFIViolation{Edge: "call", Target: target,
				Detail: "indirect call target is not a function entry"}
		}
		return nil
	}
	if img.Scheme == SchemeStaticCFI {
		img.installStaticCFI(func(f func(retPC, target uint64) error) { p.RetCFI = f })
	}
	return p, nil
}

// MustBoot is Boot that panics on error.
func (img *Image) MustBoot(k *kernel.Kernel) *kernel.Process {
	p, err := img.Boot(k)
	if err != nil {
		panic(err)
	}
	return p
}
