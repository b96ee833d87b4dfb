// BootImage: the decode-once / restore-many form of a snapshot, the
// in-memory analogue of a fork-server's pristine parent. The serving
// pool (internal/pool) decodes one encoded boot snapshot at start-up
// and then restores every pooled machine from the same decoded
// checkpoint, thousands of times, concurrently.
//
// The load-bearing property is isolation: a restore must deep-copy
// every page out of the shared checkpoint, so that one restored
// machine scribbling on its stack can never alias another machine's
// memory — or worse, the checkpoint itself, which would leak one
// request's state into every later restore. kernel.Process.Restore
// guarantees this (mem.Memory.Reload copies page contents into the
// machine's own page frames; Output and SigRefs are copied slices),
// and TestBootImageRestoreAliasing pins it: mutate one restored
// machine, replay another, and the replay must stay golden, whether it
// was freshly booted or had served a request before.
//
// The decoded checkpoint never changes after decode. mem.Memory.Reload
// relies on that: a machine that reloads the snapshot it last loaded rewrites
// only the pages written since.
package snap

import (
	"pacstack/internal/compile"
	"pacstack/internal/kernel"
	"pacstack/internal/pa"
)

// BootImage is a validated, decoded snapshot held in memory for
// repeated restores. The decoded checkpoint is shared by every
// restore and must never be mutated; all mutation happens in the
// per-machine copies Restore and Respawn make.
type BootImage struct {
	cp *kernel.Checkpoint
}

// EncodeBootImage checkpoints the process and round-trips it through
// the wire codec into a BootImage — the pool's start-up path, which
// deliberately exercises Encode+Decode so a codec regression cannot
// hide behind an in-process shortcut.
func EncodeBootImage(p *kernel.Process, img *compile.Image) (*BootImage, error) {
	raw, err := Encode(p.Checkpoint(), img)
	if err != nil {
		return nil, err
	}
	cp, _, err := Decode(raw)
	if err != nil {
		return nil, err
	}
	return &BootImage{cp: cp}, nil
}

// Keys returns the PA key set frozen in the image. A warm restore
// MUST NOT serve under these keys (PACStack §4.3: every incarnation
// draws fresh keys); the pool probes each reset against them.
func (bi *BootImage) Keys() pa.Keys { return bi.cp.Keys }

// Restore overwrites p with the image's checkpoint. p must be a
// booted process from the same program image (kernel.Process.Restore's
// contract). The checkpoint is shared across restores; Restore
// deep-copies, so the returned state is fully isolated from both the
// image and every other restored machine.
func (bi *BootImage) Restore(p *kernel.Process) error {
	return p.Restore(bi.cp)
}

// Respawn is Restore into a fresh incarnation: the process comes back
// from the image under PA keys drawn from its kernel, never the
// image's (kernel.Process.Respawn). It draws what Restore followed by
// ReseedKeys draws, and builds one Authenticator instead of two.
func (bi *BootImage) Respawn(p *kernel.Process) error {
	return p.Respawn(bi.cp)
}
