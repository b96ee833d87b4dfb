package snap_test

import (
	"bytes"
	"testing"

	"pacstack/internal/compile"
	"pacstack/internal/fault"
	"pacstack/internal/kernel"
	"pacstack/internal/pa"
	"pacstack/internal/snap"
)

// bootTemplate boots and hardens one pristine chain victim and
// returns it with its image.
func bootTemplate(t *testing.T, seed int64) (*compile.Image, *kernel.Process) {
	t.Helper()
	eng := fault.NewEngine(fault.DefaultProgram())
	img, err := eng.Image(compile.SchemePACStack)
	if err != nil {
		t.Fatal(err)
	}
	k := kernel.New(pa.DefaultConfig())
	k.Seed(seed)
	p, err := img.Boot(k)
	if err != nil {
		t.Fatal(err)
	}
	fault.Harden(compile.SchemePACStack, p)
	return img, p
}

// TestBootImageRestoreAliasing is the decode-aliasing regression: many
// machines restored from ONE shared in-memory boot image must be fully
// isolated — mutating one restored machine (its stack, globals, shadow
// stack, output buffer) must not perturb a later restore's golden
// replay, and must not corrupt the shared image itself.
func TestBootImageRestoreAliasing(t *testing.T) {
	img, tpl := bootTemplate(t, 7)
	bi, err := snap.EncodeBootImage(tpl, img)
	if err != nil {
		t.Fatal(err)
	}

	eng := fault.NewEngine(fault.DefaultProgram())
	goldenOut, goldenExit, _, err := eng.Golden(compile.SchemePACStack)
	if err != nil {
		t.Fatal(err)
	}

	boot := func(seed int64) *kernel.Process {
		k := kernel.New(pa.DefaultConfig())
		k.Seed(seed)
		p, err := img.Boot(k)
		if err != nil {
			t.Fatal(err)
		}
		return p
	}

	// Restore machine A and vandalize every writable region it has,
	// plus its kernel-side output buffer.
	a := boot(11)
	if err := bi.Restore(a); err != nil {
		t.Fatal(err)
	}
	junk := bytes.Repeat([]byte{0xa5}, 4096)
	l := img.Layout
	for off := uint64(0); off < l.StackSize; off += uint64(len(junk)) {
		if err := a.Mem.WriteBytes(l.StackBase+off, junk); err != nil {
			t.Fatalf("smashing restored stack: %v", err)
		}
	}
	for off := uint64(0); off < l.ShadowSize; off += uint64(len(junk)) {
		if err := a.Mem.WriteBytes(l.ShadowBase+off, junk); err != nil {
			t.Fatalf("smashing restored shadow stack: %v", err)
		}
	}
	if err := a.Mem.WriteBytes(l.GlobalsBase, junk); err != nil {
		t.Fatalf("smashing restored globals: %v", err)
	}
	a.Output = append(a.Output, []byte("tainted")...)

	// Replay machine B from the same shared image: it must be golden.
	for i, seed := range []int64{23, 29} {
		b := boot(seed)
		if err := bi.Restore(b); err != nil {
			t.Fatal(err)
		}
		if err := b.Run(1 << 20); err != nil {
			t.Fatalf("restore %d after mutation: replay killed: %v (kill=%v)", i, err, b.Kill)
		}
		if string(b.Output) != string(goldenOut) || b.ExitCode != goldenExit {
			t.Fatalf("restore %d after mutation diverged: output %q exit %d, golden %q exit %d",
				i, b.Output, b.ExitCode, goldenOut, goldenExit)
		}
		// Mutate this one too, so the next iteration re-proves isolation
		// against a second vandalized sibling.
		if err := b.Mem.WriteBytes(l.StackBase, junk); err != nil {
			t.Fatal(err)
		}
	}

	// A recycled machine: it has just served a request under keys of
	// its own, and is restored again, as a pool lease restores it.
	// Its memory must equal a restore into a freshly booted machine,
	// byte for byte, and neither may alias the other.
	used := boot(31)
	if err := bi.Restore(used); err != nil {
		t.Fatal(err)
	}
	used.ReseedKeys()
	if err := used.Run(1 << 20); err != nil {
		t.Fatalf("request on the recycled machine: %v", err)
	}
	if err := bi.Restore(used); err != nil {
		t.Fatal(err)
	}
	fresh := boot(37)
	if err := bi.Restore(fresh); err != nil {
		t.Fatal(err)
	}
	samePages := func(a, b *kernel.Process) {
		t.Helper()
		x, y := a.Mem.Pages(), b.Mem.Pages()
		if len(x) != len(y) {
			t.Fatalf("recycled restore maps %d pages, fresh restore %d", len(x), len(y))
		}
		for i := range x {
			if x[i].Addr != y[i].Addr || x[i].Perm != y[i].Perm || !bytes.Equal(x[i].Data, y[i].Data) {
				t.Fatalf("page %d differs: recycled %#x %s, fresh %#x %s", i, x[i].Addr, x[i].Perm, y[i].Addr, y[i].Perm)
			}
		}
	}
	samePages(used, fresh)

	replay := func(name string, p *kernel.Process) {
		t.Helper()
		if err := p.Run(1 << 20); err != nil {
			t.Fatalf("%s replay killed: %v (kill=%v)", name, err, p.Kill)
		}
		if string(p.Output) != string(goldenOut) || p.ExitCode != goldenExit {
			t.Fatalf("%s replay diverged: output %q exit %d, golden %q exit %d",
				name, p.Output, p.ExitCode, goldenOut, goldenExit)
		}
	}
	smash := func(p *kernel.Process) {
		t.Helper()
		for _, r := range [][2]uint64{{l.StackBase, l.StackSize}, {l.ShadowBase, l.ShadowSize}, {l.GlobalsBase, 4096}} {
			for off := uint64(0); off < r[1]; off += uint64(len(junk)) {
				if err := p.Mem.WriteBytes(r[0]+off, junk); err != nil {
					t.Fatal(err)
				}
			}
		}
	}
	smash(used)
	replay("fresh after smashing the recycled machine", fresh)
	if err := bi.Restore(used); err != nil {
		t.Fatal(err)
	}
	smash(fresh)
	replay("recycled after smashing the fresh machine", used)
}

// TestBootImageKeys pins that the image exposes the checkpointed key
// set: a process restored from the image authenticates pointers sealed
// under bi.Keys(), which is exactly the §4.3 hazard the pool's
// per-reset probe (and ReseedKeys) exists to eliminate.
func TestBootImageKeys(t *testing.T) {
	img, tpl := bootTemplate(t, 7)
	bi, err := snap.EncodeBootImage(tpl, img)
	if err != nil {
		t.Fatal(err)
	}
	k := kernel.New(pa.DefaultConfig())
	k.Seed(13)
	p, err := img.Boot(k)
	if err != nil {
		t.Fatal(err)
	}
	if err := bi.Restore(p); err != nil {
		t.Fatal(err)
	}
	imgAuth := pa.New(bi.Keys(), kernel.New(pa.DefaultConfig()).Config())
	sealed := imgAuth.AddPAC(pa.KeyIA, 0x10040, 0xfeed)
	if _, ok := p.Auth.Auth(pa.KeyIA, sealed, 0xfeed); !ok {
		t.Fatal("restored process does not carry the image keys (Restore contract changed?)")
	}
	p.ReseedKeys()
	if _, ok := p.Auth.Auth(pa.KeyIA, sealed, 0xfeed); ok {
		t.Fatal("ReseedKeys left the image keys live — §4.3 freshness broken")
	}
}
