// Package pool is the warm-pool fork-server: a per-(program, scheme)
// pool of pre-booted simulated machines served by snapshot restore
// instead of per-request cold boot.
//
// A production fork-server checkpoints one initialized parent and
// fork()s a child per request. This pool does the same with the
// repository's own machinery: at construction it boots one hardened
// machine, checkpoints it through the internal/snap wire codec into a
// shared in-memory snap.BootImage, and then serves every request by
// restoring a pooled machine from that image — page copies instead of
// text encoding, mapping and hardening from scratch.
//
// The security obligation is PACStack §4.3: security across
// exec-style respawn hinges on fresh PA keys per incarnation, so a
// warm restore must never serve under keys any other live machine (or
// the boot image itself) holds. Reset therefore re-seeds the PA keys
// and the stack canary on every restore, in exactly the entropy-draw
// order a cold boot uses (one key set, then one canary word) — which
// is also what makes a warm request's outcome bit-identical to the
// cold boot it replaces — and then checks that the fresh incarnation
// no longer holds the image keys, refusing to serve if it does.
//
// Machines are kept on per-worker shards (one free list per
// internal/par worker, default) with a global overflow list, so the
// parallel precompute phase of the soak leases mostly contention-free.
// An uncapped pool grows on demand and never fails a lease; a capped
// pool reports exhaustion and the serving layer falls back to a cold
// boot, counted in pacstack_pool_cold_fallback_total.
package pool

import (
	"fmt"
	"sync"
	"sync/atomic"

	"pacstack/internal/compile"
	"pacstack/internal/kernel"
	"pacstack/internal/mem"
	"pacstack/internal/pa"
	"pacstack/internal/par"
	"pacstack/internal/snap"
	"pacstack/internal/telemetry"
)

// Config parameterises a Pool.
type Config struct {
	// Img is the compiled program image machines boot from.
	Img *compile.Image
	// Configure runs on every machine after boot and after every
	// restore — the scheme hardening hook (fault.Harden). It must be
	// idempotent and must not draw kernel entropy.
	Configure func(p *kernel.Process)
	// PA is the kernel PA configuration (pa.DefaultConfig in serving).
	PA pa.Config
	// Seed, when non-zero, seeds the template kernel so the boot image
	// is reproducible. The template's keys never serve traffic either
	// way: every Reset reseeds.
	Seed int64
	// Shards is the free-list shard count; default par.Workers().
	ShardCap int // free machines kept per shard before overflow; default 4
	Shards   int
	// MaxMachines caps the pool's total machine count; 0 means grow on
	// demand without bound (Get never fails). When the cap is hit and
	// every machine is leased, Get returns nil and the caller cold-boots.
	MaxMachines int
	// Tel receives the pool's counters; nil handles are no-ops.
	Tel *Telemetry
}

// Telemetry is the pool's registry handle block. All fields are
// nil-safe.
type Telemetry struct {
	Occupancy     *telemetry.Gauge   // machines currently leased
	Restores      *telemetry.Counter // warm restores served
	ColdFallback  *telemetry.Counter // leases refused (capped pool exhausted)
	KeyViolations *telemetry.Counter // resets that still held image keys
}

// NewTelemetry resolves the pool handle block against reg.
func NewTelemetry(reg *telemetry.Registry) *Telemetry {
	return &Telemetry{
		Occupancy:     reg.Gauge("pacstack_pool_occupancy", "warm-pool machines currently leased to requests"),
		Restores:      reg.Counter("pacstack_pool_restores_total", "warm restores served from the boot image"),
		ColdFallback:  reg.Counter("pacstack_pool_cold_fallback_total", "leases refused by an exhausted capped pool (request cold-booted)"),
		KeyViolations: reg.Counter("pacstack_pool_key_violations_total", "warm restores that still held the image keys (§4.3 violation)"),
	}
}

// Machine is one pooled simulated machine: a kernel (re-seeded per
// request) and its booted process (overwritten from the boot image per
// request).
type Machine struct {
	K     *kernel.Kernel
	Proc  *kernel.Process
	shard int
}

type shard struct {
	mu   sync.Mutex
	free []*Machine
}

// Pool is a warm pool for one (program image, scheme) pair. All
// methods are safe for concurrent use.
type Pool struct {
	cfg Config
	tel *Telemetry

	mu   sync.RWMutex // guards boot (swapped by Adopt)
	boot *snap.BootImage

	shards   []shard
	overflow shard

	created atomic.Int64
	hint    atomic.Uint64
}

// New builds the pool: boot one template machine, harden it, and
// checkpoint it through the snap codec into the shared boot image.
// Machines themselves are created lazily by Get.
func New(cfg Config) (*Pool, error) {
	if cfg.Img == nil {
		return nil, fmt.Errorf("pool: nil image")
	}
	if cfg.Shards <= 0 {
		cfg.Shards = par.Workers()
	}
	if cfg.ShardCap <= 0 {
		cfg.ShardCap = 4
	}
	if cfg.Tel == nil {
		cfg.Tel = &Telemetry{}
	}
	k := kernel.New(cfg.PA)
	if cfg.Seed != 0 {
		k.Seed(cfg.Seed)
	}
	tpl, err := cfg.Img.Boot(k)
	if err != nil {
		return nil, fmt.Errorf("pool: booting template: %w", err)
	}
	if cfg.Configure != nil {
		cfg.Configure(tpl)
	}
	bi, err := snap.EncodeBootImage(tpl, cfg.Img.Prog)
	if err != nil {
		return nil, fmt.Errorf("pool: checkpointing template: %w", err)
	}
	return &Pool{
		cfg:    cfg,
		tel:    cfg.Tel,
		boot:   bi,
		shards: make([]shard, cfg.Shards),
	}, nil
}

// Image returns the pool's current boot image.
func (p *Pool) Image() *snap.BootImage {
	p.mu.RLock()
	defer p.mu.RUnlock()
	return p.boot
}

// Adopt replaces the pool's boot image — the migration path: a
// survivor backend re-pools the boot image shipped from a dead
// backend. The image must be taken from the pool's program; pooled
// machines pick the new image up on their next Reset.
func (p *Pool) Adopt(bi *snap.BootImage) error {
	if err := bi.VerifyProgram(p.cfg.Img.Prog); err != nil {
		return fmt.Errorf("pool: adopting foreign image: %w", err)
	}
	p.mu.Lock()
	p.boot = bi
	p.mu.Unlock()
	return nil
}

// Tel returns the pool's telemetry handle block.
func (p *Pool) Tel() *Telemetry { return p.tel }

// Size reports how many machines the pool has ever created.
func (p *Pool) Size() int { return int(p.created.Load()) }

// Get leases a machine: own shard first, then the overflow list, then
// work stealing across the other shards, then growth (uncapped pools
// only). A capped, exhausted pool returns nil — the cold-fallback
// signal, counted in pacstack_pool_cold_fallback_total.
func (p *Pool) Get() *Machine {
	h := int(p.hint.Add(1)-1) % len(p.shards)
	if m := p.shards[h].pop(); m != nil {
		p.tel.Occupancy.Add(1)
		return m
	}
	if m := p.overflow.pop(); m != nil {
		p.tel.Occupancy.Add(1)
		return m
	}
	for i := 1; i < len(p.shards); i++ {
		if m := p.shards[(h+i)%len(p.shards)].pop(); m != nil {
			p.tel.Occupancy.Add(1)
			return m
		}
	}
	if p.cfg.MaxMachines > 0 && int(p.created.Add(1)) > p.cfg.MaxMachines {
		p.created.Add(-1)
		p.tel.ColdFallback.Inc()
		return nil
	}
	if p.cfg.MaxMachines == 0 {
		p.created.Add(1)
	}
	m, err := p.grow(h)
	if err != nil {
		// A boot that fails here would fail the cold path identically;
		// report exhaustion and let the caller surface the boot error.
		p.created.Add(-1)
		p.tel.ColdFallback.Inc()
		return nil
	}
	p.tel.Occupancy.Add(1)
	return m
}

// grow creates one machine: a fresh kernel (unseeded — its entropy
// state is irrelevant, Reset re-seeds before anything observable
// draws) and a process booted from the image so every later Reset is
// a pure restore. The boot's own draws happen before the kernel is
// ever seeded, so machine creation order cannot perturb request
// outcomes or deterministic counters.
func (p *Pool) grow(shardIdx int) (*Machine, error) {
	k := kernel.New(p.cfg.PA)
	proc, err := p.cfg.Img.Boot(k)
	if err != nil {
		return nil, err
	}
	if p.cfg.Configure != nil {
		p.cfg.Configure(proc)
	}
	return &Machine{K: k, Proc: proc, shard: shardIdx}, nil
}

// Put returns a leased machine: home shard up to ShardCap, overflow
// beyond.
func (p *Pool) Put(m *Machine) {
	if m == nil {
		return
	}
	p.tel.Occupancy.Add(-1)
	sh := &p.shards[m.shard]
	sh.mu.Lock()
	if len(sh.free) < p.cfg.ShardCap {
		sh.free = append(sh.free, m)
		sh.mu.Unlock()
		return
	}
	sh.mu.Unlock()
	p.overflow.mu.Lock()
	p.overflow.free = append(p.overflow.free, m)
	p.overflow.mu.Unlock()
}

func (s *shard) pop() *Machine {
	s.mu.Lock()
	defer s.mu.Unlock()
	n := len(s.free)
	if n == 0 {
		return nil
	}
	m := s.free[n-1]
	s.free = s.free[:n-1]
	return m
}

// Reset turns a leased machine into a pristine fresh incarnation: the
// address space and task state come back from the shared boot image
// (deep-copied — see snap.BootImage), the PA keys are re-seeded and
// the stack-protector canary re-drawn from the machine's kernel.
//
// The kernel must have been seeded by the caller (the serving layer
// seeds it from the request rng, exactly where the cold path seeds its
// fresh kernel). Reset then draws one key set and one canary word, in
// that order — the same draws, in the same order, as Image.Boot — so a
// warm request consumes the identical entropy stream as its cold-boot
// counterpart and produces the identical outcome.
//
// Before returning, Reset compares the incarnation's keys with the
// boot image's (§4.3): a restore that still holds the image keys is
// refused and counted in pacstack_pool_key_violations_total.
func (p *Pool) Reset(m *Machine) (*kernel.Process, error) {
	p.mu.RLock()
	bi := p.boot
	p.mu.RUnlock()

	if err := bi.Restore(m.Proc); err != nil {
		return nil, fmt.Errorf("pool: warm restore: %w", err)
	}
	m.Proc.ReseedKeys()
	if err := m.Proc.Mem.Write64(p.cfg.Img.Layout.CanaryAddr(), m.K.Entropy64()); err != nil {
		return nil, fmt.Errorf("pool: refreshing canary: %w", err)
	}
	if p.cfg.Configure != nil {
		p.cfg.Configure(m.Proc)
	}
	p.tel.Restores.Inc()

	if m.Proc.HasKeys(bi.Keys()) {
		p.tel.KeyViolations.Inc()
		return nil, fmt.Errorf("pool: warm restore shares keys with the boot image (§4.3 violation)")
	}
	return m.Proc, nil
}

// Virtual-time boot-cost model (1 GHz virtual clock). A cold boot
// constructs the whole address space — text encoding and verification
// per byte, then mapping, zeroing and copying every page; a warm
// restore is the fork-server trick, copy-on-write remapping of the
// checkpointed pages at a small per-page constant. The constants are
// what the soak's -boot-model mode charges per request, making the
// warm-vs-cold throughput claim a measurable requests/virtual-second
// ratio instead of an assertion.
const (
	ColdPerPageCycles     = 4096 // allocate + zero + copy one 4 KiB page
	ColdPerTextByteCycles = 16   // encode + W^X-seal the text segment
	WarmPerPageCycles     = 64   // COW remap one checkpointed page
	WarmFixedCycles       = 256  // restore bookkeeping + key/canary reseed
)

// ModelCosts returns the modeled cold-boot and warm-restore costs for
// the image, derived from its mapped page count and text size — a
// pure function of the compiled image, identical at any parallelism.
func ModelCosts(img *compile.Image) (cold, warm uint64) {
	l := img.Layout
	textLen := uint64(img.Prog.Size())
	codePages := textLen/mem.PageSize + 1
	pages := codePages + 1 + l.ShadowSize/mem.PageSize + l.StackSize/mem.PageSize
	cold = pages*ColdPerPageCycles + textLen*ColdPerTextByteCycles
	warm = pages*WarmPerPageCycles + WarmFixedCycles
	return cold, warm
}
