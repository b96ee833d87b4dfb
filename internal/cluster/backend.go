// Package cluster promotes the serving story from one process to a
// deterministic multi-backend fleet: N serving backends behind a
// breaker-aware router, live migration of checkpointed machines
// between backends over the internal/snap codec, and a cluster-scale
// virtual-time soak whose report is byte-identical across runs and
// worker-pool widths.
//
// The paper's respawn argument (Section 4.3) is the design anchor
// throughout: a backend is allowed to die — what matters is that the
// fleet absorbs the death the way an exec respawn absorbs a crash.
// Machines checkpointed on the dead backend are re-encoded with the
// crash-consistent snap codec, shipped to a survivor, restored, and
// re-seeded with fresh PA keys (a migrated machine must NOT share keys
// with its dead incarnation); the dead backend's in-flight requests
// are replayed exactly once; and the failover charges the cluster's
// restart budget once — not once per machine, not once per request.
package cluster

import (
	"fmt"
	"sort"
	"sync"

	"pacstack/internal/compile"
	"pacstack/internal/fault"
	"pacstack/internal/kernel"
	"pacstack/internal/pa"
	"pacstack/internal/resilience"
	"pacstack/internal/serve"
	"pacstack/internal/snap"
	"pacstack/internal/telemetry"
)

// Machine is one resident simulated machine on a backend: a booted,
// hardened, never-run incarnation of a (workload, scheme) image,
// checkpointed into its own crash-consistent store at boot. Resident
// machines exist to be migration cargo: because they are committed at
// a chain-neutral point (no PAC sealed under their keys lives in
// memory yet), the failover protocol can restore them elsewhere and
// re-seed their keys without breaking a single authenticated pointer —
// the same reason an exec respawn is safe.
type Machine struct {
	Scheme string
	Img    *compile.Image
	// Proc is the resident incarnation; it holds the keys that must
	// NOT survive a migration.
	Proc *kernel.Process
	// Store is the machine's snapshot store. The simulated disk
	// outlives the machine: migration reads from it after the backend
	// that wrote it is gone.
	Store *snap.Store
	// Seq is the newest committed snapshot sequence.
	Seq uint64
	// Migrated marks a machine that arrived via failover rather than a
	// local boot.
	Migrated bool
}

// Backend is one member of the cluster: an index, a kernel (its
// entropy domain for PA keys), a breaker the router consults, and the
// resident machines it hosts. In the live cluster it also carries an
// executing serve.Server; the deterministic soak models execution
// itself and leaves Srv nil.
type Backend struct {
	Index  int
	Kernel *kernel.Kernel
	// Srv is the live execution core; nil in the soak's traffic model.
	Srv *serve.Server
	// Breaker is the router's per-backend health signal. It is driven
	// by whoever routes (the live cluster under wall clock, the soak
	// under virtual time).
	Breaker *resilience.Breaker

	// SnapTel, when non-nil, instruments the resident machines' stores.
	SnapTel *snap.Telemetry

	mu       sync.Mutex
	alive    bool
	machines []*Machine
}

// NewBackend returns an alive backend with its own seeded kernel
// (serve.Mix(seed, index) — backend identity addresses its entropy) and no
// resident machines yet.
func NewBackend(index int, seed int64) *Backend {
	k := kernel.New(pa.DefaultConfig())
	k.Seed(serve.Mix(seed, int64(index)+0xbac))
	return &Backend{Index: index, Kernel: k, alive: true}
}

// Alive reports whether the backend is still serving.
func (b *Backend) Alive() bool {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.alive
}

// Kill marks the backend dead. It reports whether this call was the
// one that killed it (false if it was already dead).
func (b *Backend) Kill() bool {
	b.mu.Lock()
	defer b.mu.Unlock()
	was := b.alive
	b.alive = false
	return was
}

// BootMachine boots one resident machine for the scheme from the
// engine's image, hardens it, and commits its boot-state checkpoint
// into a fresh store. The machine never executes an instruction while
// resident, which is precisely what makes it safe to re-seed after a
// migration.
func (b *Backend) BootMachine(eng *fault.Engine, schemeName string) (*Machine, error) {
	sc, err := serve.ParseScheme(schemeName)
	if err != nil {
		return nil, err
	}
	img, err := eng.Image(sc)
	if err != nil {
		return nil, err
	}
	p, err := img.Boot(b.Kernel)
	if err != nil {
		return nil, err
	}
	fault.Harden(sc, p)
	st := snap.NewStore(snap.NewMemFS())
	st.Tel = b.SnapTel
	seq, err := st.CommitProcess(p, img)
	if err != nil {
		return nil, fmt.Errorf("cluster: backend %d: committing boot checkpoint for %s: %w", b.Index, schemeName, err)
	}
	m := &Machine{Scheme: schemeName, Img: img, Proc: p, Store: st, Seq: seq}
	b.mu.Lock()
	b.machines = append(b.machines, m)
	b.mu.Unlock()
	return m, nil
}

// Machines returns the backend's resident machines sorted by scheme
// (arrival order breaking ties) — the deterministic iteration order
// the migration protocol ships in.
func (b *Backend) Machines() []*Machine {
	b.mu.Lock()
	defer b.mu.Unlock()
	out := append([]*Machine(nil), b.machines...)
	sort.SliceStable(out, func(i, j int) bool { return out[i].Scheme < out[j].Scheme })
	return out
}

// adopt installs a migrated machine on the backend.
func (b *Backend) adopt(m *Machine) {
	b.mu.Lock()
	b.machines = append(b.machines, m)
	b.mu.Unlock()
}

// NewBackendBreaker builds the router-facing breaker for a backend,
// wiring its transition and probe-order events into the telemetry set
// (nil-safe) under the backend's name.
func NewBackendBreaker(idx int, threshold int, cooldown uint64, seed int64, tel *telemetry.Set, transitions *telemetry.CounterVec) *resilience.Breaker {
	name := fmt.Sprintf("backend-%d", idx)
	log := tel.Log()
	return resilience.NewBreaker(resilience.BreakerConfig{
		Threshold: threshold,
		Cooldown:  cooldown,
		Seed:      serve.Mix(seed, int64(idx)+0x9a0),
		OnTransition: func(now uint64, from, to resilience.BreakerState) {
			if transitions != nil {
				transitions.With(fmt.Sprint(idx), to.String()).Inc()
			}
			log.Record(telemetry.EvBreaker, name, from.String()+"->"+to.String(), now)
		},
		OnProbe: func(now uint64, order []uint64, granted int) {
			log.Record(telemetry.EvProbe, name, probeOrderString(order, granted), now)
		},
	})
}

// probeOrderString renders a probe contention verdict: the seeded
// candidate order with the grant cutoff marked.
func probeOrderString(order []uint64, granted int) string {
	s := ""
	for i, id := range order {
		if i > 0 {
			s += ","
		}
		s += fmt.Sprint(id)
		if i == granted-1 {
			s += "|"
		}
	}
	return s
}
