package main

import (
	"fmt"
	"math"
	"sort"
	"sync"

	"pacstack/internal/compile"
	"pacstack/internal/cpu"
	"pacstack/internal/fault"
	"pacstack/internal/kernel"
	"pacstack/internal/pa"
	"pacstack/internal/serve"
	"pacstack/internal/traffic"
	"pacstack/internal/workload"
)

// schemes is every scheme name the daemon accepts on the wire.
var schemes = []string{"baseline", "canary", "branchprot", "shadowstack", "pacstack-nomask", "pacstack", "staticcfi"}

// paSchemes are the schemes whose frames compute PACs; the rest form
// the non-PA group of cpu.ns_per_instr.
var paSchemes = map[string]bool{"branchprot": true, "pacstack-nomask": true, "pacstack": true}

// pair is one (program, scheme) combination a workload sends.
type pair struct{ Workload, Scheme string }

// serveWorkload describes one daemon workload: the pairs it sends,
// round-robin, and the sizes of its fixed phases.
type serveWorkload struct {
	name  string
	pairs []pair
	// window is the number of requests of the determinism window: the
	// first requests of the stream, sent before timing starts, whose
	// counts must repeat exactly for a seed.
	window int
	// perSecond is the timed phase's requests per second of --seconds:
	// the phase is a fixed number of requests, about the workload's
	// rate on a 2-core host, so which requests run (and so which fail)
	// is a pure function of the seed.
	perSecond int
	// setups is how many times set-up is measured; setup_s is the
	// median.
	setups int
	// sample is the number of requests the traced replica replays.
	sample int
	// contrast adds the sample's first requests again under baseline,
	// when the workload itself sends no non-PA scheme, so that
	// cpu.ns_per_instr.nopa is measured on the workload's programs.
	contrast int
	// draw, when set, replaces the round-robin stream.
	draw func(seed int64, i int) request
}

func chainWorkload() serveWorkload {
	return serveWorkload{
		name: "serve-chain", pairs: []pair{{"chain", "pacstack"}},
		window: 4096, perSecond: 3200, setups: 15, sample: 2000, contrast: 500,
	}
}

func specWorkload() serveWorkload {
	var progs []string
	for _, b := range workload.SPEC {
		progs = append(progs, b.Name)
	}
	progs = append(progs, "nginx")
	var pairs []pair
	for _, p := range progs {
		for _, s := range schemes {
			pairs = append(pairs, pair{p, s})
		}
	}
	return serveWorkload{
		name: "serve-spec", pairs: pairs,
		window: 2 * len(pairs), perSecond: 540, setups: 5, sample: 2 * len(pairs),
	}
}

// request is one generated request with its position in the stream.
type request struct {
	Index int
	serve.Request
}

// requestSeed is the seed of the stream's i-th request: a splitmix64
// draw keyed by the workload seed, made positive and odd so that the
// daemon never sees 0 (which would ask it to pick a seed itself).
// Seeds are never filtered or re-drawn.
func requestSeed(seed int64, i int) int64 {
	return int64(splitmix(uint64(seed)^0x5eed5eed5eed5eed, uint64(i))>>1) | 1
}

func splitmix(a, b uint64) uint64 {
	z := a*0x9e3779b97f4a7c15 + b
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// at returns the i-th request of the workload's stream for seed: the
// pairs in round-robin order, each with a fresh request seed.
func (w serveWorkload) at(seed int64, i int) request {
	if w.draw != nil {
		return w.draw(seed, i)
	}
	p := w.pairs[i%len(w.pairs)]
	return request{Index: i, Request: serve.Request{Workload: p.Workload, Scheme: p.Scheme, Seed: requestSeed(seed, i)}}
}

// setupAt returns set-up round r's request for pair j. Set-up draws its
// seeds from the stream's negative indices, so they never collide with
// a measured request.
func (w serveWorkload) setupAt(seed int64, r, j int) request {
	p := w.pairs[j]
	i := -1 - (r*len(w.pairs) + j)
	return request{Index: i, Request: serve.Request{Workload: p.Workload, Scheme: p.Scheme, Seed: requestSeed(seed, i)}}
}

// setupPair inverts setupAt: the pair of round r's request at index i.
func (w serveWorkload) setupPair(r, i int) int { return -1 - i - r*len(w.pairs) }

// soakLayerWorkload is the served request mix of the soak's traffic
// model: the per-layer measurements of soak-chaos replay it through
// the daemon and the replica.
func soakLayerWorkload() serveWorkload {
	classes := traffic.DefaultClasses()
	var pairs []pair
	seen := map[string]bool{}
	for _, c := range classes {
		for _, wl := range c.Workloads {
			if !seen[wl] {
				seen[wl] = true
				pairs = append(pairs, pair{wl, "pacstack"})
			}
		}
	}
	return serveWorkload{
		name: "soak-chaos-mix", pairs: pairs,
		window: 400, setups: 1, sample: 400, contrast: 100,
		draw: func(seed int64, i int) request { return soakAt(classes, seed, i) },
	}
}

// soakAt draws the i-th request of the soak mix: a class by its
// weight, then one of its programs, under pacstack.
func soakAt(classes []traffic.Class, seed int64, i int) request {
	var total float64
	for _, c := range classes {
		total += c.Weight
	}
	u := float64(splitmix(uint64(seed), uint64(i))>>11) / (1 << 53) * total
	c := classes[len(classes)-1]
	for _, cl := range classes {
		if u < cl.Weight {
			c = cl
			break
		}
		u -= cl.Weight
	}
	prog := c.Workloads[int(splitmix(uint64(seed)+1, uint64(i))%uint64(len(c.Workloads)))]
	return request{Index: i, Request: serve.Request{Workload: prog, Scheme: "pacstack", Seed: requestSeed(seed, i)}}
}

// ref is the reference result of one pair: what every 200 response for
// it must carry.
type ref struct {
	Output   string
	ExitCode uint64
	Instrs   uint64
	Cycles   uint64
}

// references runs every pair once on the single-step interpreter
// (block compilation off), from a kernel seeded by the workload seed,
// with the scheme's sigreturn hardening — the engine's reference.
func references(pairs []pair, seed int64) (map[pair]ref, error) {
	restore := cpu.SetBlockCompile(false)
	defer restore()
	refs := make(map[pair]ref, len(pairs))
	var mu sync.Mutex
	var firstErr error
	jobs := make(chan int)
	var wg sync.WaitGroup
	for w := 0; w < 2; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := range jobs {
				r, err := reference(pairs[j], int64(splitmix(uint64(seed), uint64(j))))
				mu.Lock()
				if err != nil && firstErr == nil {
					firstErr = err
				}
				refs[pairs[j]] = r
				mu.Unlock()
			}
		}()
	}
	for j := range pairs {
		jobs <- j
	}
	close(jobs)
	wg.Wait()
	return refs, firstErr
}

func reference(p pair, kernelSeed int64) (ref, error) {
	prog, err := serve.ResolveProgram(p.Workload, nil)
	if err != nil {
		return ref{}, err
	}
	sc, err := serve.ParseScheme(p.Scheme)
	if err != nil {
		return ref{}, err
	}
	img, err := compile.Compile(prog, sc, compile.DefaultLayout())
	if err != nil {
		return ref{}, fmt.Errorf("reference %s/%s: %w", p.Workload, p.Scheme, err)
	}
	k := kernel.New(pa.DefaultConfig())
	k.Seed(kernelSeed)
	proc, err := img.Boot(k)
	if err != nil {
		return ref{}, fmt.Errorf("reference %s/%s: %w", p.Workload, p.Scheme, err)
	}
	fault.Harden(sc, proc)
	if err := proc.Run(50_000_000); err != nil {
		return ref{}, fmt.Errorf("reference %s/%s: %w", p.Workload, p.Scheme, err)
	}
	return ref{Output: string(proc.Output), ExitCode: proc.ExitCode, Instrs: instrs(proc), Cycles: proc.Cycles()}, nil
}

// instrs sums retired instructions across a process's tasks, as the
// daemon does for a response.
func instrs(p *kernel.Process) uint64 {
	var n uint64
	for _, t := range p.Tasks {
		n += t.M.Instrs
	}
	return n
}

// percentile returns the p-quantile (0..1) of xs by linear
// interpolation between order statistics; xs is sorted in place.
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	sort.Float64s(xs)
	pos := p * float64(len(xs)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	if hi >= len(xs) {
		hi = len(xs) - 1
	}
	if math.IsInf(xs[hi], 1) || lo == hi {
		return xs[hi]
	}
	return xs[lo] + (xs[hi]-xs[lo])*(pos-float64(lo))
}

func median(xs []float64) float64 { return percentile(xs, 0.5) }
