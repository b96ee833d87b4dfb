// Package telemetry is the stdlib-only observability subsystem of the
// reproduction: a sharded, allocation-free metrics registry (counters,
// gauges, fixed-bucket histograms, all with optional label sets), a
// bounded ring-buffer security event log with sequence numbers and
// drop accounting, and Prometheus-text / JSON exposition.
//
// Two properties drive the design:
//
//  1. Hot-path cost. Instrument handles (*Counter, *Gauge, *Histogram)
//     are resolved once at wiring time; recording is one atomic add on
//     a sharded cell — no map lookups, no allocation, no interface
//     dispatch. Every handle method tolerates a nil receiver, so a
//     component wired to telemetry.Nop pays exactly one predictable
//     branch per record. BenchmarkEngine with Nop must stay within
//     noise of the uninstrumented engine; BenchmarkEngineTelemetry
//     tracks the enabled cost.
//
//  2. Determinism. Every metric value is an integer, counter adds
//     commute, and Gather sorts families by name and series by label
//     values — so a snapshot of a seeded run is byte-identical
//     regardless of goroutine interleaving or worker-pool width. All
//     timestamps come from an injected clock (virtual cycles in the
//     soak and crash matrix, wall nanoseconds in the daemon), so two
//     telemetry dumps of the same seed compare byte for byte.
//
// Naming scheme: pacstack_<component>_<noun>[_<unit>]_total for
// counters, pacstack_<component>_<noun> for gauges and histograms.
// Components: pa, kernel, supervise, snap, serve, soak.
package telemetry

import (
	"fmt"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"
	"unsafe"
)

// numShards is the counter shard fan-out. Eight cache-line-padded
// cells are plenty at serving concurrency (4-16 workers); the sum on
// read walks all of them.
const numShards = 8

// cell is one padded counter shard; the padding keeps two shards from
// sharing a cache line and turning independent Incs into ping-pong.
type cell struct {
	n atomic.Uint64
	_ [56]byte
}

// shardIndex picks a shard from the address of a stack variable:
// goroutine stacks are disjoint, so concurrent writers spread across
// cells without any runtime hook or thread-local storage. The value
// read is never converted back to a pointer.
func shardIndex() int {
	var probe byte
	return int((uintptr(unsafe.Pointer(&probe)) >> 10) % numShards)
}

// Counter is a monotonically increasing uint64, sharded across padded
// cells. The zero value is unusable; obtain counters from a Registry.
// All methods are safe for concurrent use and for a nil receiver.
type Counter struct {
	shards [numShards]cell
}

// Add increments the counter by n. A nil receiver is a no-op.
func (c *Counter) Add(n uint64) {
	if c == nil {
		return
	}
	c.shards[shardIndex()].n.Add(n)
}

// Inc increments the counter by one. A nil receiver is a no-op.
func (c *Counter) Inc() { c.Add(1) }

// Value sums the shards. A nil receiver reads zero.
func (c *Counter) Value() uint64 {
	if c == nil {
		return 0
	}
	var v uint64
	for i := range c.shards {
		v += c.shards[i].n.Load()
	}
	return v
}

// Gauge is a settable int64. All methods are nil-receiver-safe.
type Gauge struct {
	v atomic.Int64
}

// Set stores v. A nil receiver is a no-op.
func (g *Gauge) Set(v int64) {
	if g == nil {
		return
	}
	g.v.Store(v)
}

// Add adjusts the gauge by delta. A nil receiver is a no-op.
func (g *Gauge) Add(delta int64) {
	if g == nil {
		return
	}
	g.v.Add(delta)
}

// Value reads the gauge. A nil receiver reads zero.
func (g *Gauge) Value() int64 {
	if g == nil {
		return 0
	}
	return g.v.Load()
}

// Histogram is a fixed-bucket histogram over uint64 observations.
// Buckets are cumulative-le at exposition time but stored per-bucket;
// the implicit +Inf bucket catches everything above the last bound.
// Sum and count are exact integers, so histograms stay deterministic.
type Histogram struct {
	bounds []uint64 // ascending upper bounds, exclusive of +Inf
	counts []Counter
	sum    Counter
	count  Counter
}

// Observe records one value. A nil receiver is a no-op.
func (h *Histogram) Observe(v uint64) {
	if h == nil {
		return
	}
	// First bucket whose bound >= v; linear scan — bucket lists are
	// short (≤ ~16) and branch-predictable, cheaper than sort.Search.
	i := 0
	for i < len(h.bounds) && v > h.bounds[i] {
		i++
	}
	h.counts[i].Inc()
	h.sum.Add(v)
	h.count.Inc()
}

// Count returns how many values the histogram has observed. A nil
// receiver reads zero.
func (h *Histogram) Count() uint64 {
	if h == nil {
		return 0
	}
	return h.count.Value()
}

// Quantile estimates the q = num/den quantile (e.g. 99, 100 for p99)
// as the upper bound of the bucket holding the ceil(q*count)-th
// observation — the standard fixed-bucket upper-bound estimate, exact
// integer arithmetic so the result is deterministic. Observations that
// landed in the implicit +Inf bucket saturate to twice the last
// finite bound; callers comparing against SLO targets must size their
// bucket layout so targets sit below the last bound. Returns 0 on an
// empty histogram or nil receiver.
func (h *Histogram) Quantile(num, den uint64) uint64 {
	if h == nil || den == 0 {
		return 0
	}
	total := h.count.Value()
	if total == 0 {
		return 0
	}
	rank := (total*num + den - 1) / den
	if rank == 0 {
		rank = 1
	}
	var cum uint64
	for i := range h.counts {
		cum += h.counts[i].Value()
		if cum >= rank {
			if i < len(h.bounds) {
				return h.bounds[i]
			}
			return 2 * h.bounds[len(h.bounds)-1]
		}
	}
	return 2 * h.bounds[len(h.bounds)-1]
}

// instrumentKind tags what a family holds.
type instrumentKind int

const (
	kindCounter instrumentKind = iota
	kindGauge
	kindHistogram
	kindGaugeFunc
)

func (k instrumentKind) String() string {
	switch k {
	case kindCounter:
		return "counter"
	case kindGauge, kindGaugeFunc:
		return "gauge"
	case kindHistogram:
		return "histogram"
	}
	return "untyped"
}

// series is one labeled instrument inside a family.
type series struct {
	labels []string // values, parallel to family.labelNames
	ctr    *Counter
	gauge  *Gauge
	hist   *Histogram
	fn     func() int64
}

// family is all series sharing one metric name.
type family struct {
	name       string
	help       string
	kind       instrumentKind
	labelNames []string
	bounds     []uint64 // histograms only

	mu     sync.Mutex
	series map[string]*series
}

// Registry holds instrument families. All methods are safe for
// concurrent use; every lookup method tolerates a nil receiver (and
// then returns a nil handle), which is what makes telemetry.Nop free.
type Registry struct {
	mu    sync.Mutex
	fams  map[string]*family
	clock atomic.Pointer[func() uint64]
}

// NewRegistry returns an empty registry reading the wall clock (Unix
// nanoseconds). Deterministic runs replace the clock with SetClock.
func NewRegistry() *Registry {
	r := &Registry{fams: make(map[string]*family)}
	wall := func() uint64 { return uint64(time.Now().UnixNano()) }
	r.clock.Store(&wall)
	return r
}

// SetClock injects the time source used to stamp snapshots (and, via
// Set, events). The soak and crash matrix inject virtual time here so
// telemetry dumps are byte-identical for one seed.
func (r *Registry) SetClock(now func() uint64) {
	if r == nil || now == nil {
		return
	}
	r.clock.Store(&now)
}

// Now reads the registry clock. Nil receivers read zero so that
// components wired to Nop can still stamp ad-hoc values.
func (r *Registry) Now() uint64 {
	if r == nil {
		return 0
	}
	return (*r.clock.Load())()
}

// validName enforces the Prometheus name charset so exposition never
// emits an unparseable line.
func validName(s string) bool {
	if s == "" {
		return false
	}
	for i, c := range s {
		switch {
		case c >= 'a' && c <= 'z', c >= 'A' && c <= 'Z', c == '_', c == ':':
		case c >= '0' && c <= '9':
			if i == 0 {
				return false
			}
		default:
			return false
		}
	}
	return true
}

// lookup finds or creates the family, panicking on a redefinition
// with a different shape — that is always a wiring bug, and failing
// loudly at startup beats silently splitting a metric in two.
func (r *Registry) lookup(name, help string, kind instrumentKind, labelNames []string, bounds []uint64) *family {
	if !validName(name) {
		panic("telemetry: invalid metric name " + name)
	}
	for _, l := range labelNames {
		if !validName(l) {
			panic("telemetry: invalid label name " + l + " on " + name)
		}
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if f, ok := r.fams[name]; ok {
		if f.kind != kind || len(f.labelNames) != len(labelNames) {
			panic("telemetry: metric " + name + " redefined with a different shape")
		}
		for i := range labelNames {
			if f.labelNames[i] != labelNames[i] {
				panic("telemetry: metric " + name + " redefined with different labels")
			}
		}
		return f
	}
	f := &family{
		name: name, help: help, kind: kind,
		labelNames: append([]string(nil), labelNames...),
		bounds:     append([]uint64(nil), bounds...),
		series:     make(map[string]*series),
	}
	r.fams[name] = f
	return f
}

// seriesKey joins label values; 0x1f cannot appear in validated label
// values (see escapeLabel — raw control bytes are escaped on output,
// but keys must be collision-free on input, so the separator is a
// byte no Go string literal in this repo uses).
func seriesKey(values []string) string { return strings.Join(values, "\x1f") }

// with finds or creates the series for the label values.
func (f *family) with(values []string) *series {
	if len(values) != len(f.labelNames) {
		panic(fmt.Sprintf("telemetry: metric %s wants %d label value(s), got %d",
			f.name, len(f.labelNames), len(values)))
	}
	key := seriesKey(values)
	f.mu.Lock()
	defer f.mu.Unlock()
	if s, ok := f.series[key]; ok {
		return s
	}
	s := &series{labels: append([]string(nil), values...)}
	switch f.kind {
	case kindCounter:
		s.ctr = &Counter{}
	case kindGauge:
		s.gauge = &Gauge{}
	case kindHistogram:
		s.hist = &Histogram{
			bounds: f.bounds,
			counts: make([]Counter, len(f.bounds)+1),
		}
	}
	f.series[key] = s
	return s
}

// Counter returns the unlabeled counter with the given name,
// registering it on first use. Nil registries return nil handles.
func (r *Registry) Counter(name, help string) *Counter {
	if r == nil {
		return nil
	}
	return r.lookup(name, help, kindCounter, nil, nil).with(nil).ctr
}

// CounterVec declares a labeled counter family.
func (r *Registry) CounterVec(name, help string, labelNames ...string) *CounterVec {
	if r == nil {
		return nil
	}
	return &CounterVec{f: r.lookup(name, help, kindCounter, labelNames, nil)}
}

// Gauge returns the unlabeled gauge with the given name.
func (r *Registry) Gauge(name, help string) *Gauge {
	if r == nil {
		return nil
	}
	return r.lookup(name, help, kindGauge, nil, nil).with(nil).gauge
}

// GaugeFunc registers a gauge whose value is read at Gather time —
// for externally owned values like queue depths. fn must be safe for
// concurrent use.
func (r *Registry) GaugeFunc(name, help string, fn func() int64) {
	if r == nil {
		return
	}
	f := r.lookup(name, help, kindGaugeFunc, nil, nil)
	f.mu.Lock()
	defer f.mu.Unlock()
	f.series[""] = &series{fn: fn}
}

// GaugeFuncWith registers a labeled gather-time gauge — one series of
// a labeled family whose value is read from fn at every Gather. Used
// for externally owned per-instance values (e.g. per-backend in-flight
// counts in the cluster router). fn must be safe for concurrent use;
// re-registering the same label set replaces the previous fn.
func (r *Registry) GaugeFuncWith(name, help string, labelNames, labelValues []string, fn func() int64) {
	if r == nil {
		return
	}
	f := r.lookup(name, help, kindGaugeFunc, labelNames, nil)
	if len(labelValues) != len(labelNames) {
		panic(fmt.Sprintf("telemetry: metric %s wants %d label value(s), got %d",
			name, len(labelNames), len(labelValues)))
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	f.series[seriesKey(labelValues)] = &series{
		labels: append([]string(nil), labelValues...),
		fn:     fn,
	}
}

// Histogram returns the unlabeled histogram with the given ascending
// bucket upper bounds (the +Inf bucket is implicit).
func (r *Registry) Histogram(name, help string, bounds []uint64) *Histogram {
	if r == nil {
		return nil
	}
	checkBounds(name, bounds)
	return r.lookup(name, help, kindHistogram, nil, bounds).with(nil).hist
}

// HistogramVec declares a labeled histogram family.
func (r *Registry) HistogramVec(name, help string, bounds []uint64, labelNames ...string) *HistogramVec {
	if r == nil {
		return nil
	}
	checkBounds(name, bounds)
	return &HistogramVec{f: r.lookup(name, help, kindHistogram, labelNames, bounds)}
}

func checkBounds(name string, bounds []uint64) {
	if len(bounds) == 0 {
		panic("telemetry: histogram " + name + " needs at least one bucket bound")
	}
	for i := 1; i < len(bounds); i++ {
		if bounds[i] <= bounds[i-1] {
			panic("telemetry: histogram " + name + " bounds must be strictly ascending")
		}
	}
}

// CounterVec hands out per-label-set counters. Resolve handles once
// at wiring time; With does a map lookup under a mutex.
type CounterVec struct {
	f   *family
	pre []string // label values fixed by Curry, prepended in With
}

// With returns the counter for the label values (nil on a nil vec).
func (v *CounterVec) With(values ...string) *Counter {
	if v == nil {
		return nil
	}
	if len(v.pre) > 0 {
		values = append(append(make([]string, 0, len(v.pre)+len(values)), v.pre...), values...)
	}
	return v.f.with(values).ctr
}

// Curry returns a view of the vec with the leading label values fixed —
// how a component that only knows its own label dimension (say, kill
// class) records into a family keyed by more (scheme, class). Nil vecs
// curry to nil.
func (v *CounterVec) Curry(values ...string) *CounterVec {
	if v == nil {
		return nil
	}
	return &CounterVec{f: v.f, pre: append(append([]string(nil), v.pre...), values...)}
}

// HistogramVec hands out per-label-set histograms.
type HistogramVec struct{ f *family }

// With returns the histogram for the label values (nil on a nil vec).
func (v *HistogramVec) With(values ...string) *Histogram {
	if v == nil {
		return nil
	}
	return v.f.with(values).hist
}

// Label is one name=value pair in a snapshot.
type Label struct {
	Name  string `json:"name"`
	Value string `json:"value"`
}

// BucketCount is one histogram bucket in a snapshot: the cumulative
// count of observations ≤ UpperBound (UpperInf marks +Inf).
type BucketCount struct {
	UpperBound uint64 `json:"le"`
	UpperInf   bool   `json:"le_inf,omitempty"`
	Count      uint64 `json:"count"`
}

// Series is one instrument's point-in-time value.
type Series struct {
	Labels []Label `json:"labels,omitempty"`
	// Value carries counters (uint64) and gauges (int64, stored
	// two's-complement in a uint64 for counters' sake — GaugeValue
	// is the signed view).
	Value      uint64        `json:"value,omitempty"`
	GaugeValue int64         `json:"gauge_value,omitempty"`
	Buckets    []BucketCount `json:"buckets,omitempty"`
	Sum        uint64        `json:"sum,omitempty"`
	Count      uint64        `json:"count,omitempty"`
}

// Family is all series of one metric, sorted by label values.
type Family struct {
	Name   string   `json:"name"`
	Help   string   `json:"help,omitempty"`
	Type   string   `json:"type"`
	Series []Series `json:"series"`
}

// MetricsSnapshot is the full registry state at one instant.
type MetricsSnapshot struct {
	Time     uint64   `json:"time"`
	Families []Family `json:"families"`
}

// Gather snapshots every family, sorted by name and label values so
// the result is deterministic for deterministic inputs. A nil
// registry gathers an empty snapshot.
func (r *Registry) Gather() MetricsSnapshot {
	if r == nil {
		return MetricsSnapshot{}
	}
	snap := MetricsSnapshot{Time: r.Now()}
	r.mu.Lock()
	fams := make([]*family, 0, len(r.fams))
	for _, f := range r.fams {
		fams = append(fams, f)
	}
	r.mu.Unlock()
	sort.Slice(fams, func(i, j int) bool { return fams[i].name < fams[j].name })

	for _, f := range fams {
		out := Family{Name: f.name, Help: f.help, Type: f.kind.String()}
		f.mu.Lock()
		keys := make([]string, 0, len(f.series))
		for k := range f.series {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		for _, k := range keys {
			s := f.series[k]
			var labels []Label
			for i, n := range f.labelNames {
				labels = append(labels, Label{Name: n, Value: s.labels[i]})
			}
			se := Series{Labels: labels}
			switch f.kind {
			case kindCounter:
				se.Value = s.ctr.Value()
			case kindGauge:
				se.GaugeValue = s.gauge.Value()
			case kindGaugeFunc:
				se.GaugeValue = s.fn()
			case kindHistogram:
				var cum uint64
				for i := range s.hist.counts {
					cum += s.hist.counts[i].Value()
					bc := BucketCount{Count: cum}
					if i < len(f.bounds) {
						bc.UpperBound = f.bounds[i]
					} else {
						bc.UpperInf = true
					}
					se.Buckets = append(se.Buckets, bc)
				}
				se.Sum = s.hist.sum.Value()
				se.Count = s.hist.count.Value()
			}
			out.Series = append(out.Series, se)
		}
		f.mu.Unlock()
		snap.Families = append(snap.Families, out)
	}
	return snap
}
