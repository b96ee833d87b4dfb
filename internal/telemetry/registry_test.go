package telemetry

import (
	"sync"
	"testing"
)

// TestCounterConcurrentHammer drives one shared counter, one labeled
// vec, one gauge and one histogram from many goroutines under the
// race detector: the registry's promise is exact totals regardless of
// interleaving.
func TestCounterConcurrentHammer(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("hammer_total", "shared counter")
	vec := r.CounterVec("hammer_labeled_total", "labeled", "worker")
	g := r.Gauge("hammer_gauge", "adjusted")
	h := r.Histogram("hammer_hist", "observed", []uint64{10, 100, 1000})

	const (
		goroutines = 16
		perG       = 10_000
	)
	var wg sync.WaitGroup
	for i := 0; i < goroutines; i++ {
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			mine := vec.With([]string{"even", "odd"}[id%2])
			for j := 0; j < perG; j++ {
				c.Inc()
				mine.Add(2)
				g.Add(1)
				h.Observe(uint64(j % 2000))
				if j%1000 == 0 {
					// Concurrent Gather must not disturb totals.
					_ = r.Gather()
				}
			}
		}(i)
	}
	wg.Wait()

	if got, want := c.Value(), uint64(goroutines*perG); got != want {
		t.Errorf("counter = %d, want %d", got, want)
	}
	sum := vec.With("even").Value() + vec.With("odd").Value()
	if want := uint64(2 * goroutines * perG); sum != want {
		t.Errorf("vec total = %d, want %d", sum, want)
	}
	if got, want := g.Value(), int64(goroutines*perG); got != want {
		t.Errorf("gauge = %d, want %d", got, want)
	}
	snap := r.Gather()
	for _, f := range snap.Families {
		if f.Name != "hammer_hist" {
			continue
		}
		s := f.Series[0]
		if want := uint64(goroutines * perG); s.Count != want {
			t.Errorf("hist count = %d, want %d", s.Count, want)
		}
		inf := s.Buckets[len(s.Buckets)-1]
		if !inf.UpperInf || inf.Count != s.Count {
			t.Errorf("+Inf bucket = %+v, want cumulative count %d", inf, s.Count)
		}
	}
}

// TestHistogramBucketBoundaries pins the le semantics: an observation
// equal to a bound lands in that bound's bucket (cumulative-le, as
// Prometheus defines it), one past it lands in the next.
func TestHistogramBucketBoundaries(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("b_hist", "", []uint64{0, 10, 100})
	for _, v := range []uint64{0, 1, 10, 11, 100, 101, ^uint64(0)} {
		h.Observe(v)
	}
	snap := r.Gather()
	var s Series
	for _, f := range snap.Families {
		if f.Name == "b_hist" {
			s = f.Series[0]
		}
	}
	// Cumulative counts: le=0 ← {0}; le=10 ← {0,1,10}; le=100 ←
	// {0,1,10,11,100}; +Inf ← everything.
	wantCum := []uint64{1, 3, 5, 7}
	for i, b := range s.Buckets {
		if b.Count != wantCum[i] {
			t.Errorf("bucket %d cumulative = %d, want %d", i, b.Count, wantCum[i])
		}
	}
	if s.Count != 7 {
		t.Errorf("count = %d, want 7", s.Count)
	}
	want := uint64(0 + 1 + 10 + 11 + 100 + 101)
	want += ^uint64(0) // wraps; exact modular sum is part of the contract
	if s.Sum != want {
		t.Errorf("sum = %d, want %d", s.Sum, want)
	}
}

// TestNilHandles exercises the Nop contract: nil registry, vec,
// counter, gauge, histogram, event log and set all absorb calls.
func TestNilHandles(t *testing.T) {
	var r *Registry
	c := r.Counter("x_total", "")
	c.Inc()
	c.Add(5)
	if c.Value() != 0 {
		t.Error("nil counter read non-zero")
	}
	r.CounterVec("y_total", "", "l").With("v").Inc()
	r.Gauge("g", "").Set(3)
	r.Histogram("h", "", []uint64{1}).Observe(9)
	r.HistogramVec("hv", "", []uint64{1}, "l").With("v").Observe(9)
	r.GaugeFuncWith("gf", "", []string{"l"}, []string{"v"}, func() int64 { return 1 })
	r.SetClock(func() uint64 { return 1 })
	if r.Now() != 0 {
		t.Error("nil registry clock read non-zero")
	}
	if g := r.Gather(); len(g.Families) != 0 {
		t.Error("nil registry gathered families")
	}

	var l *EventLog
	l.Record(EvAuthFail, "s", "", 0)
	if l.Snapshot().NextSeq != 0 || l.Dropped() != 0 || l.Len() != 0 {
		t.Error("nil event log not empty")
	}

	if d := Nop.Dump(); len(d.Metrics.Families) != 0 || d.Events.Capacity != 0 {
		t.Error("Nop dump not empty")
	}
	Nop.Log().Record(EvShed, "", "", 0)
	Nop.Registry().Counter("z_total", "").Inc()
}

// TestRedefinitionPanics: redefining a metric with a different shape
// must fail loudly at wiring time.
func TestRedefinitionPanics(t *testing.T) {
	r := NewRegistry()
	r.Counter("dup_total", "")
	for _, fn := range []func(){
		func() { r.Gauge("dup_total", "") },
		func() { r.CounterVec("dup_total", "", "l") },
		func() { r.Counter("9bad", "") },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Error("expected panic")
				}
			}()
			fn()
		}()
	}
	// Same shape twice is idempotent, not a panic, and returns the
	// same underlying series.
	a, b := r.Counter("dup_total", ""), r.Counter("dup_total", "")
	a.Inc()
	if b.Value() != 1 {
		t.Error("re-registration returned a distinct counter")
	}
}

// TestGatherDeterminism: registration and label-creation order must
// not leak into the snapshot.
func TestGatherDeterminism(t *testing.T) {
	build := func(order []string) MetricsSnapshot {
		r := NewRegistry()
		r.SetClock(func() uint64 { return 42 })
		vec := r.CounterVec("det_total", "", "k")
		for _, v := range order {
			vec.With(v).Inc()
		}
		r.Counter("aaa_total", "").Add(7)
		return r.Gather()
	}
	a := Prometheus(build([]string{"z", "m", "a"}))
	b := Prometheus(build([]string{"a", "z", "m"}))
	if a != b {
		t.Errorf("snapshot depends on creation order:\n%s\nvs\n%s", a, b)
	}
}

func TestHistogramQuantile(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("pacstack_test_quantile", "", []uint64{10, 100, 1000})
	if got := h.Quantile(99, 100); got != 0 {
		t.Fatalf("empty histogram p99 = %d, want 0", got)
	}
	// 90 observations <= 10, 9 in (10,100], 1 in (100,1000].
	for i := 0; i < 90; i++ {
		h.Observe(5)
	}
	for i := 0; i < 9; i++ {
		h.Observe(50)
	}
	h.Observe(500)
	if got := h.Quantile(50, 100); got != 10 {
		t.Fatalf("p50 = %d, want 10", got)
	}
	if got := h.Quantile(99, 100); got != 100 {
		t.Fatalf("p99 = %d, want 100", got)
	}
	if got := h.Quantile(100, 100); got != 1000 {
		t.Fatalf("p100 = %d, want 1000", got)
	}
	if got := h.Count(); got != 100 {
		t.Fatalf("count = %d, want 100", got)
	}
	// Observations past the last bound saturate to 2*last.
	h2 := r.Histogram("pacstack_test_quantile_inf", "", []uint64{10})
	h2.Observe(99999)
	if got := h2.Quantile(99, 100); got != 20 {
		t.Fatalf("+Inf p99 = %d, want saturated 20", got)
	}
	var nilH *Histogram
	if nilH.Quantile(99, 100) != 0 || nilH.Count() != 0 {
		t.Fatal("nil histogram reads must be zero")
	}
}

func TestGaugeFuncWithLabels(t *testing.T) {
	r := NewRegistry()
	vals := []int64{3, 7}
	for i := range vals {
		i := i
		r.GaugeFuncWith("pacstack_test_inflight", "per-backend in-flight",
			[]string{"backend"}, []string{string(rune('0' + i))},
			func() int64 { return vals[i] })
	}
	snap := r.Gather()
	var fam *Family
	for i := range snap.Families {
		if snap.Families[i].Name == "pacstack_test_inflight" {
			fam = &snap.Families[i]
		}
	}
	if fam == nil || len(fam.Series) != 2 {
		t.Fatalf("family missing or wrong arity: %+v", fam)
	}
	for i, s := range fam.Series {
		if len(s.Labels) != 1 || s.Labels[0].Name != "backend" {
			t.Fatalf("series %d labels = %+v", i, s.Labels)
		}
		if s.GaugeValue != vals[i] {
			t.Fatalf("series %d value = %d, want %d", i, s.GaugeValue, vals[i])
		}
	}
}
