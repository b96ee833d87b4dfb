package mesh

import (
	"reflect"
	"testing"
)

func TestValidate(t *testing.T) {
	cases := []struct {
		name string
		link LinkConfig
		ok   bool
	}{
		{"zero link", LinkConfig{}, true},
		{"gray", Gray(), true},
		{"drop one", LinkConfig{Drop: 1}, false},
		{"drop negative", LinkConfig{Drop: -0.1}, false},
		{"flap down without period", LinkConfig{FlapDown: 5}, false},
		{"flap down >= period", LinkConfig{FlapPeriod: 10, FlapDown: 10}, false},
		{"flap ok", LinkConfig{FlapPeriod: 10, FlapDown: 3}, true},
		{"zero-length partition", LinkConfig{Partitions: []Window{{At: 5}}}, false},
		{"partition ok", LinkConfig{Partitions: []Window{{At: 5, Dur: 2}}}, true},
	}
	for _, c := range cases {
		err := c.link.Validate()
		if (err == nil) != c.ok {
			t.Errorf("%s: Validate() = %v, want ok=%v", c.name, err, c.ok)
		}
	}
	bad := Config{Links: map[int]LinkConfig{-1: {}}}
	if err := bad.Validate(); err == nil {
		t.Error("negative backend index validated")
	}
}

func TestOutageIsPureFunctionOfTime(t *testing.T) {
	l := LinkConfig{
		Partitions: []Window{{At: 100, Dur: 50}},
		FlapPeriod: 10,
		FlapDown:   3,
	}
	// Partition wins inside its window; boundaries heal exactly at At+Dur.
	for _, tc := range []struct {
		at   uint64
		want Cause
	}{
		{100, CausePartition},
		{149, CausePartition},
		{150, CauseFlap}, // healed, but 150%10=0 < 3: flap phase
		{155, CauseNone},
		{63, CauseNone}, // 63%10=3, flap over
		{62, CauseFlap}, // 62%10=2 < 3
		{60, CauseFlap},
	} {
		if got := outage(l, tc.at); got != tc.want {
			t.Errorf("outage at %d = %v, want %v", tc.at, got, tc.want)
		}
	}
	l.Down = true
	if got := outage(l, 63); got != CauseDown {
		t.Errorf("operator down not dominant: got %v", got)
	}
}

func TestSampleDeterministicPerSeed(t *testing.T) {
	cfg := Config{Links: map[int]LinkConfig{0: Gray(), 2: {Latency: 10, Jitter: 100}}}
	run := func() []Verdict {
		m, err := New(cfg, 7)
		if err != nil {
			t.Fatal(err)
		}
		var out []Verdict
		for i := 0; i < 200; i++ {
			out = append(out, m.Sample(i%3, uint64(i)*1000))
		}
		return out
	}
	a, b := run(), run()
	if !reflect.DeepEqual(a, b) {
		t.Fatal("same seed produced different fault sequences")
	}
	// A different seed must reshuffle the stochastic draws somewhere.
	m2, _ := New(cfg, 8)
	diff := false
	for i, v := range a {
		if m2.Sample(i%3, uint64(i)*1000) != v {
			diff = true
			break
		}
	}
	if !diff {
		t.Fatal("seed does not address the per-link entropy")
	}
}

func TestSampleStreamsIndependentPerLink(t *testing.T) {
	// Sampling link 0 must not perturb link 2's stream: draws are
	// addressed by link identity, not by global sampling order.
	cfg := Config{Links: map[int]LinkConfig{0: Gray(), 2: {Latency: 10, Jitter: 100}}}
	solo, _ := New(cfg, 7)
	var want []Verdict
	for i := 0; i < 50; i++ {
		want = append(want, solo.Sample(2, uint64(i)))
	}
	mixed, _ := New(cfg, 7)
	var got []Verdict
	for i := 0; i < 50; i++ {
		mixed.Sample(0, uint64(i)) // interleave draws on the other link
		got = append(got, mixed.Sample(2, uint64(i)))
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatal("link 2's stream depends on link 0's sampling order")
	}
}

func TestNilMeshIsPerfect(t *testing.T) {
	var m *Mesh
	if !m.Up(0, 0) {
		t.Error("nil mesh reports a down link")
	}
	if v := m.Sample(3, 99); v.Drop || v.Latency != 0 {
		t.Errorf("nil mesh faulted a message: %+v", v)
	}
	if m.Backends() != nil {
		t.Error("nil mesh lists backends")
	}
	if !reflect.DeepEqual(m.Link(0), LinkConfig{}) {
		t.Error("nil mesh has a non-zero link")
	}
}

func TestBackendsSortedAndUp(t *testing.T) {
	m, err := New(Config{Links: map[int]LinkConfig{
		5: {},
		1: {Down: true},
		3: {Partitions: []Window{{At: 0, Dur: 10}}},
	}}, 1)
	if err != nil {
		t.Fatal(err)
	}
	if got := m.Backends(); !reflect.DeepEqual(got, []int{1, 3, 5}) {
		t.Fatalf("Backends() = %v", got)
	}
	if m.Up(1, 0) {
		t.Error("operator-down link reports up")
	}
	if m.Up(3, 5) {
		t.Error("partitioned link reports up")
	}
	if !m.Up(3, 10) {
		t.Error("healed link reports down")
	}
	if !m.Up(5, 0) || !m.Up(42, 0) {
		t.Error("perfect/unconfigured link reports down")
	}
}

func TestCauseStrings(t *testing.T) {
	for c, want := range map[Cause]string{
		CauseNone: "none", CauseDrop: "drop", CausePartition: "partition",
		CauseFlap: "flap", CauseDown: "down",
	} {
		if c.String() != want {
			t.Errorf("Cause(%d).String() = %q, want %q", c, c.String(), want)
		}
	}
}
