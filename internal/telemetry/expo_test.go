package telemetry

import (
	"encoding/json"
	"strings"
	"testing"
)

// goldenSet builds a small, fully deterministic telemetry set.
func goldenSet() *Set {
	tick := uint64(99)
	s := New(Options{EventCap: 8, Clock: func() uint64 { return tick }})
	r := s.Reg
	r.Counter("pacstack_pa_auth_fail_total", "aut* rejections").Add(3)
	v := r.CounterVec("pacstack_serve_requests_total", "requests by outcome", "outcome")
	v.With("ok").Add(10)
	v.With("detected").Add(2)
	r.Gauge("pacstack_serve_inflight", "admitted, unfinished requests").Set(-1)
	h := r.Histogram("pacstack_serve_request_cycles", "victim cycles per request", []uint64{1000, 10000})
	h.Observe(500)
	h.Observe(10000)
	h.Observe(20000)
	s.Events.Record(EvAuthFail, "pacstack", `q"uote`+"\n", 7)
	return s
}

// TestPrometheusGolden pins the exact text exposition, including
// sorting, histogram le rendering and label escaping.
func TestPrometheusGolden(t *testing.T) {
	got := Prometheus(goldenSet().Reg.Gather())
	want := strings.Join([]string{
		`# HELP pacstack_pa_auth_fail_total aut* rejections`,
		`# TYPE pacstack_pa_auth_fail_total counter`,
		`pacstack_pa_auth_fail_total 3`,
		`# HELP pacstack_serve_inflight admitted, unfinished requests`,
		`# TYPE pacstack_serve_inflight gauge`,
		`pacstack_serve_inflight -1`,
		`# HELP pacstack_serve_request_cycles victim cycles per request`,
		`# TYPE pacstack_serve_request_cycles histogram`,
		`pacstack_serve_request_cycles_bucket{le="1000"} 1`,
		`pacstack_serve_request_cycles_bucket{le="10000"} 2`,
		`pacstack_serve_request_cycles_bucket{le="+Inf"} 3`,
		`pacstack_serve_request_cycles_sum 30500`,
		`pacstack_serve_request_cycles_count 3`,
		`# HELP pacstack_serve_requests_total requests by outcome`,
		`# TYPE pacstack_serve_requests_total counter`,
		`pacstack_serve_requests_total{outcome="detected"} 2`,
		`pacstack_serve_requests_total{outcome="ok"} 10`,
		``,
	}, "\n")
	if got != want {
		t.Errorf("prometheus exposition mismatch:\n--- got ---\n%s\n--- want ---\n%s", got, want)
	}
}

// TestDumpJSONGolden pins the JSON dump shape: injected-clock
// timestamps, named event kinds, sorted families.
func TestDumpJSONGolden(t *testing.T) {
	d := goldenSet().Dump()
	b, err := json.Marshal(d)
	if err != nil {
		t.Fatal(err)
	}
	got := string(b)
	for _, frag := range []string{
		`"time":99`,
		`"kind":"auth_fail"`,
		`"subject":"pacstack"`,
		`"next_seq":1`,
		`"capacity":8`,
		`"name":"pacstack_pa_auth_fail_total"`,
		`"le_inf":true`,
	} {
		if !strings.Contains(got, frag) {
			t.Errorf("dump JSON missing %s in:\n%s", frag, got)
		}
	}
	// Identical builds marshal byte-identically — the property the
	// soak and crash-matrix goldens rest on.
	b2, _ := json.Marshal(goldenSet().Dump())
	if string(b2) != got {
		t.Error("two identical sets marshalled differently")
	}
}

// TestPrometheusLabelEscaping: quotes, backslashes and newlines in
// label values must be escaped, not break the line format.
func TestPrometheusLabelEscaping(t *testing.T) {
	r := NewRegistry()
	r.CounterVec("esc_total", "", "v").With("a\"b\\c\nd").Inc()
	got := Prometheus(r.Gather())
	if !strings.Contains(got, `esc_total{v="a\"b\\c\nd"} 1`) {
		t.Errorf("escaping wrong:\n%s", got)
	}
}
