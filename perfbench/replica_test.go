package main

import (
	"context"
	"testing"
	"time"

	"pacstack/internal/serve"
)

func TestTracerSelfTimes(t *testing.T) {
	tr := newTracer(true)
	root := tr.begin("serve.request", -1, 0)
	child := tr.begin("kernel.run", root, 0)
	time.Sleep(2 * time.Millisecond)
	tr.finish(child)
	open := tr.begin("fault.classify", root, 0) // left open, as by a panic
	tr.finish(root)
	if tr.spans[open].end != tr.spans[root].end {
		t.Fatalf("open span not closed with its root: %v vs %v", tr.spans[open].end, tr.spans[root].end)
	}
	st := spanStats(tr.spans, func(int) bool { return true })
	total := st.total["serve.request"][0]
	self := st.self["serve.request"][0]
	kids := st.total["kernel.run"][0] + st.total["fault.classify"][0]
	if self != total-kids || self < 0 {
		t.Fatalf("root self %v, want total %v minus children %v", self, total, kids)
	}
	if st.total["kernel"][0] != st.total["kernel.run"][0] {
		t.Fatal("layer total differs from its only span")
	}
}

// TestReplicaMatchesServer: the replica answers every pair of the
// daemon workloads exactly as Server.Do does, and both match the
// reference interpreter.
func TestReplicaMatchesServer(t *testing.T) {
	pairs := []pair{{"chain", "pacstack"}, {"nginx", "baseline"}, {"502.gcc_r", "pacstack-nomask"}, {"557.xz_r", "shadowstack"}}
	refs, err := references(pairs, 3)
	if err != nil {
		t.Fatal(err)
	}
	rep, err := newReplica(pairs)
	if err != nil {
		t.Fatal(err)
	}
	srv := serve.New(serve.Config{Warm: true})
	for i, p := range pairs {
		req := request{Index: i, Request: serve.Request{Workload: p.Workload, Scheme: p.Scheme, Seed: requestSeed(3, i)}}
		got, err := rep.do(context.Background(), req, newTracer(true))
		if c := checkOutcome(req, got, err, refs); c.verdict != verdictOK {
			t.Fatalf("%s/%s: replica %v %q", p.Workload, p.Scheme, c.verdict, c.kind)
		}
		want, err := srv.Do(context.Background(), req.Request)
		if err != nil {
			t.Fatal(err)
		}
		if *got != *want {
			t.Fatalf("%s/%s: replica %+v, server %+v", p.Workload, p.Scheme, *got, *want)
		}
	}
}
