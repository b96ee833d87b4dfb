// The discrete-event core every soak replay runs on: the serving
// tier's (Soak) and the cluster's (internal/cluster). A soak has two
// phases:
//
//  1. Precompute executes every request once on a parallel worker pool
//     (internal/par). A request's seed comes from its identity, never
//     from scheduling, so its kernel keys, chaos draws and
//     classification are a pure function of the soak seed. This is
//     where wall-clock concurrency lives.
//  2. A replay drives the traffic dynamics serially through a Queue of
//     events ordered by (virtual time, push order), charging each
//     precomputed Outcome to a Tally once, at its terminal event. The
//     queue's clock stamps the soak's telemetry. Events are recorded
//     from the replay only; the parallel phase only adds counters,
//     which commute.
//
// Same seed and knobs in, byte-identical report and telemetry dump out
// at any worker-pool width; TestSoakGoldens pins both.

package serve

import (
	"container/heap"
	"context"
	"errors"
	"fmt"
	"math/rand"

	"pacstack/internal/fault"
	"pacstack/internal/par"
	"pacstack/internal/resilience"
	"pacstack/internal/telemetry"
	"pacstack/internal/traffic"
)

// Mix folds two values into one seed (splitmix64 finalizer). Request,
// client and backend identity address their entropy through it;
// scheduling never does.
func Mix(a, b int64) int64 {
	z := uint64(a)*0x9e3779b97f4a7c15 + uint64(b)
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return int64(z ^ (z >> 31))
}

// Outcome is one precomputed request execution.
type Outcome struct {
	Class       traffic.Outcome // OutcomeOK, OutcomeDetected or OutcomeSilent
	Cause       fault.Cause
	Cycles      uint64
	Healed      bool
	Injected    int
	Checkpoints int
	Restores    int
	TornCommits int
}

// ArrivalSeed derives an open-loop request's seed from its arrival
// index.
func ArrivalSeed(seed int64) func(id int) int64 {
	return func(id int) int64 { return Mix(seed, int64(id)+0x5f01) }
}

// ArrivalSchemes lists the arrivals' schemes in first-appearance
// order.
func ArrivalSchemes(arrivals []traffic.Arrival) []string {
	var out []string
	seen := map[string]bool{}
	for _, a := range arrivals {
		if !seen[a.Scheme] {
			seen[a.Scheme] = true
			out = append(out, a.Scheme)
		}
	}
	return out
}

// Precompute executes every arrival once, in parallel, with the seed
// seed(id), and returns the outcomes indexed like arrivals together
// with the regular inner server. base carries the chaos, heal,
// checkpoint, warm-pool and telemetry knobs. The inner servers are wide
// open, because the replay models queueing and breaking itself; they
// share base's registry and get no event log. Poison arrivals run on a
// second server that arms an injection on every attempt, which leaves
// the seeds of regular traffic untouched.
func Precompute(ctx context.Context, base Config, arrivals []traffic.Arrival, seed func(id int) int64) ([]Outcome, *Server, error) {
	reg := base.Telemetry.Registry()
	if reg == nil && base.Warm {
		reg = telemetry.NewRegistry() // the warm report reads the pool counters
	}
	base.Telemetry = &telemetry.Set{Reg: reg}
	base.Workers, base.Queue = len(arrivals)+1, len(arrivals) // never shed
	base.BreakerThreshold = -1
	srv := New(base)
	base.Chaos, base.ChaosRate = true, 1
	base.ChaosKinds = []fault.Kind{fault.KindRetAddr, fault.KindStackSmash}
	poison := New(base)
	server := func(a traffic.Arrival) *Server {
		if a.Poison {
			return poison
		}
		return srv
	}
	// Resolve every workload first, so an unknown name fails fast and
	// the parallel phase never contends on an engine build.
	for _, a := range arrivals {
		if _, err := server(a).engine(a.Workload); err != nil {
			return nil, nil, err
		}
	}

	outcomes := make([]Outcome, len(arrivals))
	err := par.ForEachCtx(ctx, len(arrivals), func(id int) error {
		a := arrivals[id]
		s := seed(id)
		if s == 0 {
			s = 1 // zero asks the server to pick; keep the request identity-addressed
		}
		res, err := server(a).Do(context.Background(), Request{Workload: a.Workload, Scheme: a.Scheme, Seed: s})
		var ce *CorruptionError
		var se *SilentCorruptionError
		switch {
		case err == nil:
			outcomes[id] = Outcome{
				Class: traffic.OutcomeOK, Cycles: res.Cycles, Healed: res.Healed, Injected: res.Injected,
				Checkpoints: res.Checkpoints, Restores: res.Restores, TornCommits: res.TornCommits,
			}
		case errors.As(err, &ce):
			outcomes[id] = Outcome{Class: traffic.OutcomeDetected, Cause: ce.Cause, Cycles: ce.Cycles, Injected: ce.Injected}
		case errors.As(err, &se):
			outcomes[id] = Outcome{Class: traffic.OutcomeSilent, Cycles: se.Cycles}
		default:
			return fmt.Errorf("soak precompute (request %d, %s/%s): %w", id, a.Workload, a.Scheme, err)
		}
		return nil
	})
	if err != nil {
		return nil, nil, err
	}
	return outcomes, srv, nil
}

// Event is one step of a soak replay. Kind is the replay's own event
// vocabulary and ID names the request; Attempt, Backend and Gen carry
// whatever the kind needs.
type Event struct {
	At                         uint64
	Kind, ID, Attempt, Backend int
	Gen                        int
	seq                        int
}

// Queue holds a replay's pending events and its virtual clock. Events
// pop in (At, push order), so simultaneous events run first in, first
// out whatever the heap's layout.
type Queue struct {
	now    uint64
	seq    int
	events eventHeap
}

// Now is the time of the last popped event.
func (q *Queue) Now() uint64 { return q.now }

// Len reports how many events are pending.
func (q *Queue) Len() int { return len(q.events) }

// Push schedules e.
func (q *Queue) Push(e Event) {
	e.seq = q.seq
	q.seq++
	heap.Push(&q.events, e)
}

// Peek returns the next event without removing it; the queue must not
// be empty.
func (q *Queue) Peek() Event { return q.events[0] }

// Pop removes the next event and advances the clock to it.
func (q *Queue) Pop() Event {
	e := heap.Pop(&q.events).(Event)
	q.now = e.At
	return e
}

// Stamp makes tel's metrics and events read the queue's clock, so
// every time in a soak's dump is in virtual cycles. A nil set is left
// alone.
func (q *Queue) Stamp(tel *telemetry.Set) {
	if tel != nil {
		tel.Registry().SetClock(q.Now)
		tel.Log().SetClock(q.Now)
	}
}

type eventHeap []Event

func (h eventHeap) Len() int { return len(h) }
func (h eventHeap) Less(i, j int) bool {
	if h[i].At != h[j].At {
		return h[i].At < h[j].At
	}
	return h[i].seq < h[j].seq
}
func (h eventHeap) Swap(i, j int) { h[i], h[j] = h[j], h[i] }
func (h *eventHeap) Push(x any)   { *h = append(*h, x.(Event)) }
func (h *eventHeap) Pop() any {
	old := *h
	e := old[len(old)-1]
	*h = old[:len(old)-1]
	return e
}

// SchemeCount pairs a scheme name with a counter, kept as a sorted
// slice (not a map) so the report marshals identically every run.
type SchemeCount struct {
	Scheme string `json:"scheme"`
	Count  uint64 `json:"count"`
}

// Counts is a terminal-outcome breakdown: the run totals, each
// per-scheme row and each cluster backend row keep one.
type Counts struct {
	OK       int `json:"ok"`
	Healed   int `json:"healed"`
	Detected int `json:"detected"`
	Silent   int `json:"silent"`
}

// Count adds one executed request's outcome.
func (c *Counts) Count(o Outcome) {
	switch o.Class {
	case traffic.OutcomeOK:
		c.OK++
		if o.Healed {
			c.Healed++
		}
	case traffic.OutcomeDetected:
		c.Detected++
	case traffic.OutcomeSilent:
		c.Silent++
	}
}

// SoakRow is the per-scheme outcome breakdown.
type SoakRow struct {
	Scheme   string `json:"scheme"`
	Requests int    `json:"requests"`
	Counts
	GaveUp int `json:"gave_up"`
}

// Tally is the ledger a soak replay keeps: terminal totals, detections
// by cause, rejection counters and per-scheme rows, in the order the
// schemes first reach a terminal state. The soak reports embed it, so
// its fields marshal in place.
type Tally struct {
	Issued int `json:"issued"`
	Counts
	GaveUp int `json:"gave_up"`

	ByCause [fault.NumCauses]int `json:"-"`
	// Causes is ByCause in stable, name-keyed, zero-suppressed form.
	Causes []SchemeCount `json:"detected_by_cause,omitempty"`

	Injected int `json:"injected_faults"`
	// Checkpoint traffic across all executed requests: snapshot
	// commits, warm restores, and commits torn by a simulated
	// mid-checkpoint machine death. The soak gate's invariant: torn
	// commits never produce a silent outcome.
	Checkpoints int `json:"checkpoints,omitempty"`
	Restores    int `json:"restores,omitempty"`
	TornCommits int `json:"torn_commits,omitempty"`

	Retries       int `json:"retries"`
	Sheds         int `json:"sheds"`
	BreakerDenied int `json:"breaker_denied"`

	rows  map[string]*SoakRow
	order []string
}

func (t *Tally) row(scheme string) *SoakRow {
	r, ok := t.rows[scheme]
	if !ok {
		if t.rows == nil {
			t.rows = make(map[string]*SoakRow)
		}
		r = &SoakRow{Scheme: scheme}
		t.rows[scheme] = r
		t.order = append(t.order, scheme)
	}
	return r
}

// Done charges one executed request's outcome to the totals and its
// scheme's row, and logs its request_done event.
func (t *Tally) Done(log *telemetry.EventLog, scheme string, o Outcome) {
	r := t.row(scheme)
	r.Requests++
	r.Count(o)
	t.Count(o)
	detail := "ok"
	switch o.Class {
	case traffic.OutcomeDetected:
		t.ByCause[o.Cause]++
		detail = "detected:" + o.Cause.String()
	case traffic.OutcomeSilent:
		detail = "silent"
	}
	t.Injected += o.Injected
	t.Checkpoints += o.Checkpoints
	t.Restores += o.Restores
	t.TornCommits += o.TornCommits
	log.Record(telemetry.EvRequestDone, scheme, detail, o.Cycles)
}

// GiveUp charges one request that ended without an execution.
func (t *Tally) GiveUp(scheme string) {
	t.GaveUp++
	r := t.row(scheme)
	r.GaveUp++
	r.Requests++
}

// Close fills Causes from ByCause and returns the per-scheme rows.
func (t *Tally) Close() []SoakRow {
	for c := 0; c < fault.NumCauses; c++ {
		if t.ByCause[c] > 0 {
			t.Causes = append(t.Causes, SchemeCount{Scheme: fault.Cause(c).String(), Count: uint64(t.ByCause[c])})
		}
	}
	var rows []SoakRow
	for _, name := range t.order {
		rows = append(rows, *t.rows[name])
	}
	return rows
}

// Clients is the closed-loop arrival process: N virtual clients each
// issue Requests requests in turn, the first one think time after the
// start and each next one a think time after the previous one ended.
// Request id is client*Requests + index, and index i runs scheme
// i mod len(schemes). Each client draws its think times, uniform in
// [think/2, think], from its own seeded stream.
type Clients struct {
	N, Requests int
	think       uint64
	thinks      []*rand.Rand
}

// NewClients returns n clients of requests requests each.
func NewClients(seed int64, n, requests int, think uint64) *Clients {
	c := &Clients{N: n, Requests: requests, think: think, thinks: make([]*rand.Rand, n)}
	for i := range c.thinks {
		c.thinks[i] = rand.New(rand.NewSource(Mix(seed, int64(i)+0x2002)))
	}
	return c
}

// Arrivals lists the clients' requests by id.
func (c *Clients) Arrivals(workload string, schemes []string) []traffic.Arrival {
	out := make([]traffic.Arrival, c.N*c.Requests)
	for id := range out {
		out[id] = traffic.Arrival{Workload: workload, Scheme: schemes[id%c.Requests%len(schemes)], Slow: 1}
	}
	return out
}

// Seed is request id's seed, derived from its (client, index)
// identity.
func (c *Clients) Seed(id int) int64 {
	return Mix(int64(id/c.Requests)+0x5f, int64(id%c.Requests)+1)
}

// Start schedules every client's first request as a kind event.
func (c *Clients) Start(q *Queue, kind int) {
	for i := 0; i < c.N; i++ {
		q.Push(Event{At: c.thinkTime(i), Kind: kind, ID: i * c.Requests})
	}
}

// Next schedules the request after id on its client, one think time
// from now; after a client's last request it schedules nothing.
func (c *Clients) Next(q *Queue, kind, id int) {
	if (id+1)%c.Requests != 0 {
		q.Push(Event{At: q.Now() + c.thinkTime(id/c.Requests), Kind: kind, ID: id + 1})
	}
}

func (c *Clients) thinkTime(client int) uint64 {
	half := c.think / 2
	return half + uint64(c.thinks[client].Int63n(int64(c.think-half+1)))
}

// Backoffs hands out a replay's seeded retry-backoff streams, each
// built on first use: one per closed-loop client, or one per arrival in
// an open-loop run.
type Backoffs struct {
	base, cap  uint64
	seed, salt int64
	per        int // request ids per stream
	streams    map[int]*resilience.Backoff
}

// NewBackoffs returns the streams of clients, or of the arrivals of an
// open-loop run when clients is nil.
func NewBackoffs(seed int64, base, cap uint64, clients *Clients) *Backoffs {
	b := &Backoffs{base: base, cap: cap, seed: seed, salt: 0x3003, per: 1, streams: make(map[int]*resilience.Backoff)}
	if clients != nil {
		b.salt, b.per = 0x1001, clients.Requests
	}
	return b
}

// Delay is the wait before request id's retry after attempt.
func (b *Backoffs) Delay(id, attempt int) uint64 {
	key := id / b.per
	s, ok := b.streams[key]
	if !ok {
		s = resilience.NewBackoff(b.base, b.cap, Mix(b.seed, int64(key)+b.salt))
		b.streams[key] = s
	}
	return s.Delay(attempt)
}
