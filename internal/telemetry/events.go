package telemetry

import (
	"encoding/json"
	"fmt"
	"sync"
)

// EventKind is the security-event taxonomy: the typed chain events the
// paper's operators would watch. The enum is append-only — exposition
// and dump diffs key on the string names below.
type EventKind uint8

// The event taxonomy. Of the chain-level kinds only auth_fail is
// recorded (pa.Trace). pac_issued, auth_ok and mask would fire once per
// PA operation and swamp the ring, so internal/pa only counts those
// operations; the kinds stay defined so dumps that carry them parse.
const (
	// EvPACIssued: a pac* instruction sealed a pointer (pacia/pacib).
	EvPACIssued EventKind = iota
	// EvAuthOK: an aut* instruction verified a chain link.
	EvAuthOK
	// EvAuthFail: an aut* instruction rejected its input — a broken
	// auth_i = H_k(ret_i, aret_{i-1}) link, the paper's core signal.
	EvAuthFail
	// EvMask: a PAC-mask derivation (PAC over the zero pointer,
	// Listing 3). Masking and unmasking derive the same value — XOR is
	// an involution — so one kind covers both sides.
	EvMask
	// EvUnmask is reserved for call sites that can tell the strip-side
	// derivation apart from the apply side (the __acs_validate walk).
	EvUnmask
	// EvReseed: a thread spawn re-seeded the chain register
	// (Section 4.3).
	EvReseed
	// EvSigframeBind: the kernel bound a signal frame into the
	// Appendix B sigreturn chain.
	EvSigframeBind
	// EvKill: the kernel killed a process; Subject is the kill class.
	EvKill
	// EvCommit / EvRestore: a checkpoint durably committed / a
	// supervisor warm-restored one.
	EvCommit
	EvRestore
	// EvTornCommit: a snapshot commit died with the storage.
	EvTornCommit
	// EvBreaker: a circuit breaker changed state; Subject is the
	// backend, Detail the "from->to" transition.
	EvBreaker
	// EvShed / EvRetry: admission shed a request / a client retried
	// after a rejection.
	EvShed
	EvRetry
	// EvRequestDone: a request reached a terminal outcome; Subject is
	// the scheme, Detail the outcome class.
	EvRequestDone
	// EvProbe: a half-open breaker resolved a batch of racing probe
	// candidates; Subject is the backend, Detail the seeded grant order.
	EvProbe
	// EvMigrate: a checkpointed machine was shipped from a dead backend
	// and restored (with re-seeded keys) on a survivor; Subject is the
	// scheme, Detail "from->to", Value the shipped image bytes.
	EvMigrate
	// EvFailover: a backend died and the cluster absorbed the failure
	// (budget charged, machines migrated, in-flight work replayed);
	// Subject is the killed backend, Detail the survivor.
	EvFailover
	// EvResize: the adaptive admission controller resized the worker
	// limit; Detail is the "old->new" transition, Value the new limit.
	EvResize
	// EvHedge: a hedged attempt launched on the next-ranked backend
	// after the per-class hedge delay; Subject is the class, Detail
	// "primary->hedge" backend indices, Value the request id.
	EvHedge
	// EvEject: outlier detection ejected a gray backend from the
	// routing rotation (distinct from its breaker state); Subject is
	// the backend, Detail the triggering signal, Value the cooldown.
	EvEject
	// EvBrownout: the priority brownout controller changed its shedding
	// level; Detail is the "old->new" transition, Value the new level.
	EvBrownout
	// EvLinkDrop: the network fault mesh dropped a message on a
	// (router,backend) link; Subject is the backend, Detail the cause
	// (drop, partition, flap), Value the request id.
	EvLinkDrop
	// EvMeshSet: the operator replaced the live fleet's mesh link
	// state over /v1/mesh; Detail summarises the new config.
	EvMeshSet
	numEventKinds
)

var eventKindNames = [numEventKinds]string{
	EvPACIssued:    "pac_issued",
	EvAuthOK:       "auth_ok",
	EvAuthFail:     "auth_fail",
	EvMask:         "mask",
	EvUnmask:       "unmask",
	EvReseed:       "reseed",
	EvSigframeBind: "sigframe_bind",
	EvKill:         "kill",
	EvCommit:       "checkpoint_commit",
	EvRestore:      "checkpoint_restore",
	EvTornCommit:   "torn_commit",
	EvBreaker:      "breaker",
	EvShed:         "shed",
	EvRetry:        "retry",
	EvRequestDone:  "request_done",
	EvProbe:        "breaker_probe",
	EvMigrate:      "migrate",
	EvFailover:     "failover",
	EvResize:       "resize",
	EvHedge:        "hedge",
	EvEject:        "outlier_eject",
	EvBrownout:     "brownout",
	EvLinkDrop:     "link_drop",
	EvMeshSet:      "mesh_set",
}

// String names the kind.
func (k EventKind) String() string {
	if int(k) < len(eventKindNames) && eventKindNames[k] != "" {
		return eventKindNames[k]
	}
	return fmt.Sprintf("EventKind(%d)", int(k))
}

// MarshalJSON emits the kind as its name, so dumps read and diff by
// taxonomy name rather than enum position.
func (k EventKind) MarshalJSON() ([]byte, error) {
	return []byte(`"` + k.String() + `"`), nil
}

// UnmarshalJSON parses a kind by name, so dump files round-trip
// (cmd/pacstack-metrics re-reads what WriteJSON wrote).
func (k *EventKind) UnmarshalJSON(b []byte) error {
	var name string
	if err := json.Unmarshal(b, &name); err != nil {
		return err
	}
	for i, n := range eventKindNames {
		if n == name {
			*k = EventKind(i)
			return nil
		}
	}
	return fmt.Errorf("telemetry: unknown event kind %q", name)
}

// Event is one recorded security event. Seq is assigned at record
// time and never reused; Time comes from the log's clock.
type Event struct {
	Seq     uint64    `json:"seq"`
	Time    uint64    `json:"time"`
	Kind    EventKind `json:"kind"`
	Subject string    `json:"subject,omitempty"`
	Detail  string    `json:"detail,omitempty"`
	Value   uint64    `json:"value,omitempty"`
}

// EventLog is a bounded ring buffer of events. When full, recording
// evicts the oldest entry and counts the drop — the log never blocks
// and never grows. All methods are safe for concurrent use and for a
// nil receiver (then they are no-ops / read empty).
type EventLog struct {
	mu      sync.Mutex
	buf     []Event
	start   int    // index of the oldest live entry
	n       int    // live entries
	next    uint64 // next sequence number
	dropped uint64 // entries evicted to make room
	clock   func() uint64
}

// NewEventLog returns a ring holding up to capacity events; capacity
// < 1 is clamped to 1. The clock defaults to zero timestamps until
// SetClock is called (a Set wires its registry clock in).
func NewEventLog(capacity int) *EventLog {
	if capacity < 1 {
		capacity = 1
	}
	return &EventLog{buf: make([]Event, capacity)}
}

// SetClock injects the event timestamp source.
func (l *EventLog) SetClock(now func() uint64) {
	if l == nil {
		return
	}
	l.mu.Lock()
	l.clock = now
	l.mu.Unlock()
}

// Record appends one event, evicting the oldest when full. A nil
// receiver is a no-op, so unwired components can call unconditionally.
func (l *EventLog) Record(kind EventKind, subject, detail string, value uint64) {
	if l == nil {
		return
	}
	l.mu.Lock()
	var t uint64
	if l.clock != nil {
		t = l.clock()
	}
	e := Event{Seq: l.next, Time: t, Kind: kind, Subject: subject, Detail: detail, Value: value}
	l.next++
	if l.n == len(l.buf) {
		l.buf[l.start] = e
		l.start = (l.start + 1) % len(l.buf)
		l.dropped++
	} else {
		l.buf[(l.start+l.n)%len(l.buf)] = e
		l.n++
	}
	l.mu.Unlock()
}

// EventsSnapshot is the exportable state of the log: the retained
// window in record order plus the drop accounting. FirstSeq is the
// sequence number of the oldest retained event (equal to Dropped,
// since sequence numbers start at zero and evictions are FIFO).
type EventsSnapshot struct {
	Capacity int     `json:"capacity"`
	NextSeq  uint64  `json:"next_seq"`
	Dropped  uint64  `json:"dropped"`
	FirstSeq uint64  `json:"first_seq"`
	Events   []Event `json:"events"`
}

// Snapshot copies the retained events. A nil receiver reads empty.
func (l *EventLog) Snapshot() EventsSnapshot {
	if l == nil {
		return EventsSnapshot{}
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	s := EventsSnapshot{
		Capacity: len(l.buf),
		NextSeq:  l.next,
		Dropped:  l.dropped,
		FirstSeq: l.dropped,
		Events:   make([]Event, 0, l.n),
	}
	for i := 0; i < l.n; i++ {
		s.Events = append(s.Events, l.buf[(l.start+i)%len(l.buf)])
	}
	return s
}

// Dropped reads the eviction count. A nil receiver reads zero.
func (l *EventLog) Dropped() uint64 {
	if l == nil {
		return 0
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.dropped
}

// Len reads the number of retained events.
func (l *EventLog) Len() int {
	if l == nil {
		return 0
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.n
}
