package resilience

import (
	"reflect"
	"testing"
)

// newHalfOpenBreaker trips a breaker and moves its cooldown past `at`,
// so the next admission decision happens in the half-open state.
func newHalfOpenBreaker(t *testing.T, seed int64, onProbe func(now uint64, order []uint64, granted int)) *Breaker {
	t.Helper()
	b := NewBreaker(BreakerConfig{Threshold: 1, Cooldown: 10, Seed: seed, OnProbe: onProbe})
	b.Record(0, false)
	if got := b.State(0); got != BreakerOpen {
		t.Fatalf("state after trip = %v, want open", got)
	}
	return b
}

// TestGrantProbesDeterministicOrder: the same candidate set presented
// in any order yields the same seeded grant order, and exactly one
// candidate wins.
func TestGrantProbesDeterministicOrder(t *testing.T) {
	ids := []uint64{7, 3, 11, 5, 2}
	perms := [][]uint64{
		{7, 3, 11, 5, 2},
		{2, 5, 11, 3, 7},
		{11, 2, 7, 3, 5},
	}
	var want []uint64
	var wantOrder []uint64
	for i, perm := range perms {
		var order []uint64
		var grantedN int
		b := newHalfOpenBreaker(t, 42, func(_ uint64, o []uint64, g int) {
			order = append([]uint64(nil), o...)
			grantedN = g
		})
		granted := b.GrantProbes(100, perm)
		if len(granted) != 1 {
			t.Fatalf("perm %d: granted %d probes, want 1", i, len(granted))
		}
		if grantedN != 1 {
			t.Fatalf("perm %d: OnProbe reported %d grants, want 1", i, grantedN)
		}
		if len(order) != len(ids) {
			t.Fatalf("perm %d: exported order has %d ids, want %d", i, len(order), len(ids))
		}
		if i == 0 {
			want = granted
			wantOrder = order
			continue
		}
		if !reflect.DeepEqual(granted, want) {
			t.Fatalf("perm %d: granted %v, want %v (order must not depend on presentation)", i, granted, want)
		}
		if !reflect.DeepEqual(order, wantOrder) {
			t.Fatalf("perm %d: exported order %v, want %v", i, order, wantOrder)
		}
	}

	// A different seed may choose a different winner for the same
	// candidates (not asserted to differ — just exercised to be
	// deterministic per seed).
	b1 := newHalfOpenBreaker(t, 1, nil)
	b2 := newHalfOpenBreaker(t, 1, nil)
	g1 := b1.GrantProbes(100, ids)
	g2 := b2.GrantProbes(100, ids)
	if len(g1) != 1 || len(g2) != 1 {
		t.Fatalf("grants = %d, %d; want 1, 1", len(g1), len(g2))
	}
	if g1[0] != g2[0] {
		t.Fatalf("same seed, same episode: first grant %d vs %d, want identical", g1[0], g2[0])
	}
}

// TestGrantProbesStates: a closed breaker grants the whole batch, an
// open one (cooldown running) grants none, and losers of a half-open
// race are refused without leaking probe slots.
func TestGrantProbesStates(t *testing.T) {
	closed := NewBreaker(BreakerConfig{Threshold: 3, Cooldown: 10})
	if got := closed.GrantProbes(5, []uint64{1, 2, 3}); len(got) != 3 {
		t.Fatalf("closed breaker granted %d of 3", len(got))
	}

	open := newHalfOpenBreaker(t, 9, nil)
	if got := open.GrantProbes(5, []uint64{1, 2, 3}); len(got) != 0 {
		t.Fatalf("open breaker mid-cooldown granted %d probes", len(got))
	}

	fired := 0
	half := newHalfOpenBreaker(t, 9, func(_ uint64, _ []uint64, _ int) { fired++ })
	granted := half.GrantProbes(100, []uint64{10, 20, 30})
	if len(granted) != 1 {
		t.Fatalf("half-open granted %d probes, want 1", len(granted))
	}
	if fired != 1 {
		t.Fatalf("OnProbe fired %d times, want 1", fired)
	}
	// The probe slot is spent: a straggler a tick later is refused.
	if half.Allow(101) {
		t.Fatalf("probe slot leaked: Allow admitted a second probe")
	}
	// The probe reporting back closes the breaker; new batches flow.
	half.Record(101, true)
	if got := half.GrantProbes(102, []uint64{40, 41}); len(got) != 2 {
		t.Fatalf("closed-after-probe granted %d of 2", len(got))
	}
}

// TestGrantProbesEpochReshuffle: each open episode reshuffles the
// seeded order, so a repeatedly-tripping backend does not pin the same
// winner forever; within one episode the order is stable.
func TestGrantProbesEpochReshuffle(t *testing.T) {
	ids := []uint64{1, 2, 3, 4, 5, 6, 7, 8}
	var orders [][]uint64
	for episode := 0; episode < 8; episode++ {
		b := NewBreaker(BreakerConfig{Threshold: 1, Cooldown: 10, Seed: 77})
		for trip := 0; trip <= episode; trip++ {
			b.Record(uint64(trip)*100, false) // each failure while half-open/closed re-opens
			b.Allow(uint64(trip)*100 + 50)    // walk into half-open for the next trip
		}
		var order []uint64
		b.cfg.OnProbe = func(_ uint64, o []uint64, _ int) { order = append([]uint64(nil), o...) }
		b.GrantProbes(uint64(episode)*100+60, ids)
		orders = append(orders, order)
	}
	varied := false
	for i := 1; i < len(orders); i++ {
		if !reflect.DeepEqual(orders[i], orders[0]) {
			varied = true
			break
		}
	}
	if !varied {
		t.Fatalf("8 distinct open episodes produced identical probe orders %v — episode is not feeding the tie-break", orders[0])
	}
}
