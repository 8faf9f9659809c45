package flow

import (
	"fmt"
	"math/rand/v2"
	"testing"
)

func k(src, dst, proto, sp, dp uint64) Key {
	return Key{SrcAddr: src, DstAddr: dst, Proto: proto, SrcPort: sp, DstPort: dp}
}

func TestLearnHitEstablish(t *testing.T) {
	tb := New(16, 10, 100)
	fwd := k(1, 2, 6, 1000, 80)

	if hit := tb.Upsert(fwd, 0, 1); hit != 0 {
		t.Fatalf("first forward packet: hit=%d, want 0 (learn)", hit)
	}
	if tb.Len() != 1 {
		t.Fatalf("Len=%d after learn, want 1", tb.Len())
	}
	if hit := tb.Upsert(fwd, 0, 2); hit != 1 {
		t.Fatalf("second forward packet: hit=%d, want 1", hit)
	}
	e, ok := tb.Lookup(fwd)
	if !ok || e.State != StateNew {
		t.Fatalf("entry after forward traffic: ok=%v state=%d, want New", ok, e.State)
	}

	// Return traffic arrives with the tuple as seen on the wire — the
	// reverse of the stored key — and establishes the flow.
	ret := fwd.Reversed()
	if hit := tb.Upsert(ret, 1, 3); hit != 1 {
		t.Fatalf("return packet: hit=%d, want 1", hit)
	}
	e, _ = tb.Lookup(fwd)
	if e.State != StateEstablished {
		t.Fatalf("state after return traffic = %d, want Established", e.State)
	}
	if e.Expire != 3+100 {
		t.Fatalf("established expiry = %d, want %d", e.Expire, 3+100)
	}

	// Return traffic for an unknown flow is not learned.
	if hit := tb.Upsert(k(9, 9, 6, 1, 2), 1, 4); hit != 0 {
		t.Fatalf("unknown return packet: hit=%d, want 0", hit)
	}
	if tb.Len() != 1 {
		t.Fatalf("Len=%d after unknown return packet, want 1 (no learn)", tb.Len())
	}
}

func TestIdleExpiry(t *testing.T) {
	tb := New(16, 5, 50)
	var expired []Key
	tb.SetHooks(Hooks{OnExpire: func(e *Entry) { expired = append(expired, e.Key) }})

	tb.Upsert(k(1, 2, 6, 10, 20), 0, 1) // expires at 6
	tb.Upsert(k(3, 4, 6, 10, 20), 0, 2) // expires at 7
	tb.Advance(6)
	if len(expired) != 1 || expired[0] != k(1, 2, 6, 10, 20) {
		t.Fatalf("after tick 6: expired=%v, want the first flow only", expired)
	}
	tb.Advance(7)
	if len(expired) != 2 || tb.Len() != 0 {
		t.Fatalf("after tick 7: expired=%v len=%d, want both gone", expired, tb.Len())
	}
	if tb.Stats().Expiries != 2 {
		t.Fatalf("Expiries=%d, want 2", tb.Stats().Expiries)
	}
}

func TestRefreshExtendsLife(t *testing.T) {
	tb := New(16, 5, 50)
	f := k(1, 2, 6, 10, 20)
	tb.Upsert(f, 0, 1)
	tb.Upsert(f, 0, 4) // refresh: now expires at 9
	tb.Advance(8)
	if _, ok := tb.Lookup(f); !ok {
		t.Fatal("refreshed flow expired at its original deadline")
	}
	tb.Advance(9)
	if _, ok := tb.Lookup(f); ok {
		t.Fatal("refreshed flow still live past its refreshed deadline")
	}
}

func TestEstablishedOutlivesIdle(t *testing.T) {
	tb := New(16, 5, 50)
	f := k(1, 2, 6, 10, 20)
	tb.Upsert(f, 0, 1)
	tb.Upsert(f.Reversed(), 1, 2) // established: expires at 52
	tb.Advance(30)
	if _, ok := tb.Lookup(f); !ok {
		t.Fatal("established flow aged out on the idle TTL")
	}
	tb.Advance(52)
	if _, ok := tb.Lookup(f); ok {
		t.Fatal("established flow survived past the established TTL")
	}
}

func TestEvictionOldestFirst(t *testing.T) {
	tb := New(4, 100, 100)
	var evicted []Key
	tb.SetHooks(Hooks{OnEvict: func(e *Entry) { evicted = append(evicted, e.Key) }})
	for i := uint64(0); i < 4; i++ {
		tb.Upsert(k(i, 100, 6, 1, 2), 0, 1)
	}
	// Refreshing the oldest does not save it from insertion-order
	// eviction (eviction is FIFO, not LRU).
	tb.Upsert(k(0, 100, 6, 1, 2), 0, 2)
	tb.Upsert(k(50, 100, 6, 1, 2), 0, 3)
	if len(evicted) != 1 || evicted[0] != k(0, 100, 6, 1, 2) {
		t.Fatalf("evicted=%v, want the oldest-inserted flow", evicted)
	}
	if tb.Len() != 4 || tb.Stats().Evictions != 1 {
		t.Fatalf("Len=%d Evictions=%d, want 4 and 1", tb.Len(), tb.Stats().Evictions)
	}
}

// TestCollisionDeletion exercises backward-shift deletion: many keys in
// a tiny index force probe chains; deleting from the middle must keep
// the rest findable.
func TestCollisionDeletion(t *testing.T) {
	tb := New(64, 1000, 1000)
	for i := uint64(0); i < 64; i++ {
		tb.Upsert(k(i, 7, 6, 1, 2), 0, 1)
	}
	for i := uint64(0); i < 64; i += 2 {
		tb.Delete(k(i, 7, 6, 1, 2))
	}
	for i := uint64(0); i < 64; i++ {
		_, ok := tb.Lookup(k(i, 7, 6, 1, 2))
		if want := i%2 == 1; ok != want {
			t.Fatalf("after interleaved deletes: Lookup(flow %d)=%v, want %v", i, ok, want)
		}
	}
	// Deleted keys can be re-inserted and found.
	for i := uint64(0); i < 64; i += 2 {
		tb.Upsert(k(i, 7, 6, 1, 2), 0, 2)
	}
	if tb.Len() != 64 {
		t.Fatalf("Len=%d after re-inserts, want 64", tb.Len())
	}
}

func TestDeterministicExpiryOrder(t *testing.T) {
	run := func() []Key {
		tb := New(32, 7, 7)
		var order []Key
		tb.SetHooks(Hooks{OnExpire: func(e *Entry) { order = append(order, e.Key) }})
		for i := uint64(0); i < 20; i++ {
			tb.Upsert(k(i, 1, 6, 1, 2), 0, 1+i%3)
		}
		tb.Advance(400)
		return order
	}
	a, b := run(), run()
	if len(a) != 20 {
		t.Fatalf("expired %d flows, want all 20", len(a))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("expiry order diverged at %d: %v vs %v", i, a[i], b[i])
		}
	}
}

func TestInstallAndSyncBookkeeping(t *testing.T) {
	tb := New(16, 10, 100)
	f := k(1, 2, 6, 10, 20)
	tb.Install(Entry{Key: f, State: StateEstablished, Synced: true, Expire: 50})
	e, ok := tb.Lookup(f)
	if !ok || e.State != StateEstablished || !e.Synced {
		t.Fatalf("installed entry = %+v ok=%v", e, ok)
	}
	if tb.Stats().Inserts != 0 {
		t.Fatalf("Install counted as a dataplane insert: %d", tb.Stats().Inserts)
	}

	// A reordered stale update must not demote an established entry.
	tb.Install(Entry{Key: f, State: StateNew, Expire: 20})
	if e, _ := tb.Lookup(f); e.State != StateEstablished {
		t.Fatal("stale replicated update demoted an established flow")
	}

	// Already-expired entries are ignored.
	tb.Advance(60)
	tb.Install(Entry{Key: k(3, 4, 6, 1, 2), State: StateNew, Expire: 55})
	if tb.Len() != 0 {
		t.Fatalf("Len=%d, want 0 (expired install ignored, old entry aged out)", tb.Len())
	}

	// Unsynced tracking: fresh learns are unsynced until marked.
	g := k(5, 6, 6, 30, 40)
	tb.Upsert(g, 0, 61)
	if got := tb.Unsynced(nil); len(got) != 1 || got[0].Key != g {
		t.Fatalf("Unsynced=%v, want the fresh learn", got)
	}
	tb.MarkSynced(g)
	if got := tb.Unsynced(nil); len(got) != 0 {
		t.Fatalf("Unsynced=%v after MarkSynced, want none", got)
	}
	// Partition degradation: everything needs re-replication.
	tb.MarkAllUnsynced()
	if got := tb.Unsynced(nil); len(got) != 1 {
		t.Fatalf("Unsynced=%v after MarkAllUnsynced, want 1", got)
	}
}

func TestReset(t *testing.T) {
	tb := New(16, 10, 100)
	for i := uint64(0); i < 10; i++ {
		tb.Upsert(k(i, 1, 6, 1, 2), 0, 5)
	}
	tb.Reset()
	if tb.Len() != 0 || tb.Now() != 0 {
		t.Fatalf("after Reset: Len=%d Now=%d", tb.Len(), tb.Now())
	}
	if hit := tb.Upsert(k(0, 1, 6, 1, 2), 0, 1); hit != 0 {
		t.Fatal("flow survived Reset")
	}
	// Stale wheel references from before the reset must not expire the
	// re-learned flows.
	var expired int
	tb.SetHooks(Hooks{OnExpire: func(*Entry) { expired++ }})
	tb.Advance(9)
	if expired != 0 {
		t.Fatalf("%d phantom expiries from pre-Reset wheel refs", expired)
	}
}

// TestUpsertSteadyStateAllocs pins the zero-allocation hot path: once
// flows exist and wheel buckets have grown, refreshes and reverse hits
// must not allocate.
func TestUpsertSteadyStateAllocs(t *testing.T) {
	tb := New(1024, 1000, 1000)
	for i := uint64(0); i < 512; i++ {
		tb.Upsert(k(i, 1, 6, 1, 2), 0, 1)
	}
	// Warm the wheel buckets across a few refresh rounds.
	now := uint64(2)
	for r := 0; r < 4; r++ {
		for i := uint64(0); i < 512; i++ {
			tb.Upsert(k(i, 1, 6, 1, 2), 0, now)
			now++
		}
	}
	var i uint64
	allocs := testing.AllocsPerRun(2048, func() {
		tb.Upsert(k(i%512, 1, 6, 1, 2), 0, now)
		tb.Upsert(k(1, i%512, 6, 2, 1), 1, now)
		i++
		now++
	})
	if allocs != 0 {
		t.Fatalf("steady-state Upsert allocates %.2f allocs/op, want 0", allocs)
	}
}

func BenchmarkUpsertHit(b *testing.B) {
	tb := New(4096, 1<<20, 1<<20)
	for i := uint64(0); i < 2048; i++ {
		tb.Upsert(k(i, 1, 6, 1, 2), 0, 1)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tb.Upsert(k(uint64(i)&2047, 1, 6, 1, 2), 0, 2)
	}
}

// BenchmarkUpsertChurn measures the aging-under-load cell: the clock
// outruns the idle TTL, so every visit to a flow finds its previous
// entry expired — each operation is a wheel advance, an expiry, and a
// fresh learn through the free list. Sized from the unit-test default
// up to the scenario pack's production occupancy (a 1M-entry NAT64 or
// LB table), since free-list and wheel behavior at a few thousand
// entries says nothing about cache behavior at a million.
func BenchmarkUpsertChurn(b *testing.B) {
	for _, size := range []int{4096, 65536, 1 << 20} {
		b.Run(fmt.Sprintf("size=%d", size), func(b *testing.B) {
			tb := New(size, 8, 8)
			live := uint64(size/16) - 1
			b.ReportAllocs()
			b.ResetTimer()
			now := uint64(1)
			for i := 0; i < b.N; i++ {
				tb.Upsert(k(uint64(i)&live, 1, 6, 1, 2), 0, now)
				now += 16 // > IdleTTL: the entry is gone before its next visit
			}
		})
	}
}

func BenchmarkAdvance(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		tb := New(4096, 64, 64)
		for f := uint64(0); f < 4096; f++ {
			tb.Upsert(k(f, 1, 6, 1, 2), 0, f%32)
		}
		b.StartTimer()
		tb.Advance(512)
	}
}

// TestResetEqualsNew is the property behind Reset's fast path (an
// untouched table skips the full clear): after any operation history —
// empty, insert-free, or growing the table to eviction — Reset leaves a
// table indistinguishable from a fresh New one, both in its entries and
// in every result and entry of the operations that follow.
func TestResetEqualsNew(t *testing.T) {
	rng := rand.New(rand.NewPCG(1, 35))
	for trial := 0; trial < 500; trial++ {
		size := 1 + rng.IntN(12)
		used, fresh := New(size, 8, 32), New(size, 8, 32)
		now := uint64(0)
		for i, n := 0, rng.IntN(3); i < n; i++ { // 0-2 histories, each reset
			for j, m := 0, rng.IntN(48); j < m; j++ {
				resetOp(rng, &now)(used)
			}
			used.Reset()
		}
		now = 0
		for j := 0; j < 48; j++ {
			op := resetOp(rng, &now)
			if a, b := op(used), op(fresh); a != b {
				t.Fatalf("trial %d op %d: reset table returned %q, fresh %q", trial, j, a, b)
			}
			if a, b := fmt.Sprint(used.Entries(), used.Now()), fmt.Sprint(fresh.Entries(), fresh.Now()); a != b {
				t.Fatalf("trial %d op %d: reset table holds %s, fresh %s", trial, j, a, b)
			}
		}
	}
}

// resetOp draws one random table operation over a 6-key domain with a
// clock that only moves forward, returning its observable result.
func resetOp(rng *rand.Rand, now *uint64) func(*Table) string {
	key := k(uint64(rng.IntN(6)), 1, 6, 1, 2)
	*now += uint64(rng.IntN(4))
	at, v := *now, uint64(rng.IntN(4))
	switch rng.IntN(7) {
	case 0:
		return func(tb *Table) string { return fmt.Sprint(tb.Upsert(key, v&1, at)) }
	case 1:
		return func(tb *Table) string { h, val := tb.Stick(key, v, at); return fmt.Sprint(h, val) }
	case 2:
		return func(tb *Table) string {
			tb.Install(Entry{Key: key, State: uint8(v & 1), Expire: at + 8, Val: v})
			return ""
		}
	case 3:
		return func(tb *Table) string { tb.Delete(key); return "" }
	case 4:
		return func(tb *Table) string { tb.Advance(at); return "" }
	case 5:
		return func(tb *Table) string { tb.MarkSynced(key); e, ok := tb.Lookup(key); return fmt.Sprint(e, ok) }
	default:
		return func(tb *Table) string { tb.RestoreSnapshot(tb.Snapshot()); return "" }
	}
}
