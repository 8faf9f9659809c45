// Package flow implements the flowtable extern: a fixed-capacity
// connection table with O(1) lookup, a zero-allocation steady-state hot
// path, and timer-wheel aging driven by the virtual clock.
//
// The table backs the µP4 `flowtable(size, idleTTL, estTTL)` extern
// (stateful-firewall semantics: first-packet learn, return-path allow,
// TTL'd entries) and the ctrlplane FlowSync replication layer. Layout:
//
//   - dense slot array: one Entry per live flow, reused through a free
//     list, each slot carrying a generation counter so stale references
//     (wheel buckets filed before a refresh) are detected and skipped;
//   - open-addressed index: linear probing with backward-shift
//     deletion, sized at twice the capacity so load stays below 1/2;
//   - intrusive insertion-order list: O(1) append/unlink, giving a
//     deterministic oldest-first eviction victim when the table is full;
//   - timer wheel: entries are filed in the bucket of their expiry
//     tick; refreshes re-file lazily (the old reference is skipped or
//     re-filed when its bucket comes due), so the hot path never
//     searches a bucket.
//
// All operations are deterministic functions of the operation sequence,
// which is what makes chaos runs byte-reproducible per seed.
package flow

import "sync"

// Key identifies a flow by its 5-tuple. Fields are uint64 so the sim
// engines can pass scalar slots through without conversion; the
// dataplane truncates them to header-field widths before they get here.
type Key struct {
	SrcAddr uint64
	DstAddr uint64
	Proto   uint64
	SrcPort uint64
	DstPort uint64
}

// Reversed returns the return-path key: addresses and ports swapped.
func (k Key) Reversed() Key {
	return Key{SrcAddr: k.DstAddr, DstAddr: k.SrcAddr, Proto: k.Proto,
		SrcPort: k.DstPort, DstPort: k.SrcPort}
}

// hash mixes the tuple with the splitmix64 finalizer per word — cheap,
// alloc-free, and well distributed for the low-entropy tuples the
// traffic generators produce.
func (k Key) hash() uint64 {
	h := mix(k.SrcAddr)
	h = mix(h ^ k.DstAddr)
	h = mix(h ^ k.Proto)
	h = mix(h ^ k.SrcPort<<16 ^ k.DstPort)
	return h
}

func mix(x uint64) uint64 {
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return x
}

// Flow entry states.
const (
	StateNew         uint8 = 0 // learned from a forward-path packet
	StateEstablished uint8 = 1 // confirmed by a return-path packet
)

// Entry is one live flow.
type Entry struct {
	Key    Key
	State  uint8
	Synced bool   // replicated to the standby (FlowSync bookkeeping)
	Expire uint64 // virtual tick at which the entry ages out
	Val    uint64 // value pinned by Stick (e.g. a load-balancer backend)
}

// Hooks observe table mutations. All hooks run synchronously inside the
// mutating call with the entry still live; they must not call back into
// the table. Nil hooks are skipped.
type Hooks struct {
	OnInsert func(*Entry) // new flow learned
	OnUpdate func(*Entry) // state/expiry change worth replicating
	OnExpire func(*Entry) // aged out by the wheel
	OnEvict  func(*Entry) // displaced by a capacity eviction
}

// Counters are the table's monotone statistics, exported as
// up4_flow_* metrics.
type Counters struct {
	Inserts   uint64
	Hits      uint64
	Misses    uint64
	Expiries  uint64
	Evictions uint64
}

// slot is one dense storage cell. gen increments on every free so
// packed references held by wheel buckets can detect reuse.
type slot struct {
	e    Entry
	gen  uint32
	used bool
	// insertion-order intrusive list (eviction order); -1 terminates.
	prev, next int32
}

// packed is a wheel reference: slot index, the slot generation and the
// expiry tick it was filed for. A refresh files a fresh reference; the
// old one no longer matches the slot's Expire and is dropped the first
// time its bucket comes due, so references never accumulate past one
// wheel revolution.
type packed struct {
	idx int32
	gen uint32
	exp uint64
}

const wheelBuckets = 256 // power of two

// Table is a flow table. A single mutex serializes all operations:
// unlike registers (word-sized cells, benignly racy like the hardware
// they model), the table mutates structure — index chains, lists,
// wheel buckets — so the parallel-ingress worker pool must serialize
// through it. The lock is uncontended in serial mode and never
// allocates, preserving the zero-alloc hot path.
type Table struct {
	IdleTTL uint64 // TTL for StateNew entries
	EstTTL  uint64 // TTL for StateEstablished entries

	mu sync.Mutex

	slots []slot
	free  []int32 // free slot indices (LIFO)
	index []int32 // open-addressed: slot+1, 0 = empty
	mask  uint64  // len(index)-1

	head, tail int32 // insertion-order list bounds (-1 = empty)
	n          int   // live entries

	wheel    [wheelBuckets][]packed
	wheelNow uint64 // last tick Advance processed
	dirty    bool   // an entry was indexed since the last clear

	hooks Hooks
	stats Counters
}

// New returns a table with the given capacity and TTLs (in virtual
// ticks). Returns an error (a *sim.FlowError, wrapped by the caller)
// via panic-free validation: the frontend bounds these the same way,
// so New only rejects programmatic misuse.
func New(size int, idleTTL, estTTL uint64) *Table {
	if size < 1 {
		size = 1
	}
	if idleTTL == 0 {
		idleTTL = 1
	}
	if estTTL == 0 {
		estTTL = idleTTL
	}
	icap := 1
	for icap < 2*size {
		icap <<= 1
	}
	t := &Table{
		IdleTTL: idleTTL,
		EstTTL:  estTTL,
		slots:   make([]slot, size),
		free:    make([]int32, 0, size),
		index:   make([]int32, icap),
		mask:    uint64(icap - 1),
		head:    -1,
		tail:    -1,
	}
	for i := size - 1; i >= 0; i-- {
		t.slots[i].prev, t.slots[i].next = -1, -1
		t.free = append(t.free, int32(i))
	}
	return t
}

// SetHooks installs mutation observers.
func (t *Table) SetHooks(h Hooks) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.hooks = h
}

// Len returns the number of live entries.
func (t *Table) Len() int {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.n
}

// Stats returns the monotone counters.
func (t *Table) Stats() Counters {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.stats
}

// Now returns the last tick the aging wheel advanced to.
func (t *Table) Now() uint64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.wheelNow
}

// ----------------------------------------------------------------------------
// Index (open addressing, linear probe, backward-shift delete)

func (t *Table) findSlot(k Key) int32 {
	i := k.hash() & t.mask
	for {
		s := t.index[i]
		if s == 0 {
			return -1
		}
		if t.slots[s-1].e.Key == k {
			return s - 1
		}
		i = (i + 1) & t.mask
	}
}

func (t *Table) indexInsert(si int32) {
	t.dirty = true
	i := t.slots[si].e.Key.hash() & t.mask
	for t.index[i] != 0 {
		i = (i + 1) & t.mask
	}
	t.index[i] = si + 1
}

func (t *Table) indexDelete(k Key) {
	i := k.hash() & t.mask
	for {
		s := t.index[i]
		if s == 0 {
			return // not present
		}
		if t.slots[s-1].e.Key == k {
			break
		}
		i = (i + 1) & t.mask
	}
	// Backward-shift: close the gap so probe chains stay intact.
	t.index[i] = 0
	j := (i + 1) & t.mask
	for t.index[j] != 0 {
		home := t.slots[t.index[j]-1].e.Key.hash() & t.mask
		// Can the entry at j move back to the hole at i? It can when
		// its home position is outside the (home..j] wrap-aware span.
		if (j-home)&t.mask >= (j-i)&t.mask {
			t.index[i] = t.index[j]
			t.index[j] = 0
			i = j
		}
		j = (j + 1) & t.mask
	}
}

// ----------------------------------------------------------------------------
// Insertion-order list

func (t *Table) listAppend(si int32) {
	s := &t.slots[si]
	s.prev, s.next = t.tail, -1
	if t.tail >= 0 {
		t.slots[t.tail].next = si
	} else {
		t.head = si
	}
	t.tail = si
}

func (t *Table) listUnlink(si int32) {
	s := &t.slots[si]
	if s.prev >= 0 {
		t.slots[s.prev].next = s.next
	} else {
		t.head = s.next
	}
	if s.next >= 0 {
		t.slots[s.next].prev = s.prev
	} else {
		t.tail = s.prev
	}
	s.prev, s.next = -1, -1
}

// ----------------------------------------------------------------------------
// Wheel

func (t *Table) fileInWheel(si int32, expire uint64) {
	b := expire % wheelBuckets
	t.wheel[b] = append(t.wheel[b], packed{idx: si, gen: t.slots[si].gen, exp: expire})
}

// Advance expires every entry due at or before now. Expiry order is
// deterministic: bucket (tick) order, insertion order within a bucket.
func (t *Table) Advance(now uint64) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.advance(now)
}

func (t *Table) advance(now uint64) {
	if now <= t.wheelNow {
		return
	}
	steps := now - t.wheelNow
	if steps > wheelBuckets {
		steps = wheelBuckets // one full revolution visits every bucket
	}
	for s := uint64(1); s <= steps; s++ {
		tick := t.wheelNow + s
		b := tick % wheelBuckets
		bucket := t.wheel[b]
		kept := bucket[:0]
		for _, p := range bucket {
			sl := &t.slots[p.idx]
			if !sl.used || sl.gen != p.gen || sl.e.Expire != p.exp {
				continue // freed, recycled, or refreshed since filing
			}
			if p.exp <= now {
				t.expire(p.idx)
				continue
			}
			kept = append(kept, p) // due a future wheel revolution
		}
		t.wheel[b] = kept
	}
	t.wheelNow = now
}

func (t *Table) expire(si int32) {
	t.stats.Expiries++
	if t.hooks.OnExpire != nil {
		t.hooks.OnExpire(&t.slots[si].e)
	}
	t.remove(si)
}

// remove frees a slot: index delete, list unlink, free-list push.
func (t *Table) remove(si int32) {
	s := &t.slots[si]
	t.indexDelete(s.e.Key)
	t.listUnlink(si)
	s.used = false
	s.gen++
	s.e = Entry{}
	t.free = append(t.free, si)
	t.n--
}

// ----------------------------------------------------------------------------
// Dataplane operations

func (t *Table) ttlFor(state uint8) uint64 {
	if state == StateEstablished {
		return t.EstTTL
	}
	return t.IdleTTL
}

// Upsert is the dataplane operation behind ft.upsert(...): advance the
// wheel to now, then
//
//	dir == 0 (forward path): refresh a known flow (hit=1) or learn it
//	  (hit=0, state New, idle TTL), evicting the oldest entry when full;
//	dir != 0 (return path): a packet matching a known flow's reverse
//	  tuple marks it Established and refreshes it with the established
//	  TTL (hit=1); unknown reverse flows are not learned (hit=0).
//
// The returned hit feeds a match-action table key, so the firewall
// policy itself stays in the control plane.
func (t *Table) Upsert(k Key, dir, now uint64) (hit uint64) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.advance(now)
	if dir == 0 {
		si := t.findSlot(k)
		if si >= 0 {
			s := &t.slots[si]
			s.e.Expire = now + t.ttlFor(s.e.State)
			t.fileInWheel(si, s.e.Expire)
			t.stats.Hits++
			return 1
		}
		t.stats.Misses++
		t.insert(Entry{Key: k, State: StateNew, Expire: now + t.IdleTTL})
		return 0
	}
	si := t.findSlot(k.Reversed())
	if si < 0 {
		t.stats.Misses++
		return 0
	}
	s := &t.slots[si]
	if s.e.State != StateEstablished {
		s.e.State = StateEstablished
		s.e.Synced = false
		if t.hooks.OnUpdate != nil {
			t.hooks.OnUpdate(&s.e)
		}
	}
	s.e.Expire = now + t.EstTTL
	t.fileInWheel(si, s.e.Expire)
	t.stats.Hits++
	return 1
}

// Stick is the dataplane operation behind ft.stick(...): pin a value
// to a flow for the flow's lifetime. The first packet of a flow stores
// want (hit=0, state New, idle TTL, evicting the oldest entry when
// full); every later packet of the same 5-tuple ignores want, returns
// the value pinned at first sight (hit=1), promotes the flow to
// Established, and refreshes it with the established TTL. The caller
// recomputes want freely (e.g. a hash over a churning backend pool) —
// established flows keep the assignment they learned, which is what
// makes load-balancer stickiness survive pool churn.
func (t *Table) Stick(k Key, want, now uint64) (hit, val uint64) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.advance(now)
	si := t.findSlot(k)
	if si < 0 {
		t.stats.Misses++
		t.insert(Entry{Key: k, State: StateNew, Expire: now + t.IdleTTL, Val: want})
		return 0, want
	}
	s := &t.slots[si]
	if s.e.State != StateEstablished {
		s.e.State = StateEstablished
		s.e.Synced = false
		if t.hooks.OnUpdate != nil {
			t.hooks.OnUpdate(&s.e)
		}
	}
	s.e.Expire = now + t.EstTTL
	t.fileInWheel(si, s.e.Expire)
	t.stats.Hits++
	return 1, s.e.Val
}

// insert learns a new entry, evicting the oldest-inserted live entry
// when the table is full.
func (t *Table) insert(e Entry) {
	if len(t.free) == 0 {
		victim := t.head
		t.stats.Evictions++
		if t.hooks.OnEvict != nil {
			t.hooks.OnEvict(&t.slots[victim].e)
		}
		t.remove(victim)
	}
	si := t.free[len(t.free)-1]
	t.free = t.free[:len(t.free)-1]
	s := &t.slots[si]
	s.e = e
	s.used = true
	t.indexInsert(si)
	t.listAppend(si)
	t.fileInWheel(si, e.Expire)
	t.n++
	t.stats.Inserts++
	if t.hooks.OnInsert != nil {
		t.hooks.OnInsert(&s.e)
	}
}

// Lookup returns a copy of the entry for k, if live.
func (t *Table) Lookup(k Key) (Entry, bool) {
	t.mu.Lock()
	defer t.mu.Unlock()
	si := t.findSlot(k)
	if si < 0 {
		return Entry{}, false
	}
	return t.slots[si].e, true
}

// MarkSynced marks the entry for k synced (FlowSync ack bookkeeping).
func (t *Table) MarkSynced(k Key) {
	t.mu.Lock()
	defer t.mu.Unlock()
	if si := t.findSlot(k); si >= 0 {
		t.slots[si].e.Synced = true
	}
}

// MarkAllUnsynced flags every live entry for re-replication — the
// degradation path when the sync channel partitions: keep serving,
// remember everything needs a resync on heal.
func (t *Table) MarkAllUnsynced() {
	t.mu.Lock()
	defer t.mu.Unlock()
	for si := t.head; si >= 0; si = t.slots[si].next {
		t.slots[si].e.Synced = false
	}
}

// Install applies a replicated entry: insert it, or overwrite the
// state/expiry of an existing one. Replication applies never fire
// OnInsert/OnUpdate hooks (the standby must not echo entries back).
// Entries already expired at the table's current tick are ignored.
func (t *Table) Install(e Entry) {
	t.mu.Lock()
	defer t.mu.Unlock()
	if e.Expire <= t.wheelNow {
		return
	}
	if si := t.findSlot(e.Key); si >= 0 {
		s := &t.slots[si]
		// Never demote: an Established entry stays established even if
		// a reordered older update arrives after the promotion.
		if s.e.State == StateEstablished && e.State != StateEstablished {
			if e.Expire > s.e.Expire {
				s.e.Expire = e.Expire
				t.fileInWheel(si, s.e.Expire)
			}
			return
		}
		s.e.State = e.State
		s.e.Synced = e.Synced
		s.e.Val = e.Val
		if e.Expire > s.e.Expire {
			s.e.Expire = e.Expire
		}
		t.fileInWheel(si, s.e.Expire)
		return
	}
	hooks := t.hooks
	t.hooks = Hooks{}
	t.insert(e)
	t.hooks = hooks
	t.stats.Inserts-- // replication applies are not dataplane learns
}

// Delete removes the entry for k, if live (replication of an expiry).
func (t *Table) Delete(k Key) {
	t.mu.Lock()
	defer t.mu.Unlock()
	if si := t.findSlot(k); si >= 0 {
		t.remove(si)
	}
}

// Entries returns copies of all live entries in insertion order — the
// deterministic order replication walks for anti-entropy resync.
func (t *Table) Entries() []Entry {
	t.mu.Lock()
	defer t.mu.Unlock()
	out := make([]Entry, 0, t.n)
	for si := t.head; si >= 0; si = t.slots[si].next {
		out = append(out, t.slots[si].e)
	}
	return out
}

// Unsynced appends copies of live entries not yet acknowledged by the
// standby to dst and returns it.
func (t *Table) Unsynced(dst []Entry) []Entry {
	t.mu.Lock()
	defer t.mu.Unlock()
	for si := t.head; si >= 0; si = t.slots[si].next {
		if !t.slots[si].e.Synced {
			dst = append(dst, t.slots[si].e)
		}
	}
	return dst
}

// Snapshot is a point-in-time copy of a table's live contents: the
// wheel position and every entry — key, state, expiry deadline, and
// sync mark — in insertion order. It is the unit of flow-state transfer
// for standby bootstrap and ISSU cutover.
type Snapshot struct {
	Now     uint64  // wheel tick the snapshot was taken at
	Entries []Entry // live entries in insertion order
}

// Snapshot captures the table's live contents. The snapshot is
// independent of the table and stays valid across later mutations.
func (t *Table) Snapshot() *Snapshot {
	t.mu.Lock()
	defer t.mu.Unlock()
	snap := &Snapshot{Now: t.wheelNow, Entries: make([]Entry, 0, t.n)}
	for si := t.head; si >= 0; si = t.slots[si].next {
		snap.Entries = append(snap.Entries, t.slots[si].e)
	}
	return snap
}

// RestoreSnapshot replaces the table's contents with a snapshot:
// entries are reinstated verbatim (state, TTL deadline, sync mark,
// insertion order) and the wheel rewinds to the snapshot's tick, so a
// Snapshot/RestoreSnapshot round trip is exact. No hooks fire and no
// counters move — restoring replicated state is not dataplane activity.
// A nil snapshot is a no-op.
func (t *Table) RestoreSnapshot(snap *Snapshot) {
	if snap == nil {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.clear()
	t.wheelNow = snap.Now
	for _, e := range snap.Entries {
		if len(t.free) == 0 {
			break // snapshot from a larger table: keep the oldest capacity-many
		}
		si := t.free[len(t.free)-1]
		t.free = t.free[:len(t.free)-1]
		s := &t.slots[si]
		s.e = e
		s.used = true
		t.indexInsert(si)
		t.listAppend(si)
		t.fileInWheel(si, e.Expire)
		t.n++
	}
}

// clear drops all entries and rewinds the wheel; the caller holds the
// lock. Counters and hooks are preserved. A table that indexed nothing
// since the last clear is still as that clear (or New) left it — every
// slot free in the same free-list order, the index and the wheel empty —
// so only the wheel needs rewinding.
func (t *Table) clear() {
	t.wheelNow = 0
	if !t.dirty {
		return
	}
	t.dirty = false
	for i := range t.slots {
		t.slots[i] = slot{prev: -1, next: -1, gen: t.slots[i].gen + 1}
	}
	for i := range t.index {
		t.index[i] = 0
	}
	t.free = t.free[:0]
	for i := len(t.slots) - 1; i >= 0; i-- {
		t.free = append(t.free, int32(i))
	}
	for b := range t.wheel {
		t.wheel[b] = t.wheel[b][:0]
	}
	t.head, t.tail = -1, -1
	t.n = 0
}

// Reset drops all entries and rewinds the wheel. Counters and hooks
// are preserved. The equivalence harness calls this so every witness
// starts from identical (empty) flow state in every engine.
func (t *Table) Reset() {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.clear()
}
