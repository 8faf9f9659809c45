package sim

import (
	"slices"
	"sort"
	"sync/atomic"

	"microp4/internal/ir"
)

// This file is the compiled engine's table lookup. NewExec binds every
// table once (Tables.bind) and the packet path calls tableHandle.lookup:
// no name lookup, no lock. Behind the handle sits one index per (Tables,
// table name, key shape), shared by every executor over the same
// Tables and maintained incrementally by the writers under Tables.mu:
//
//   - all columns exact: one hash on the key tuple;
//   - exact columns plus one lpm column: one hash per populated prefix
//     length, probed longest first;
//   - any other shape, and any entry a hash cannot hold (a don't-care in
//     an exact column, fewer keys than columns): residual rows, each a
//     precompiled per-column matcher, scanned for their best-ranked hit.
//
// Const entries compile into the same rows at bind, sorted by rank so
// the first match wins. Readers never lock: every structure is
// insert-only and published through atomic pointers (a slot, a grown
// array, a new prefix length), and ClearTable/Restore swap in a fresh
// content with one store. Tables.LookupWithOutcome, the linear scan, is
// the oracle; tables_index_test.go holds the two equal.

type matchKind uint8

const (
	kindOther matchKind = iota // unknown match kind: only a don't-care key matches
	kindExact
	kindLPM
	kindTernary
	kindRange
)

type colShape struct {
	kind  matchKind
	width int
}

// prefixMask returns the mask selecting the bits a prefix of plen bits
// compares; ok is false when no key value can match (see lpmShift).
func (c colShape) prefixMask(plen int) (mask uint64, ok bool) {
	if plen == 0 {
		return 0, true
	}
	shift, ok := lpmShift(c.width, plen)
	return ^uint64(0) << shift, ok
}

// keyShape is what an index depends on in a table definition: the match
// kind and width of each key column.
type keyShape struct {
	cols   []colShape
	hashed bool // all-exact, or exact + one lpm column
	lpmCol int  // the lpm column of a hashed shape; -1 when it has none
}

func shapeOf(def *ir.Table) keyShape {
	s := keyShape{cols: make([]colShape, len(def.Keys)), hashed: len(def.Keys) > 0, lpmCol: -1}
	for i, k := range def.Keys {
		c := colShape{width: k.Expr.Width}
		switch k.MatchKind {
		case "exact":
			c.kind = kindExact
		case "lpm":
			c.kind = kindLPM
			if s.lpmCol >= 0 {
				s.hashed = false
			}
			s.lpmCol = i
		case "ternary":
			c.kind, s.hashed = kindTernary, false
		case "range":
			c.kind, s.hashed = kindRange, false
		default:
			s.hashed = false
		}
		s.cols[i] = c
	}
	if !s.hashed {
		s.lpmCol = -1
	}
	return s
}

func (s *keyShape) equal(o *keyShape) bool { return slices.Equal(s.cols, o.cols) }

// hashLen places an entry: ok when one of the shape's hashes can hold it
// (a full key list with no don't-care in an exact column), under the
// returned prefix length. A don't-care lpm key is the /0 prefix.
func (s *keyShape) hashLen(keys []RuntimeKey) (plen int, ok bool) {
	if !s.hashed || len(keys) != len(s.cols) {
		return 0, false
	}
	for i := range keys {
		k := &keys[i]
		if i == s.lpmCol {
			if !k.DontCare {
				plen = k.PrefixLen
			}
		} else if k.DontCare {
			return 0, false
		}
	}
	return plen, true
}

// hash hashes a key tuple, the lpm column masked to its prefix. The
// caller takes the top bits, which depend on every input bit.
func (s *keyShape) hash(kv []uint64, lpmMask uint64) uint64 {
	var h uint64
	for i, v := range kv {
		if i == s.lpmCol {
			v &= lpmMask
		}
		h = (h ^ v) * 0x9E3779B97F4A7C15
		h ^= h >> 32
	}
	return h * 0x9E3779B97F4A7C15
}

// eq reports whether a hashed entry's key equals the tuple, the lpm
// column compared under its prefix mask.
func (s *keyShape) eq(e *entry, kv []uint64, lpmMask uint64) bool {
	keys := e.keys[:len(kv)]
	for i, v := range kv {
		d := keys[i].Value ^ v
		if i == s.lpmCol {
			d &= lpmMask
		}
		if d != 0 {
			return false
		}
	}
	return true
}

// colMatch is one precompiled column of a residual or const row. The
// zero value matches every key value.
type colMatch struct {
	mask, want uint64 // v&mask == want
	hi         uint64 // range columns: want <= v <= hi
	isRange    bool
}

// compile lowers an entry's keys into cols (one per table column) and
// returns its LPM prefix-length sum. ok is false for an entry that can
// never match: more keys than columns, a prefix length outside its
// column, or a key in a column of unknown kind.
func (s *keyShape) compile(keys []RuntimeKey, cols []colMatch) (plen int, ok bool) {
	if len(keys) > len(s.cols) {
		return 0, false
	}
	clear(cols)
	for i := range keys {
		k := &keys[i]
		if k.DontCare {
			continue
		}
		exact := colMatch{mask: ^uint64(0), want: k.Value}
		switch s.cols[i].kind {
		case kindExact:
			cols[i] = exact
		case kindTernary:
			cols[i] = exact
			if k.HasMask {
				cols[i] = colMatch{mask: k.Mask, want: k.Value & k.Mask}
			}
		case kindLPM:
			m, ok := s.cols[i].prefixMask(k.PrefixLen)
			if !ok {
				return 0, false
			}
			cols[i] = colMatch{mask: m, want: k.Value & m}
			plen += k.PrefixLen
		case kindRange:
			cols[i] = colMatch{want: k.Value, hi: k.Mask, isRange: true}
		default:
			return 0, false
		}
	}
	return plen, true
}

// matchRow is one lookup candidate with its rank.
type matchRow struct {
	call *ir.ActionCall
	act  *cAction // resolved at bind for const rows; nil for runtime rows
	plen int      // LPM prefix-length sum: higher wins
	prio int      // then lower wins: const declaration index, runtime priority
	ord  int      // then lower wins: installation order; -1 for const rows
}

func (r *matchRow) beats(o *matchRow) bool {
	if r.plen != o.plen {
		return r.plen > o.plen
	}
	if r.prio != o.prio {
		return r.prio < o.prio
	}
	return r.ord < o.ord
}

func runtimeRow(e *entry, plen int) matchRow {
	return matchRow{call: &e.call, plen: plen, prio: e.prio, ord: e.ord}
}

// rowSet is an append-only list of rows with their column matchers.
// The writer fills slot n then publishes n+1; a full set is copied into
// a doubled one and republished by its owner. Readers see rows[:n].
type rowSet struct {
	ncols int
	n     atomic.Int64
	rows  []matchRow
	cols  []colMatch // ncols per row
}

func newRowSet(ncols, capacity int) *rowSet {
	return &rowSet{ncols: ncols, rows: make([]matchRow, capacity), cols: make([]colMatch, capacity*ncols)}
}

// grown returns a copy with twice the capacity.
func (rs *rowSet) grown() *rowSet {
	n := int(rs.n.Load())
	g := newRowSet(rs.ncols, 2*len(rs.rows))
	copy(g.rows, rs.rows[:n])
	copy(g.cols, rs.cols[:n*rs.ncols])
	g.n.Store(int64(n))
	return g
}

// next returns the unpublished row after the last one and its columns;
// commit publishes it.
func (rs *rowSet) next() (*matchRow, []colMatch) {
	n := int(rs.n.Load())
	return &rs.rows[n], rs.cols[n*rs.ncols : (n+1)*rs.ncols]
}

func (rs *rowSet) commit() { rs.n.Add(1) }

func (rs *rowSet) matches(r int, kv []uint64) bool {
	cols := rs.cols[r*rs.ncols : (r+1)*rs.ncols]
	kv = kv[:len(cols)]
	for i := range cols {
		c, v := &cols[i], kv[i]
		if c.isRange {
			if v < c.want || v > c.hi {
				return false
			}
		} else if v&c.mask != c.want {
			return false
		}
	}
	return true
}

// hashTab is an insert-only open-addressed table of entries, at most
// half full. A slot is written once (or its entry replaced by a
// better-ranked one with the same key) by the single writer; readers
// probe without locking and see the table before or after an insert.
type hashTab struct {
	slots []hashSlot
	shift uint // 64 - log2(len(slots))
	n     int  // occupied slots; writer-owned
}

// hashSlot keeps the occupant's key hash beside it, so a probe skips
// colliding entries — and a grow re-places entries — without touching
// them. hash is written before e is published and never changes after.
type hashSlot struct {
	hash uint64
	e    atomic.Pointer[entry]
}

func newHashTab(logSize uint) *hashTab {
	return &hashTab{slots: make([]hashSlot, 1<<logSize), shift: 64 - logSize}
}

// get returns the entry stored under the key tuple kv, and how many
// entries' keys it compared kv with.
func (t *hashTab) get(s *keyShape, kv []uint64, lpmMask uint64) (e *entry, compared int) {
	h, mask := s.hash(kv, lpmMask), uint64(len(t.slots)-1)
	for i := h >> t.shift; ; i = (i + 1) & mask {
		sl := &t.slots[i]
		e := sl.e.Load()
		if e == nil {
			return nil, compared
		}
		if sl.hash == h {
			compared++
			if s.eq(e, kv, lpmMask) {
				return e, compared
			}
		}
	}
}

// indexMutation is a test hook that breaks the index on purpose, so the
// index-equals-scan tests can show they bite: 1 probes prefix lengths
// shortest first, 2 lets a later duplicate key displace an earlier,
// better-ranked entry. Only tests set it.
var indexMutation int

// put installs e under the key tuple kv. Of two entries with one key the
// better-ranked stays: lower priority, the earlier installed on a tie.
// The caller keeps the table at most half full.
func (t *hashTab) put(s *keyShape, e *entry, kv []uint64, lpmMask uint64) {
	h, mask := s.hash(kv, lpmMask), uint64(len(t.slots)-1)
	for i := h >> t.shift; ; i = (i + 1) & mask {
		sl := &t.slots[i]
		old := sl.e.Load()
		if old == nil {
			sl.hash = h
			sl.e.Store(e)
			t.n++
			return
		}
		if sl.hash == h && s.eq(old, kv, lpmMask) {
			if e.prio < old.prio || indexMutation == 2 {
				sl.e.Store(e)
			}
			return
		}
	}
}

// grown returns a table of twice the size holding the same entries.
func (t *hashTab) grown() *hashTab {
	g := newHashTab(64 - t.shift + 1)
	mask := uint64(len(g.slots) - 1)
	for i := range t.slots {
		e := t.slots[i].e.Load()
		if e == nil {
			continue
		}
		h := t.slots[i].hash
		j := h >> g.shift
		for g.slots[j].e.Load() != nil {
			j = (j + 1) & mask
		}
		g.slots[j].hash = h
		g.slots[j].e.Store(e)
	}
	g.n = t.n
	return g
}

// indexContent is what one index holds between two clears.
type indexContent struct {
	tabs []atomic.Pointer[hashTab] // by prefix length; created on first use
	lens atomic.Pointer[[]int]     // populated prefix lengths, longest first
	res  atomic.Pointer[rowSet]    // residual rows
}

// tableIndex is one table's runtime entries indexed for one key shape.
type tableIndex struct {
	shape   keyShape
	content atomic.Pointer[indexContent] // nil while the table is empty
	scratch []uint64                     // writer's key tuple buffer
}

func (ix *tableIndex) newContent() *indexContent {
	c := &indexContent{}
	if s := &ix.shape; s.hashed {
		n := 1
		if s.lpmCol >= 0 {
			n = min(s.cols[s.lpmCol].width, 64) + 1
		}
		c.tabs = make([]atomic.Pointer[hashTab], n)
	}
	return c
}

// insert adds one entry; the caller holds Tables.mu.
func (ix *tableIndex) insert(e *entry) {
	if c := ix.content.Load(); c != nil {
		ix.add(c, e)
		return
	}
	c := ix.newContent()
	ix.add(c, e)
	ix.content.Store(c)
}

// rebuild replaces the content with an index of es.
func (ix *tableIndex) rebuild(es []*entry) {
	if len(es) == 0 {
		ix.content.Store(nil)
		return
	}
	c := ix.newContent()
	for _, e := range es {
		ix.add(c, e)
	}
	ix.content.Store(c)
}

// tuple copies an entry's key values into the writer's scratch buffer.
func (ix *tableIndex) tuple(e *entry) []uint64 {
	kv := ix.scratch[:len(ix.shape.cols)]
	for i := range kv {
		kv[i] = e.keys[i].Value
	}
	return kv
}

func (ix *tableIndex) add(c *indexContent, e *entry) {
	s := &ix.shape
	plen, ok := s.hashLen(e.keys)
	if !ok {
		ix.addResidual(c, e)
		return
	}
	var lpmMask uint64
	if s.lpmCol >= 0 {
		if lpmMask, ok = s.cols[s.lpmCol].prefixMask(plen); !ok {
			return // never matches
		}
	}
	t := c.tabs[plen].Load()
	switch {
	case t == nil:
		t = newHashTab(3)
		c.tabs[plen].Store(t)
		c.addLen(plen)
	case 2*(t.n+1) > len(t.slots):
		t = t.grown()
		c.tabs[plen].Store(t)
	}
	t.put(s, e, ix.tuple(e), lpmMask)
}

// addLen publishes a newly populated prefix length.
func (c *indexContent) addLen(plen int) {
	var lens []int
	if p := c.lens.Load(); p != nil {
		lens = append(lens, *p...)
	}
	lens = append(lens, plen)
	slices.Sort(lens)
	if indexMutation != 1 {
		slices.Reverse(lens)
	}
	c.lens.Store(&lens)
}

func (ix *tableIndex) addResidual(c *indexContent, e *entry) {
	rs := c.res.Load()
	switch {
	case rs == nil:
		rs = newRowSet(len(ix.shape.cols), 4)
		c.res.Store(rs)
	case int(rs.n.Load()) == len(rs.rows):
		rs = rs.grown()
		c.res.Store(rs)
	}
	row, cols := rs.next()
	if plen, ok := ix.shape.compile(e.keys, cols); ok {
		*row = runtimeRow(e, plen)
		rs.commit()
	}
}

// best returns the best-ranked runtime entry matching kv, and how many
// entries the key was compared with.
func (c *indexContent) best(s *keyShape, kv []uint64) (best matchRow, found bool, compared int) {
	if lens := c.lens.Load(); lens != nil {
		for _, plen := range *lens {
			var lpmMask uint64
			if s.lpmCol >= 0 {
				lpmMask, _ = s.cols[s.lpmCol].prefixMask(plen)
			}
			e, n := c.tabs[plen].Load().get(s, kv, lpmMask)
			compared += n
			if e != nil {
				best, found = runtimeRow(e, plen), true
				break
			}
		}
	}
	if rs := c.res.Load(); rs != nil {
		n := int(rs.n.Load())
		compared += n
		for r := 0; r < n; r++ {
			if row := &rs.rows[r]; (!found || row.beats(&best)) && rs.matches(r, kv) {
				best, found = *row, true
			}
		}
	}
	return best, found, compared
}

// tableHandle is one executor's binding of one table: the shared index
// of runtime entries plus the definition's const entries, default and
// actions resolved against that executor's compiled actions.
type tableHandle struct {
	st      *tableState
	ix      *tableIndex
	def     *ir.Table
	consts  *rowSet    // rank order: the first match is the best
	acts    []*cAction // parallel to def.Actions
	defAct  *cAction
	actions map[string]*cAction
}

// bind resolves a table for the compiled engine, indexing the entries
// already installed. Binding a name again with an equal key shape shares
// the index; a different shape (another program's table of the same
// name) gets an index of its own.
func (t *Tables) bind(name string, def *ir.Table, actions map[string]*cAction) *tableHandle {
	shape := shapeOf(def)
	h := &tableHandle{def: def, actions: actions, acts: make([]*cAction, len(def.Actions))}
	for i, a := range def.Actions {
		h.acts[i] = actions[a]
	}
	if def.Default != nil {
		h.defAct = actions[def.Default.Name]
	}
	if len(def.Entries) > 0 {
		h.consts = newRowSet(len(shape.cols), len(def.Entries))
		var keys []RuntimeKey
		for i := range def.Entries {
			ce := &def.Entries[i]
			keys = keys[:0]
			for _, k := range ce.Keys {
				keys = append(keys, RuntimeKey(k))
			}
			row, cols := h.consts.next()
			if plen, ok := shape.compile(keys, cols); ok {
				*row = matchRow{call: &ce.Action, act: actions[ce.Action.Name], plen: plen, prio: i, ord: -1}
				h.consts.commit()
			}
		}
		sort.Stable(byRank{h.consts})
	}

	t.mu.Lock()
	defer t.mu.Unlock()
	h.st = t.state(name)
	for _, ix := range h.st.indexes {
		if ix.shape.equal(&shape) {
			h.ix = ix
			return h
		}
	}
	h.ix = &tableIndex{shape: shape, scratch: make([]uint64, len(shape.cols))}
	h.ix.rebuild(h.st.entries)
	h.st.indexes = append(h.st.indexes, h.ix)
	return h
}

// byRank sorts a row set best rank first.
type byRank struct{ rs *rowSet }

func (b byRank) Len() int           { return int(b.rs.n.Load()) }
func (b byRank) Less(i, j int) bool { return b.rs.rows[i].beats(&b.rs.rows[j]) }
func (b byRank) Swap(i, j int) {
	rs := b.rs
	rs.rows[i], rs.rows[j] = rs.rows[j], rs.rows[i]
	for c := 0; c < rs.ncols; c++ {
		rs.cols[i*rs.ncols+c], rs.cols[j*rs.ncols+c] = rs.cols[j*rs.ncols+c], rs.cols[i*rs.ncols+c]
	}
}

// action resolves a runtime entry's action: the table's own short action
// list first, any action of the program after (the control schema keeps
// entries to the list; raw Tables installs need not).
func (h *tableHandle) action(name string) *cAction {
	for i, a := range h.def.Actions {
		if a == name {
			return h.acts[i]
		}
	}
	return h.actions[name]
}

// lookup is the compiled engine's Tables.LookupWithOutcome: same
// result, plus the resolved action (nil when the program has none of
// that name).
func (h *tableHandle) lookup(kv []uint64) (*ir.ActionCall, *cAction, LookupOutcome) {
	call, act, outcome, _ := h.find(kv)
	return call, act, outcome
}

// find is lookup, also counting the entries kv was compared with.
func (h *tableHandle) find(kv []uint64) (call *ir.ActionCall, act *cAction, outcome LookupOutcome, compared int) {
	var best matchRow
	found := false
	if cs := h.consts; cs != nil {
		for r, n := 0, int(cs.n.Load()); r < n; r++ {
			compared++
			if cs.matches(r, kv) {
				best, found = cs.rows[r], true
				break
			}
		}
	}
	if c := h.ix.content.Load(); c != nil {
		rt, ok, n := c.best(&h.ix.shape, kv)
		compared += n
		if ok {
			rt.prio += len(h.def.Entries)
			if !found || rt.beats(&best) {
				rt.act = h.action(rt.call.Name)
				best, found = rt, true
			}
		}
	}
	if found {
		return best.call, best.act, LookupHit, compared
	}
	if d := h.st.override.Load(); d != nil {
		return d, h.action(d.Name), LookupDefault, compared
	}
	if d := h.def.Default; d != nil {
		return d, h.defAct, LookupDefault, compared
	}
	return nil, nil, LookupMiss, compared
}
