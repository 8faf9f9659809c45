package sim

import (
	"sort"
	"sync"
	"sync/atomic"

	"microp4/internal/ir"
)

// RuntimeKey is one key of a runtime table entry.
type RuntimeKey struct {
	DontCare  bool
	Value     uint64
	Mask      uint64 // for ternary keys; 0 means exact
	HasMask   bool
	PrefixLen int // for lpm keys
}

// Exact returns an exact-match key.
func Exact(v uint64) RuntimeKey { return RuntimeKey{Value: v} }

// Ternary returns a value/mask key.
func Ternary(v, m uint64) RuntimeKey { return RuntimeKey{Value: v, Mask: m, HasMask: true} }

// LPM returns a longest-prefix-match key.
func LPM(v uint64, plen int) RuntimeKey { return RuntimeKey{Value: v, PrefixLen: plen} }

// Any returns a don't-care key.
func Any() RuntimeKey { return RuntimeKey{DontCare: true} }

// RuntimeEntry is one control-plane-installed table entry, as Entries
// reports it.
type RuntimeEntry struct {
	Keys     []RuntimeKey
	Action   string
	Args     []uint64
	Priority int // lower wins among ternary matches
}

// entry is an installed table entry. It is immutable: the table state,
// its indexes and every snapshot share the one object, and a lookup
// returns its prebuilt action call without allocating.
type entry struct {
	keys []RuntimeKey
	call ir.ActionCall
	prio int
	// ord is the entry's position in its table's installation order, the
	// last tie-break between equally ranked entries.
	ord int
}

// tableState is everything Tables holds for one table name: the
// installed entries, the default-action override, and one index per key
// shape the compiled engine has bound (none for names only the
// reference interpreter uses). The entry slice is append-only below its
// length, so a copied slice header stays a consistent view.
type tableState struct {
	entries  []*entry                      // installation order; guarded by Tables.mu
	indexes  []*tableIndex                 // guarded by Tables.mu
	override atomic.Pointer[ir.ActionCall] // default-action override
}

// add appends an installed entry and inserts it into every index.
func (st *tableState) add(e *entry) {
	e.ord = len(st.entries)
	st.entries = append(st.entries, e)
	for _, ix := range st.indexes {
		ix.insert(e)
	}
}

// adopt replaces the table's entries and default override, rebuilding
// the indexes unless es is the list already installed (same backing
// array and length: slots of an entry list are written once).
func (st *tableState) adopt(es []*entry, override *ir.ActionCall) {
	same := len(es) == len(st.entries) && (len(es) == 0 || &es[0] == &st.entries[0])
	st.entries = es
	st.override.Store(override)
	if same {
		return
	}
	for _, ix := range st.indexes {
		ix.rebuild(es)
	}
}

// Tables is the control-plane state shared by the interpreter and the
// compiled executor: runtime entries and default-action overrides, keyed
// by fully-qualified table name (instance-path-prefixed, e.g.
// "l3_i.ipv4_lpm_tbl"). It is safe for concurrent use: writers and
// name lookups serialize on mu, the compiled engine's packet path reads
// the per-table indexes without locking (see tables_index.go).
type Tables struct {
	mu     sync.Mutex
	tables map[string]*tableState
	seq    int
	syms   *symbols // the names the engines' per-packet records use (record.go)
}

// NewTables returns empty control-plane state.
func NewTables() *Tables {
	return &Tables{tables: make(map[string]*tableState), syms: newSymbols()}
}

// state returns the named table's state, creating it on first use.
// Callers hold t.mu.
func (t *Tables) state(table string) *tableState {
	st := t.tables[table]
	if st == nil {
		st = &tableState{}
		t.tables[table] = st
	}
	return st
}

// AddEntry installs an entry; entries installed earlier win ties.
func (t *Tables) AddEntry(table string, keys []RuntimeKey, action string, args ...uint64) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.seq++
	t.state(table).add(&entry{keys: keys, call: ir.ActionCall{Name: action, Args: args}, prio: t.seq})
}

// AddEntryWithPriority installs an entry with an explicit priority
// (lower wins).
func (t *Tables) AddEntryWithPriority(table string, prio int, keys []RuntimeKey, action string, args ...uint64) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.state(table).add(&entry{keys: keys, call: ir.ActionCall{Name: action, Args: args}, prio: prio})
}

// SetDefault overrides a table's default action.
func (t *Tables) SetDefault(table, action string, args ...uint64) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.state(table).override.Store(&ir.ActionCall{Name: action, Args: args})
}

// ClearTable removes all runtime entries of a table.
func (t *Tables) ClearTable(table string) {
	t.mu.Lock()
	defer t.mu.Unlock()
	if st := t.tables[table]; st != nil {
		st.adopt(nil, st.override.Load())
	}
}

// view returns a consistent view of one table's entries and default
// override; the entries are immutable and the slice is never rewritten
// below its length, so the caller reads it without the lock.
func (t *Tables) view(table string) ([]*entry, *ir.ActionCall) {
	t.mu.Lock()
	defer t.mu.Unlock()
	st := t.tables[table]
	if st == nil {
		return nil, nil
	}
	return st.entries, st.override.Load()
}

// Entries returns a copy of a table's runtime entries, in installation
// order.
func (t *Tables) Entries(table string) []RuntimeEntry {
	es, _ := t.view(table)
	out := make([]RuntimeEntry, len(es))
	for i, e := range es {
		out[i] = RuntimeEntry{Keys: e.keys, Action: e.call.Name, Args: e.call.Args, Priority: e.prio}
	}
	return out
}

// EntryCount returns the number of runtime entries installed in a table.
func (t *Tables) EntryCount(table string) int {
	es, _ := t.view(table)
	return len(es)
}

// TablesSnapshot is an immutable point-in-time copy of control-plane
// table state — runtime entries, default overrides, and the priority
// sequence — taken by Snapshot and reinstated by Restore. It backs the
// switch checkpoints that bootstrap a replica and the empty control
// plane the equivalence gate restores before each witness. Installed
// entries are immutable, so a snapshot shares them with the live state
// instead of copying.
type TablesSnapshot struct {
	tables map[string]tableSnapshot
	seq    int
}

type tableSnapshot struct {
	entries  []*entry
	override *ir.ActionCall
}

// Snapshot returns the current table state. Safe to call while packets
// are being processed and entries installed; the snapshot is a
// consistent point-in-time view.
func (t *Tables) Snapshot() *TablesSnapshot {
	t.mu.Lock()
	defer t.mu.Unlock()
	s := &TablesSnapshot{tables: make(map[string]tableSnapshot), seq: t.seq}
	for name, st := range t.tables {
		es, override := st.entries, st.override.Load()
		if len(es) > 0 || override != nil {
			// Capping the capacity keeps an append after Restore off
			// the array the live table is still appending to.
			s.tables[name] = tableSnapshot{entries: es[:len(es):len(es)], override: override}
		}
	}
	return s
}

// Restore reinstates a snapshot, replacing all runtime entries and
// default overrides installed since it was taken. The snapshot is not
// consumed and may be restored more than once, into any Tables.
func (t *Tables) Restore(s *TablesSnapshot) {
	if s == nil {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	for name := range s.tables {
		t.state(name)
	}
	for name, st := range t.tables {
		ts := s.tables[name] // zero for a table the snapshot lacks: emptied
		st.adopt(ts.entries, ts.override)
	}
	t.seq = s.seq
}

// LookupOutcome classifies a table lookup for observability.
type LookupOutcome int8

const (
	// LookupMiss: no entry matched and the table has no default action.
	LookupMiss LookupOutcome = iota
	// LookupHit: an installed or const entry matched.
	LookupHit
	// LookupDefault: no entry matched; the default action applies.
	LookupDefault
)

// Lookup matches key values against a table definition plus runtime
// state. Const entries (from the program text, including synthesized
// parser/deparser MAT entries) have priority over runtime entries, in
// declaration order. Returns the action to run, or the default action,
// or nil when the table has no default (a miss is then a no-op).
func (t *Tables) Lookup(fqName string, def *ir.Table, keyVals []uint64) *ir.ActionCall {
	call, _ := t.LookupWithOutcome(fqName, def, keyVals)
	return call
}

// LookupWithOutcome is Lookup, also reporting how the result was
// reached (entry hit, default action, or miss) for the per-table
// hit/miss/default counters. It is the reference interpreter's lookup —
// a linear scan of every const and runtime entry — and the oracle the
// compiled engine's index (tableHandle.lookup) is tested against.
// Matching semantics: an entry with fewer keys than the table wildcards
// the rest; the best match has the highest LPM prefix-length sum, ties
// broken by lower priority (const entries rank by declaration order
// ahead of runtime entries), then by earlier installation.
func (t *Tables) LookupWithOutcome(fqName string, def *ir.Table, keyVals []uint64) (*ir.ActionCall, LookupOutcome) {
	runtime, defOverride := t.view(fqName)

	var best *ir.ActionCall
	bestPlen, bestPrio := 0, 0
	for i := range def.Entries {
		e := &def.Entries[i]
		plen, ok := matchConstEntry(def, e, keyVals)
		if !ok {
			continue
		}
		if best == nil || plen > bestPlen || (plen == bestPlen && i < bestPrio) {
			best, bestPlen, bestPrio = &e.Action, plen, i
		}
	}
	for _, re := range runtime {
		plen, ok := matchRuntimeEntry(def, re.keys, keyVals)
		if !ok {
			continue
		}
		prio := len(def.Entries) + re.prio
		if best == nil || plen > bestPlen || (plen == bestPlen && prio < bestPrio) {
			best, bestPlen, bestPrio = &re.call, plen, prio
		}
	}
	if best != nil {
		return best, LookupHit
	}
	if defOverride != nil {
		return defOverride, LookupDefault
	}
	if def.Default != nil {
		return def.Default, LookupDefault
	}
	return nil, LookupMiss
}

// matchConstEntry matches one const entry, returning its LPM
// prefix-length sum.
func matchConstEntry(def *ir.Table, e *ir.Entry, keyVals []uint64) (plen int, ok bool) {
	for i := range e.Keys {
		if i >= len(def.Keys) {
			return 0, false
		}
		k := &e.Keys[i]
		if !matchKey(def.Keys[i].MatchKind, RuntimeKey(*k), keyVals[i], def.Keys[i].Expr.Width) {
			return 0, false
		}
		if def.Keys[i].MatchKind == "lpm" && !k.DontCare {
			plen += k.PrefixLen
		}
	}
	return plen, true
}

// matchRuntimeEntry matches one installed entry's keys, returning its
// LPM prefix-length sum.
func matchRuntimeEntry(def *ir.Table, keys []RuntimeKey, keyVals []uint64) (plen int, ok bool) {
	for i := range keys {
		if i >= len(def.Keys) {
			return 0, false
		}
		if !matchKey(def.Keys[i].MatchKind, keys[i], keyVals[i], def.Keys[i].Expr.Width) {
			return 0, false
		}
		if def.Keys[i].MatchKind == "lpm" && !keys[i].DontCare {
			plen += keys[i].PrefixLen
		}
	}
	return plen, true
}

// EntryMatches reports whether an installed entry with these keys
// matches the key values on table def, by the engines' own rule.
func EntryMatches(def *ir.Table, keys []RuntimeKey, keyVals []uint64) bool {
	_, ok := matchRuntimeEntry(def, keys, keyVals)
	return ok
}

// matchKey checks one key column.
func matchKey(kind string, k RuntimeKey, v uint64, width int) bool {
	if k.DontCare {
		return true
	}
	switch kind {
	case "exact":
		return k.Value == v
	case "ternary":
		if !k.HasMask {
			return k.Value == v
		}
		return k.Value&k.Mask == v&k.Mask
	case "lpm":
		if k.PrefixLen == 0 {
			return true
		}
		shift, ok := lpmShift(width, k.PrefixLen)
		return ok && k.Value>>shift == v>>shift
	case "range":
		// Value..Mask treated as an inclusive range.
		return v >= k.Value && v <= k.Mask
	}
	return false
}

// lpmShift returns how many low bits a prefix of plen bits ignores in a
// column of the given width (columns of 64 bits and wider match on their
// 64-bit key value). ok is false for a prefix length outside the column:
// such a key matches nothing.
func lpmShift(width, plen int) (shift uint, ok bool) {
	if width > 64 {
		width = 64
	}
	if plen < 0 || plen > width {
		return 0, false
	}
	return uint(width - plen), true
}

// TableNames lists tables with runtime entries (sorted, for debugging).
func (t *Tables) TableNames() []string {
	t.mu.Lock()
	defer t.mu.Unlock()
	var out []string
	for n, st := range t.tables {
		if len(st.entries) > 0 {
			out = append(out, n)
		}
	}
	sort.Strings(out)
	return out
}
