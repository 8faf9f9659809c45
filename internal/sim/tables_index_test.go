package sim

import (
	"fmt"
	"math/rand"
	"testing"

	"microp4/internal/ir"
)

// The index-equals-scan property: whatever the table shape, entry set
// and history of control-plane operations, the compiled engine's
// tableHandle.lookup returns exactly what Tables.LookupWithOutcome (the
// reference interpreter's linear scan) returns — the same *ActionCall
// object and the same outcome. TestTableIndexProperty runs it over
// seeded random histories, FuzzTableIndex over fuzzer-chosen ones, and
// TestTableIndexMutations shows it fails when the index is broken.

// choices is the decision stream a history is generated from: a byte
// string, so the fuzzer can mutate histories directly. An exhausted
// stream answers 0.
type choices struct {
	data []byte
	pos  int
}

func (c *choices) intn(n int) int {
	if c.pos >= len(c.data) || n <= 1 {
		return 0
	}
	v := int(c.data[c.pos])
	c.pos++
	return v % n
}

func (c *choices) u64() uint64 {
	var v uint64
	for i := 0; i < 8; i++ {
		v = v<<8 | uint64(c.intn(256))
	}
	return v
}

func (c *choices) done() bool { return c.pos >= len(c.data) }

// indexCase is one random table under test.
type indexCase struct {
	c    *choices
	def  *ir.Table
	pool [][]uint64 // per column: the few values keys and probes draw from
}

var indexKinds = []string{"exact", "lpm", "ternary", "range", "selector"}

func newIndexCase(c *choices) *indexCase {
	ic := &indexCase{c: c, def: &ir.Table{Name: "t", Actions: []string{"a0", "a1", "a2"}}}
	ncols := c.intn(5) // a keyless table has only its default and catch-all entries
	// Half the tables get a hashable shape: exact columns and at most
	// one lpm column.
	hashable, lpmAt := c.intn(2) == 0, -1
	if hashable && c.intn(3) > 0 {
		lpmAt = c.intn(ncols)
	}
	for i := 0; i < ncols; i++ {
		kind := indexKinds[c.intn(len(indexKinds))]
		if hashable {
			kind = "exact"
			if i == lpmAt {
				kind = "lpm"
			}
		}
		width := 1 + c.intn(64)
		ic.def.Keys = append(ic.def.Keys, ir.Key{Expr: ir.Ref(fmt.Sprintf("k%d", i), width), MatchKind: kind})
		vals := []uint64{0, MaskW(width)}
		for j := 0; j < 4; j++ {
			vals = append(vals, c.u64()&MaskW(width))
		}
		ic.pool = append(ic.pool, vals)
	}
	if c.intn(2) == 0 {
		ic.def.Default = &ir.ActionCall{Name: "dflt"}
	}
	for i, n := 0, c.intn(4); i < n; i++ {
		var keys []ir.EntryKey
		for _, k := range ic.keys() {
			keys = append(keys, ir.EntryKey(k))
		}
		ic.def.Entries = append(ic.def.Entries, ir.Entry{Keys: keys, Action: ir.ActionCall{Name: "a0", Args: []uint64{uint64(i)}}})
	}
	return ic
}

// value draws a column value: mostly from the pool (so entries collide
// and probes hit), sometimes a neighbour or anything.
func (ic *indexCase) value(col int) uint64 {
	p := ic.pool[col]
	v := p[ic.c.intn(len(p))]
	switch ic.c.intn(8) {
	case 0:
		v ^= 1 << uint(ic.c.intn(ic.def.Keys[col].Expr.Width)) // host bits, off-by-one-bit
	case 1:
		v = ic.c.u64() // may exceed the column width
	}
	return v
}

// keys draws an entry's key list: usually full, sometimes short, rarely
// too long.
func (ic *indexCase) keys() []RuntimeKey {
	n := len(ic.def.Keys)
	switch ic.c.intn(10) {
	case 0:
		n = ic.c.intn(n + 1)
	case 1:
		n++
	}
	keys := make([]RuntimeKey, n)
	for i := range keys {
		if i >= len(ic.def.Keys) {
			keys[i] = Exact(0)
			continue
		}
		width := ic.def.Keys[i].Expr.Width
		v := ic.value(i)
		switch ic.c.intn(8) {
		case 0:
			keys[i] = Any()
			continue
		case 1:
			keys[i] = Exact(v) // a ternary key without a mask, an lpm /0
			continue
		}
		switch ic.def.Keys[i].MatchKind {
		case "exact":
			keys[i] = Exact(v)
		case "lpm":
			plens := []int{0, 1, width / 2, width - 1, width, width + 1, 65, -1, ic.c.intn(width + 1), ic.c.intn(width + 1)}
			keys[i] = LPM(v, plens[ic.c.intn(len(plens))])
		case "ternary":
			masks := []uint64{0, MaskW(width), MaskW(width) &^ MaskW(width/2), ic.c.u64()}
			keys[i] = Ternary(v, masks[ic.c.intn(len(masks))])
		case "range":
			keys[i] = RuntimeKey{Value: v, Mask: ic.value(i)}
		}
	}
	return keys
}

// run plays one history and returns the first disagreement between the
// index and the scan.
func (ic *indexCase) run(steps int) error {
	c := ic.c
	t := NewTables()
	var handles []*tableHandle
	var snaps []*TablesSnapshot
	bind := func() { handles = append(handles, t.bind("t", ic.def, nil)) }
	if c.intn(2) == 0 {
		bind() // else entries are installed before the first bind
	}
	for step := 0; step < steps && !c.done(); step++ {
		op := c.intn(16)
		switch {
		case op < 7:
			t.AddEntry("t", ic.keys(), ic.def.Actions[c.intn(3)], uint64(step))
		case op < 10:
			t.AddEntryWithPriority("t", c.intn(5)-1, ic.keys(), ic.def.Actions[c.intn(3)], uint64(step))
		case op == 10:
			t.SetDefault("t", "override", uint64(step))
		case op == 11:
			t.ClearTable("t")
		case op == 12:
			snaps = append(snaps, t.Snapshot())
		case op == 13 && len(snaps) > 0:
			t.Restore(snaps[c.intn(len(snaps))])
		case op == 14:
			bind()
		default:
			// A table of the same name and another shape gets its own index.
			other := *ic.def
			other.Keys = append([]ir.Key{{Expr: ir.Ref("x", 8), MatchKind: "exact"}}, ic.def.Keys...)
			other.Entries = nil
			t.bind("t", &other, nil)
		}
		if err := ic.check(t, handles, step); err != nil {
			return err
		}
	}
	if len(handles) == 0 {
		bind()
	}
	return ic.check(t, handles, steps)
}

func (ic *indexCase) check(t *Tables, handles []*tableHandle, step int) error {
	if len(handles) == 0 {
		return nil
	}
	kv := make([]uint64, len(ic.def.Keys))
	probe := func() error {
		want, wantOutcome := t.LookupWithOutcome("t", ic.def, kv)
		for _, h := range handles {
			got, _, gotOutcome := h.lookup(kv)
			if got != want || gotOutcome != wantOutcome {
				return fmt.Errorf("step %d key %x: index returns %+v (outcome %d), scan %+v (outcome %d)\nkeys %+v\nentries %+v",
					step, kv, got, gotOutcome, want, wantOutcome, ic.def.Keys, t.Entries("t"))
			}
		}
		return nil
	}
	// Every entry's own value (truncated, as the engines present keys),
	// then random draws.
	for _, e := range t.Entries("t") {
		for i := range kv {
			kv[i] = ic.pool[i][0]
			if i < len(e.Keys) {
				kv[i] = Truncate(e.Keys[i].Value, ic.def.Keys[i].Expr.Width)
			}
		}
		if err := probe(); err != nil {
			return err
		}
	}
	for n := 0; n < 8; n++ {
		for i := range kv {
			kv[i] = Truncate(ic.value(i), ic.def.Keys[i].Expr.Width)
		}
		if err := probe(); err != nil {
			return err
		}
	}
	return nil
}

// randomHistory returns a seeded decision stream.
func randomHistory(seed int64, n int) *choices {
	data := make([]byte, n)
	rand.New(rand.NewSource(seed)).Read(data)
	return &choices{data: data}
}

// indexPropertySeeds runs the property over seeded histories and
// returns the first failure.
func indexPropertySeeds(seeds int) error {
	for seed := int64(1); seed <= int64(seeds); seed++ {
		if err := newIndexCase(randomHistory(seed, 8192)).run(48); err != nil {
			return fmt.Errorf("seed %d: %w", seed, err)
		}
	}
	return nil
}

func TestTableIndexProperty(t *testing.T) {
	seeds := 1500
	if testing.Short() {
		seeds = 200
	}
	if err := indexPropertySeeds(seeds); err != nil {
		t.Fatal(err)
	}
}

// TestTableIndexMutations breaks the index two ways and expects the
// property to notice each.
func TestTableIndexMutations(t *testing.T) {
	defer func() { indexMutation = 0 }()
	for m, name := range map[int]string{1: "prefix lengths probed shortest first", 2: "later duplicate displaces a better-ranked entry"} {
		indexMutation = m
		if err := indexPropertySeeds(300); err == nil {
			t.Errorf("mutation %d (%s) went unnoticed", m, name)
		}
	}
}

func FuzzTableIndex(f *testing.F) {
	for seed := int64(1); seed <= 8; seed++ {
		f.Add(randomHistory(seed, 1024).data)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		if err := newIndexCase(&choices{data: data}).run(64); err != nil {
			t.Fatal(err)
		}
	})
}
