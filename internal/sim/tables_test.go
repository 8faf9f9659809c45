package sim

import (
	"testing"

	"microp4/internal/ir"
)

func tblDef() *ir.Table {
	return &ir.Table{
		Name: "t",
		Keys: []ir.Key{
			{Expr: ir.Ref("a", 16), MatchKind: "exact"},
			{Expr: ir.Ref("b", 32), MatchKind: "lpm"},
			{Expr: ir.Ref("c", 8), MatchKind: "ternary"},
		},
		Actions: []string{"act"},
		Default: &ir.ActionCall{Name: "miss"},
	}
}

func TestLookupExactAndMiss(t *testing.T) {
	ts := NewTables()
	def := tblDef()
	ts.AddEntry("t", []RuntimeKey{Exact(5), Any(), Any()}, "act", 1)
	if got := ts.Lookup("t", def, []uint64{5, 0, 0}); got == nil || got.Name != "act" {
		t.Errorf("hit = %+v", got)
	}
	if got := ts.Lookup("t", def, []uint64{6, 0, 0}); got == nil || got.Name != "miss" {
		t.Errorf("miss = %+v, want default", got)
	}
}

func TestLookupLPMLongestWins(t *testing.T) {
	ts := NewTables()
	def := tblDef()
	ts.AddEntry("t", []RuntimeKey{Any(), LPM(0x0A000000, 8), Any()}, "short")
	ts.AddEntry("t", []RuntimeKey{Any(), LPM(0x0A010000, 16), Any()}, "long")
	got := ts.Lookup("t", def, []uint64{0, 0x0A010203, 0})
	if got == nil || got.Name != "long" {
		t.Errorf("lpm winner = %+v, want long", got)
	}
	got = ts.Lookup("t", def, []uint64{0, 0x0A990203, 0})
	if got == nil || got.Name != "short" {
		t.Errorf("lpm winner = %+v, want short", got)
	}
}

func TestLookupTernaryPriority(t *testing.T) {
	ts := NewTables()
	def := tblDef()
	ts.AddEntry("t", []RuntimeKey{Any(), Any(), Ternary(0x10, 0xF0)}, "first")
	ts.AddEntry("t", []RuntimeKey{Any(), Any(), Ternary(0x12, 0xFF)}, "second")
	// Both match 0x12; insertion order wins.
	if got := ts.Lookup("t", def, []uint64{0, 0, 0x12}); got.Name != "first" {
		t.Errorf("priority = %s, want first", got.Name)
	}
	ts2 := NewTables()
	ts2.AddEntryWithPriority("t", 10, []RuntimeKey{Any(), Any(), Ternary(0x10, 0xF0)}, "low")
	ts2.AddEntryWithPriority("t", 1, []RuntimeKey{Any(), Any(), Ternary(0x12, 0xFF)}, "high")
	if got := ts2.Lookup("t", def, []uint64{0, 0, 0x12}); got.Name != "high" {
		t.Errorf("explicit priority = %s, want high", got.Name)
	}
}

func TestConstEntriesBeatRuntime(t *testing.T) {
	ts := NewTables()
	def := tblDef()
	def.Entries = []ir.Entry{{
		Keys:   []ir.EntryKey{{Value: 7}, {DontCare: true}, {DontCare: true}},
		Action: ir.ActionCall{Name: "const_act"},
	}}
	ts.AddEntry("t", []RuntimeKey{Exact(7), Any(), Any()}, "runtime_act")
	if got := ts.Lookup("t", def, []uint64{7, 0, 0}); got.Name != "const_act" {
		t.Errorf("got %s, want const entry to win", got.Name)
	}
}

func TestSetDefaultOverride(t *testing.T) {
	ts := NewTables()
	def := tblDef()
	ts.SetDefault("t", "newdef", 9)
	got := ts.Lookup("t", def, []uint64{1, 2, 3})
	if got == nil || got.Name != "newdef" || got.Args[0] != 9 {
		t.Errorf("default override = %+v", got)
	}
}

func TestClearTable(t *testing.T) {
	ts := NewTables()
	def := tblDef()
	ts.AddEntry("t", []RuntimeKey{Exact(1), Any(), Any()}, "act")
	if ts.EntryCount("t") != 1 {
		t.Fatal("entry not installed")
	}
	ts.ClearTable("t")
	if ts.EntryCount("t") != 0 {
		t.Error("ClearTable left entries")
	}
	if got := ts.Lookup("t", def, []uint64{1, 0, 0}); got.Name != "miss" {
		t.Errorf("cleared table still hits: %+v", got)
	}
}

func TestMatchKeyKinds(t *testing.T) {
	cases := []struct {
		kind  string
		key   RuntimeKey
		v     uint64
		width int
		want  bool
	}{
		{"exact", Exact(5), 5, 16, true},
		{"exact", Exact(5), 6, 16, false},
		{"ternary", Ternary(0xA0, 0xF0), 0xAF, 8, true},
		{"ternary", Ternary(0xA0, 0xF0), 0xBF, 8, false},
		{"lpm", LPM(0xFF000000, 8), 0xFF123456, 32, true},
		{"lpm", LPM(0xFF000000, 8), 0xFE123456, 32, false},
		{"lpm", LPM(0, 0), 0xFFFF, 32, true}, // zero-length prefix matches all
		{"lpm", LPM(0x12345678, 32), 0x12345678, 32, true},
		{"lpm", LPM(0x12345678, 32), 0x12345679, 32, false},
		{"lpm", LPM(1<<63, 64), 1 << 63, 64, true},
		{"lpm", LPM(1<<63, 1), 1<<63 | 5, 128, true}, // wide columns match on 64 bits
		// A prefix longer than its column (or negative) matches nothing;
		// it used to shift both sides to zero and match everything.
		{"lpm", LPM(0xFF000000, 33), 0xFF000000, 32, false},
		{"lpm", LPM(0, 33), 0, 32, false},
		{"lpm", LPM(0, 65), 0, 64, false},
		{"lpm", LPM(0, 65), 0, 128, false},
		{"lpm", LPM(0, 9), 0, 8, false},
		{"lpm", LPM(0, -1), 0, 32, false},
		{"range", RuntimeKey{Value: 10, Mask: 20}, 15, 16, true},
		{"range", RuntimeKey{Value: 10, Mask: 20}, 21, 16, false},
		{"exact", Any(), 12345, 16, true},
	}
	for i, c := range cases {
		if got := matchKey(c.kind, c.key, c.v, c.width); got != c.want {
			t.Errorf("case %d (%s): got %v, want %v", i, c.kind, got, c.want)
		}
	}
}

func TestBitops(t *testing.T) {
	buf := []byte{0x12, 0x34, 0x56, 0x78}
	if v := ReadBits(buf, 0, 8); v != 0x12 {
		t.Errorf("ReadBits(0,8) = %#x", v)
	}
	if v := ReadBits(buf, 4, 8); v != 0x23 {
		t.Errorf("ReadBits(4,8) = %#x", v)
	}
	if v := ReadBits(buf, 8, 16); v != 0x3456 {
		t.Errorf("ReadBits(8,16) = %#x", v)
	}
	// Reading past the end yields zero bits.
	if v := ReadBits(buf, 24, 16); v != 0x7800 {
		t.Errorf("ReadBits past end = %#x", v)
	}
	WriteBits(buf, 4, 8, 0xFF)
	if buf[0] != 0x1F || buf[1] != 0xF4 {
		t.Errorf("WriteBits(4,8,0xFF): % x", buf)
	}
	// Round-trip property over a few offsets/widths.
	for off := 0; off < 16; off++ {
		for w := 1; w <= 16; w++ {
			b := make([]byte, 4)
			WriteBits(b, off, w, 0xABCD&MaskW(w))
			if got := ReadBits(b, off, w); got != 0xABCD&MaskW(w) {
				t.Fatalf("roundtrip off=%d w=%d: %#x", off, w, got)
			}
		}
	}
}

func TestEvalBinaryErrors(t *testing.T) {
	if _, err := evalBinary("/", 1, 0, 8); err == nil {
		t.Error("division by zero accepted")
	}
	if _, err := evalBinary("%", 1, 0, 8); err == nil {
		t.Error("modulo by zero accepted")
	}
	if _, err := evalBinary("??", 1, 1, 8); err == nil {
		t.Error("unknown operator accepted")
	}
	if v, _ := evalBinary("+", 0xFF, 1, 8); v != 0 {
		t.Errorf("8-bit overflow: %#x", v)
	}
	if v, _ := evalBinary("<<", 1, 100, 8); v != 0 {
		t.Errorf("oversized shift: %#x", v)
	}
}
