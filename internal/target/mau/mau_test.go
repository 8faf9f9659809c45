package mau

import (
	"strings"
	"testing"
)

func plan(t *testing.T, cfg Config, tables ...Table) *Schedule {
	t.Helper()
	s, err := Plan(tables, cfg)
	if err != nil {
		t.Fatalf("Plan: %v", err)
	}
	return s
}

func TestIndependentTablesShareAStage(t *testing.T) {
	s := plan(t, TofinoConfig,
		Table{Name: "a", Reads: []string{"x"}, Writes: []string{"y"}},
		Table{Name: "b", Reads: []string{"x"}, Writes: []string{"z"}},
	)
	if s.NumStages != 1 {
		t.Errorf("independent tables need %d stages, want 1", s.NumStages)
	}
}

func TestMatchDependencyChains(t *testing.T) {
	// a writes x, b matches on x, c matches on b's output: a strict
	// write→read chain, one stage each.
	s := plan(t, TofinoConfig,
		Table{Name: "a", Writes: []string{"x"}},
		Table{Name: "b", Reads: []string{"x"}, Writes: []string{"y"}},
		Table{Name: "c", Reads: []string{"y"}},
	)
	if s.NumStages != 3 {
		t.Errorf("chain scheduled in %d stages, want 3", s.NumStages)
	}
	for name, want := range map[string]int{"a": 0, "b": 1, "c": 2} {
		if s.StageOf[name] != want {
			t.Errorf("stage(%s) = %d, want %d", name, s.StageOf[name], want)
		}
	}
}

func TestOutputDependencyForcesOrder(t *testing.T) {
	// Two writers of the same field execute in distinct stages
	// (write→write order), even with no reader between them.
	s := plan(t, TofinoConfig,
		Table{Name: "w1", Writes: []string{"x"}},
		Table{Name: "w2", Writes: []string{"x"}},
	)
	if s.StageOf["w2"] != s.StageOf["w1"]+1 {
		t.Errorf("w1@%d w2@%d: output dependency must advance a stage",
			s.StageOf["w1"], s.StageOf["w2"])
	}
}

func TestAntiDependencySharesStage(t *testing.T) {
	// r reads x, then w writes x: the reader matched on the old value,
	// so both fit one stage (read→write is not a stage barrier).
	s := plan(t, TofinoConfig,
		Table{Name: "r", Reads: []string{"x"}},
		Table{Name: "w", Writes: []string{"x"}},
	)
	if s.NumStages != 1 {
		t.Errorf("anti-dependent pair needs %d stages, want 1", s.NumStages)
	}
}

func TestExclusiveArmsShareAStage(t *testing.T) {
	// if (c) { thenT } else { elseT }: both arms write nh, but at most
	// one executes per packet, so they co-reside; the join table reads
	// nh and must follow both.
	s := plan(t, TofinoConfig,
		Table{Name: "gw", Gateway: true, Reads: []string{"c"}},
		Table{Name: "thenT", Writes: []string{"nh"}, Tag: []Branch{{Cond: 1, Arm: 0}}},
		Table{Name: "elseT", Writes: []string{"nh"}, Tag: []Branch{{Cond: 1, Arm: 1}}},
		Table{Name: "join", Reads: []string{"nh"}},
	)
	if s.StageOf["thenT"] != s.StageOf["elseT"] {
		t.Errorf("exclusive arms at stages %d vs %d, want shared",
			s.StageOf["thenT"], s.StageOf["elseT"])
	}
	if s.StageOf["gw"] != 0 || s.StageOf["thenT"] != 0 {
		t.Errorf("gateway and arm should share stage 0: gw@%d thenT@%d",
			s.StageOf["gw"], s.StageOf["thenT"])
	}
	if s.StageOf["join"] != 1 {
		t.Errorf("join@%d, want 1 (follows both arms)", s.StageOf["join"])
	}
	if s.NumStages != 2 {
		t.Errorf("NumStages = %d, want 2", s.NumStages)
	}
}

func TestNestedExclusivity(t *testing.T) {
	// Arms of the same switch are exclusive only against each other;
	// a table on the shared path after the switch orders behind both.
	inner := func(arm int, name string) Table {
		return Table{Name: name, Writes: []string{"x"}, Tag: []Branch{{Cond: 1, Arm: arm}}}
	}
	s := plan(t, TofinoConfig,
		Table{Name: "gw", Gateway: true, Reads: []string{"sel"}},
		inner(0, "case0"),
		inner(1, "case1"),
		inner(2, "case2"),
		Table{Name: "after", Writes: []string{"x"}},
	)
	for _, n := range []string{"case0", "case1", "case2"} {
		if s.StageOf[n] != 0 {
			t.Errorf("%s@%d, want 0 (mutually exclusive arms share)", n, s.StageOf[n])
		}
	}
	if s.StageOf["after"] != 1 {
		t.Errorf("after@%d, want 1 (write→write with every arm)", s.StageOf["after"])
	}
}

func TestExclusivePredicate(t *testing.T) {
	cases := []struct {
		a, b []Branch
		want bool
	}{
		{nil, nil, false},
		{[]Branch{{1, 0}}, nil, false},                             // prefix: gateway vs its arm
		{[]Branch{{1, 0}}, []Branch{{1, 1}}, true},                 // sibling arms
		{[]Branch{{1, 0}}, []Branch{{1, 0}}, false},                // same arm
		{[]Branch{{1, 0}, {2, 0}}, []Branch{{1, 0}, {2, 1}}, true}, // nested siblings
		{[]Branch{{1, 0}, {2, 0}}, []Branch{{1, 1}, {3, 0}}, true}, // diverge at outer level
		{[]Branch{{1, 0}, {2, 0}}, []Branch{{1, 0}}, false},        // arm vs enclosing path
	}
	for i, c := range cases {
		if got := Exclusive(c.a, c.b); got != c.want {
			t.Errorf("case %d: Exclusive(%v, %v) = %v, want %v", i, c.a, c.b, got, c.want)
		}
		if got := Exclusive(c.b, c.a); got != c.want {
			t.Errorf("case %d: Exclusive is not symmetric", i)
		}
	}
}

func TestStageCapacity(t *testing.T) {
	cfg := Config{Stages: 12, TablesPerStage: 2}
	s := plan(t, cfg,
		Table{Name: "a"}, Table{Name: "b"}, Table{Name: "c"},
		Table{Name: "gw", Gateway: true}, Table{Name: "d"},
	)
	// Two tables per stage; the gateway costs no slot.
	if s.StageOf["c"] != 1 {
		t.Errorf("c@%d, want 1 (stage 0 full)", s.StageOf["c"])
	}
	if s.StageOf["gw"] != 1 || s.StageOf["d"] != 1 {
		t.Errorf("gw@%d d@%d, want both at 1 (gateways are slot-free)",
			s.StageOf["gw"], s.StageOf["d"])
	}
}

func TestPipelineDepthExceeded(t *testing.T) {
	// A 13-deep write→read chain cannot fit 12 stages.
	var tables []Table
	prev := "start"
	for i := 0; i < 13; i++ {
		sym := string(rune('a' + i))
		tables = append(tables, Table{Name: "t" + sym, Reads: []string{prev}, Writes: []string{sym}})
		prev = sym
	}
	_, err := Plan(tables, TofinoConfig)
	if err == nil {
		t.Fatal("13-stage chain scheduled on a 12-stage pipeline")
	}
	if !strings.Contains(err.Error(), "12-stage pipeline") {
		t.Errorf("error should name the pipeline depth: %v", err)
	}
	if !strings.Contains(err.Error(), "tm") {
		t.Errorf("error should name the unplaceable table: %v", err)
	}
}

func TestUnboundedConfig(t *testing.T) {
	var tables []Table
	prev := "s0"
	for i := 0; i < 40; i++ {
		sym := string(rune('A' + i))
		tables = append(tables, Table{Name: "t" + sym, Reads: []string{prev}, Writes: []string{sym}})
		prev = sym
	}
	s := plan(t, Config{}, tables...)
	if s.NumStages != 40 {
		t.Errorf("unbounded config scheduled %d stages, want 40", s.NumStages)
	}
}

func TestEmptyPlan(t *testing.T) {
	s := plan(t, TofinoConfig)
	if s.NumStages != 0 || len(s.Placements) != 0 {
		t.Errorf("empty input: NumStages=%d placements=%d, want 0/0", s.NumStages, len(s.Placements))
	}
}
