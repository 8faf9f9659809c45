package lib

import (
	"testing"

	"microp4/internal/midend"
)

// TestCompositionGoldens pins structural invariants of every composed
// program — byte-stack size, table count, instance count, and min-packet
// size — so accidental changes to the compiler or library surface as
// diffs here rather than as silent behaviour shifts.
func TestCompositionGoldens(t *testing.T) {
	want := map[string]struct {
		bs        int // byte-stack bytes (Eq. 4)
		minPkt    int
		tables    int // total MATs incl. synthetic
		userTbls  int
		instances int // inlined module instances incl. main
	}{
		"P1":  {bs: 54, minPkt: 14, tables: 6, userTbls: 2, instances: 2},
		"P2":  {bs: 58, minPkt: 14, tables: 13, userTbls: 4, instances: 5},
		"P3":  {bs: 54, minPkt: 14, tables: 13, userTbls: 4, instances: 5},
		"P4":  {bs: 54, minPkt: 14, tables: 10, userTbls: 3, instances: 4},
		"P5":  {bs: 54, minPkt: 14, tables: 13, userTbls: 4, instances: 5},
		"P6":  {bs: 84, minPkt: 14, tables: 13, userTbls: 4, instances: 5},
		"P7":  {bs: 126, minPkt: 14, tables: 12, userTbls: 3, instances: 5},
		"P8":  {bs: 72, minPkt: 14, tables: 13, userTbls: 4, instances: 5},
		"P9":  {bs: 54, minPkt: 14, tables: 14, userTbls: 5, instances: 5},
		"P10": {bs: 156, minPkt: 14, tables: 18, userTbls: 7, instances: 6},
		"P11": {bs: 54, minPkt: 14, tables: 11, userTbls: 5, instances: 3},
	}
	for _, m := range Programs {
		main, mods, err := CompileProgram(m.Name)
		if err != nil {
			t.Fatalf("%s: %v", m.Name, err)
		}
		res, err := midend.Build(main, mods...)
		if err != nil {
			t.Fatalf("%s: %v", m.Name, err)
		}
		w, ok := want[m.Name]
		if !ok {
			t.Fatalf("no golden for %s", m.Name)
		}
		pl := res.Pipeline
		if pl.BsBytes != w.bs {
			t.Errorf("%s: byte-stack %d, golden %d", m.Name, pl.BsBytes, w.bs)
		}
		if pl.MinPkt != w.minPkt {
			t.Errorf("%s: min-packet %d, golden %d", m.Name, pl.MinPkt, w.minPkt)
		}
		if len(pl.Tables) != w.tables {
			t.Errorf("%s: %d tables, golden %d", m.Name, len(pl.Tables), w.tables)
		}
		if len(pl.UserTables) != w.userTbls {
			t.Errorf("%s: %d user tables, golden %d", m.Name, len(pl.UserTables), w.userTbls)
		}
		if len(pl.Instances) != w.instances {
			t.Errorf("%s: %d instances, golden %d", m.Name, len(pl.Instances), w.instances)
		}
	}
}
