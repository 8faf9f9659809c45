package sim

import "microp4/internal/ir"

// LookupCompared reports how many entries (const and runtime) the
// compiled engine's lookup of kv in the named table compares kv with:
// the cost of a lookup as a count, for tests that must not time it.
func (t *Tables) LookupCompared(name string, def *ir.Table, kv []uint64) int {
	_, _, _, n := t.bind(name, def, nil).find(kv)
	return n
}
