package sim

import "microp4/internal/ir"

// LookupCompared reports how many entries (const and runtime) the
// compiled engine's lookup of kv in the named table compares kv with:
// the cost of a lookup as a count, for tests that must not time it.
func (t *Tables) LookupCompared(name string, def *ir.Table, kv []uint64) int {
	_, _, _, n := t.bind(name, def, nil).find(kv)
	return n
}

// PooledObservers takes one state from the executor's pool and returns
// the observers its record holds — none, by contract, once the packet
// that used the state is over. ok is false when the pool was empty.
func (e *Exec) PooledObservers() (m *Metrics, span *HopSpan, bus *Bus, ok bool) {
	st, _ := e.pool.Get().(*execState)
	if st == nil {
		return nil, nil, nil, false
	}
	return st.rec.m, st.rec.span, st.rec.bus, true
}

// NameCount is how many names the engines built over t have interned
// for their per-packet records.
func (t *Tables) NameCount() int { return len(*t.syms.names.Load()) }
