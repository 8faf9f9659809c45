package sim

import (
	"sync"

	"microp4/internal/flow"
	"microp4/internal/mat"
	"microp4/internal/types"
)

// Exec runs a composed MAT pipeline (the midend's output) on packets.
// It models the abstract machine a target realizes after µP4C's backend
// pass: one byte-stack (here: the packet buffer itself), scalar storage
// for header fields and metadata, and a sequence of table applies.
//
// The pipeline is slot-compiled at construction (compile.go): every
// reference is lowered to a dense index into flat per-packet state, and
// the state itself is pooled — with metrics detached, Process performs
// zero heap allocations per packet once the pool is warm, provided the
// caller returns results with ProcResult.Release.
type Exec struct {
	pl     *mat.Pipeline
	tables *Tables
	regs   map[string][]uint64    // register state, persistent across packets
	flows  map[string]*flow.Table // flowtable state, persistent across packets
	observers

	prog     []stmtFn            // compiled pipeline control flow
	actions  map[string]*cAction // compiled actions by fully qualified name
	nScalars int
	nValids  int
	maxKeys  int // widest table key set (per-state scratch size)

	// Pre-resolved intrinsic scalar slots.
	imInPort, imInTS, imPktLen, imQdepth, imOutPort, imPerr int

	pool sync.Pool // *execState
}

// NewExec returns an executor for a pipeline sharing control-plane
// state, with flowtables of its own. The pipeline is slot-compiled
// here, once.
func NewExec(pl *mat.Pipeline, t *Tables) *Exec {
	flows := make(map[string]*flow.Table, len(pl.FlowTables))
	for _, ft := range pl.FlowTables {
		flows[ft.Name] = flow.New(ft.Size, ft.IdleTTL, ft.EstTTL)
	}
	return NewExecWithFlows(pl, t, flows)
}

// NewExecWithFlows is NewExec running on the given flowtable instances,
// one for every flowtable the pipeline declares, by path. The executor
// reads the map and never writes it, so the caller may share the map
// and its tables with other executors.
func NewExecWithFlows(pl *mat.Pipeline, t *Tables, flows map[string]*flow.Table) *Exec {
	e := &Exec{pl: pl, tables: t, observers: observers{bus: NewBus()},
		regs: make(map[string][]uint64), flows: flows}
	for _, r := range pl.Registers {
		e.regs[r.Name] = make([]uint64, r.Size)
	}
	e.compile()
	return e
}

// Register returns a register array's cells by fully qualified path.
func (e *Exec) Register(path string) []uint64 { return e.regs[path] }

// FlowTable returns a flowtable instance by fully qualified path, or
// nil. Unlike the interpreter's lazy map, compiled flow tables exist
// from construction (the pipeline declares them all).
func (e *Exec) FlowTable(path string) *flow.Table { return e.flows[path] }

// ResetFlows clears every flowtable. The equivalence harness calls
// this before each witness run so all engines start from identical
// (empty) flow state.
func (e *Exec) ResetFlows() {
	for _, t := range e.flows {
		t.Reset()
	}
}

// Pipeline returns the executed pipeline.
func (e *Exec) Pipeline() *mat.Pipeline { return e.pl }

// execState is the per-packet machine state: the byte-stack (packet
// buffer), slot-indexed scalar and validity storage, and key scratch.
// States are pooled; the embedded ProcResult is what Process returns,
// and Release hands the whole state back.
type execState struct {
	e       *Exec
	buf     []byte
	scalars []uint64
	valid   []bool
	keys    []uint64 // table-key scratch, sized to the widest key set
	res     ProcResult
	rec     record // what this packet did, for whoever watches (record.go)
}

// getState fetches a pooled state (or builds one) and resets it.
func (e *Exec) getState() *execState {
	st, _ := e.pool.Get().(*execState)
	if st == nil {
		st = &execState{
			e:       e,
			scalars: make([]uint64, e.nScalars),
			valid:   make([]bool, e.nValids),
			keys:    make([]uint64, e.maxKeys),
		}
	} else {
		clear(st.scalars)
		clear(st.valid)
		st.buf = st.buf[:0]
		for i := range st.res.Out {
			st.res.Out[i] = OutPkt{} // drop packet references before reuse
		}
	}
	st.res = ProcResult{Out: st.res.Out[:0], Digests: st.res.Digests[:0], owner: st}
	return st
}

// Release returns a result's backing execution state to its engine's
// pool. Calling it is optional — unreleased results are simply
// garbage-collected — but the zero-allocation hot path depends on it.
// Safe on nil results and results of the reference interpreter (no-op),
// and idempotent; the result and its packet data must not be used after.
func (r *ProcResult) Release() {
	if r == nil || r.owner == nil {
		return
	}
	st := r.owner
	r.owner = nil
	st.e.pool.Put(st)
}

// Process runs the pipeline over one packet. It never panics:
// executor panics are recovered into an *EngineFault, and every
// failure it returns belongs to the typed taxonomy (errors.go).
//
// The returned result (and the packet data inside it) is backed by
// pooled state: call res.Release() once done to recycle it, or keep it
// indefinitely and let the GC have it.
func (e *Exec) Process(pkt []byte, meta Metadata) (res *ProcResult, err error) {
	st := e.getState()
	st.rec.begin(&e.observers, e.tables, meta, len(pkt))
	defer st.finish(&res, &err)
	defer recoverFault("compiled", &res, &err)
	st.buf = append(st.buf, pkt...)
	st.scalars[e.imInPort] = meta.InPort
	st.scalars[e.imInTS] = meta.InTimestamp
	st.scalars[e.imPktLen] = uint64(len(pkt))
	st.scalars[e.imQdepth] = meta.Qdepth
	if err := runList(e.prog, st); err != nil && err != errExit {
		return nil, err
	}
	res = &st.res
	if st.scalars[e.imOutPort] == types.DropPort || st.scalars[e.imPerr] != 0 {
		res.Dropped = true
		if st.scalars[e.imPerr] != 0 {
			res.ParserReject = true
		}
	} else {
		res.Out = append(res.Out, OutPkt{Data: st.buf, Port: st.scalars[e.imOutPort]})
	}
	return res, nil
}

// finish ends every Process call, failed or not: the record goes to
// its readers, and a state whose packet failed — nothing of it escaped
// — goes straight back to the pool.
func (st *execState) finish(resp **ProcResult, errp *error) {
	st.rec.finish(*resp, *errp)
	if *errp != nil {
		st.res.owner = nil
		st.e.pool.Put(st)
	}
}

// extend grows the packet to n bytes, zero-filling the new tail, in one
// step and inside the pooled buffer's capacity when it suffices.
func (st *execState) extend(n int) {
	if n > len(st.buf) {
		st.buf = append(st.buf, make([]byte, n-len(st.buf))...)
	}
}

// shift moves the packet tail at byte offset off by amt bytes:
// positive amt inserts zero bytes (packet grew), negative amt deletes
// bytes ending at off (packet shrank). Growth reuses the pooled
// buffer's capacity.
func (st *execState) shift(off, amt int) {
	if off > len(st.buf) {
		off = len(st.buf)
	}
	switch {
	case amt > 0:
		n := len(st.buf)
		st.extend(n + amt)
		copy(st.buf[off+amt:], st.buf[off:n])
		clear(st.buf[off : off+amt])
	case amt < 0:
		k := -amt
		dst := off + amt
		if dst < 0 {
			dst = 0
			k = off
		}
		copy(st.buf[dst:], st.buf[off:])
		st.buf = st.buf[:len(st.buf)-k]
	}
}
