package sim

import (
	"sync"
	"time"

	"microp4/internal/flow"
)

// The observation spine: on the packet path an engine writes one thing,
// the record below, and only when begin found somebody watching.
// Metrics, hop spans and trace-bus events are readers — finish hands
// each its observe method's turn (metrics.go, hopspan.go, trace.go) —
// so the three views derive from one account and cannot disagree.

// symtab interns the names a record refers to (tables, actions, parser
// states, module instances, flowtables). It is process-wide and
// append-only: an id means the same to both engines, every generation
// of a switch and every Metrics shard, so per-table counters live in a
// slice indexed by it. The compiled engine interns at NewExec, the
// reference interpreter — as with its registers — on first use.
var symtab = struct {
	sync.RWMutex
	ids  map[string]int32
	strs []string
}{ids: make(map[string]int32)}

// noName is the id of "no name": the action of a lookup that missed.
const noName int32 = -1

func intern(s string) int32 {
	symtab.RLock()
	id, ok := symtab.ids[s]
	symtab.RUnlock()
	if ok {
		return id
	}
	symtab.Lock()
	defer symtab.Unlock()
	if id, ok := symtab.ids[s]; ok {
		return id
	}
	id = int32(len(symtab.strs))
	symtab.strs = append(symtab.strs, s)
	symtab.ids[s] = id
	return id
}

// names returns the id → name view; every id issued so far indexes it.
func names() []string {
	symtab.RLock()
	defer symtab.RUnlock()
	return symtab.strs
}

// observers is what attaches to an engine: a trace event bus (idle
// unless subscribed) and metrics. Hop spans come per packet, in Metadata.
type observers struct {
	bus      *Bus
	traceOff func() // SetTracer's current subscription
	metrics  *Metrics
}

// Bus returns the engine's event bus.
func (o *observers) Bus() *Bus { return o.bus }

// SetBus replaces the engine's event bus (e.g. to share one bus — and
// one sequence numbering — across a switch's engines). Call it before
// SetTracer or Subscribe.
func (o *observers) SetBus(b *Bus) {
	if b != nil {
		o.bus = b
	}
}

// SetTracer installs a tracer, replacing the one a previous call
// installed (nil removes it): Bus().Subscribe for the single-sink case.
func (o *observers) SetTracer(t Tracer) {
	if o.traceOff != nil {
		o.traceOff()
		o.traceOff = nil
	}
	if t != nil {
		o.traceOff = o.bus.Subscribe(t)
	}
}

// SetMetrics attaches (or, with nil, detaches) metrics to the engine.
func (o *observers) SetMetrics(m *Metrics) { o.metrics = m }

type stepKind uint8

const (
	stepTable  stepKind = iota // name: table, aux: chosen action, keys: the key values
	stepState                  // name: "program.state", aux: module instance (reference engine)
	stepModule                 // name: callee instance, aux: callee program (reference engine)
	stepFlow                   // name: flowtable instance, aux: index into record.flows
)

// step is one decision or extern call, in execution order; pointer-free,
// so the list costs the collector nothing.
type step struct {
	kind      stepKind
	outcome   LookupOutcome
	keyN      uint16 // key values held for this step (0 unless the bus reads)
	name, aux int32
	keyOff    int32 // into record.keys
}

// stage is where a packet's wall time is going. The reference engine
// switches it around each module's parser and deparser; the compiled
// engine, whose parsers and deparsers are MATs, stays in stageExec.
type stage uint8

const (
	stageExec stage = iota
	stageParse
	stageDeparse
	nStages
)

// record is one packet's pass through an engine. It lives in the
// compiled engine's pooled execState (slices reused: a warm engine fills
// it without allocating) and in the reference interpreter's run. begin
// sets the observer pointers, finish clears them: between packets a
// record holds none.
type record struct {
	on   bool // anyone watching this packet? Decided once, by begin.
	m    *Metrics
	span *HopSpan
	bus  *Bus // non-nil only if a subscriber was attached at begin

	inPort  uint64
	pktLen  int
	sampled bool // this packet's latency goes into the histogram
	start   time.Time
	cur     stage
	since   time.Time
	stageNs [nStages]int64

	steps []step
	keys  []uint64      // key values of the table steps, back to back
	flows []*flow.Table // the flowtables of the flow steps
	text  []byte        // the bus reader's formatting scratch
}

// begin decides who watches this packet: the engine's metrics or the
// shard in meta.M, the span in meta.Span, the bus if it has a subscriber
// now. With none the record stays off and a site costs a branch on r.on.
func (r *record) begin(o *observers, meta Metadata, pktLen int) {
	m, bus := o.metrics, o.bus
	if meta.M != nil {
		m = meta.M
	}
	if !bus.Active() {
		bus = nil
	}
	r.on = m != nil || meta.Span != nil || bus != nil
	if !r.on {
		return
	}
	r.m, r.span, r.bus = m, meta.Span, bus
	r.inPort, r.pktLen = meta.InPort, pktLen
	r.steps, r.keys, r.flows = r.steps[:0], r.keys[:0], r.flows[:0]
	r.sampled = m.sampleLatency()
	if r.sampled || r.span != nil {
		r.start = time.Now()
		r.cur, r.since, r.stageNs = stageExec, r.start, [nStages]int64{}
	}
}

// table records one table apply: the lookup's outcome, action and key.
func (r *record) table(name, action int32, outcome LookupOutcome, keys []uint64) {
	s := step{kind: stepTable, outcome: outcome, name: name, aux: action}
	if r.bus != nil { // only event text shows key values
		s.keyOff, s.keyN = int32(len(r.keys)), uint16(len(keys))
		r.keys = append(r.keys, keys...)
	}
	r.steps = append(r.steps, s)
}

// mark records a parser state entered or a module applied.
func (r *record) mark(kind stepKind, name, aux int32) {
	r.steps = append(r.steps, step{kind: kind, name: name, aux: aux})
}

// flow records one flowtable operation.
func (r *record) flow(name int32, ft *flow.Table) {
	r.steps = append(r.steps, step{kind: stepFlow, name: name, aux: int32(len(r.flows))})
	r.flows = append(r.flows, ft)
}

// enter switches the stage wall time is charged to; only a hop span
// reads stage times.
func (r *record) enter(s stage) {
	if r.span == nil {
		return
	}
	now := time.Now()
	r.stageNs[r.cur] += now.Sub(r.since).Nanoseconds()
	r.cur, r.since = s, now
}

// finish is both engines' epilogue, on the success and the error return
// alike: it detaches the observers and hands each the finished account.
// res is nil when err is not.
func (r *record) finish(res *ProcResult, err error) {
	if !r.on {
		return
	}
	m, span, bus := r.m, r.span, r.bus
	r.on, r.m, r.span, r.bus = false, nil, nil, nil
	var elapsed time.Duration
	if r.sampled || span != nil {
		now := time.Now()
		elapsed = now.Sub(r.start)
		r.stageNs[r.cur] += now.Sub(r.since).Nanoseconds() // an error return leaves its stage open
	}
	if m != nil {
		m.observe(r, res, err, elapsed)
	}
	if span != nil {
		span.observe(r, res, err, elapsed)
	}
	if bus != nil {
		bus.observe(r)
	}
}
