package sim

import (
	"sync"
	"sync/atomic"
	"time"

	"microp4/internal/flow"
)

// The observation spine: on the packet path an engine writes one thing,
// the record below, and only when begin found somebody watching.
// Metrics, hop spans and trace-bus events are readers — finish hands
// each its observe method's turn (metrics.go, hopspan.go, trace.go) —
// so the three views derive from one account and cannot disagree.

// symbols is the name table of one generation of a switch: the tables,
// actions, parser states, module instances and flowtables a record
// refers to, by dense integer id. It hangs on the Tables both engines of
// the generation share, so an id means the same to either and to every
// Metrics shard, and it dies with them. Engines intern when they are
// built (NewExec, NewInterp); the packet path only carries ids.
type symbols struct {
	mu    sync.Mutex
	ids   map[string]int32
	names atomic.Pointer[[]string] // append-only: a loaded view stays valid
}

// noName is the id of "": no action (a lookup that chose none, or one the
// program does not have) and the main program's instance path. A map of
// ids misses to it.
const noName int32 = 0

// newSymbols returns a name table holding noName.
func newSymbols() *symbols {
	s := &symbols{ids: map[string]int32{"": noName}}
	s.names.Store(&[]string{""})
	return s
}

func (s *symbols) intern(name string) int32 {
	s.mu.Lock()
	defer s.mu.Unlock()
	id, ok := s.ids[name]
	if !ok {
		names := append(*s.names.Load(), name)
		s.names.Store(&names)
		id = int32(len(names) - 1)
		s.ids[name] = id
	}
	return id
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
	bus  *Bus     // non-nil only if a subscriber was attached at begin
	syms *symbols // what the step ids mean: the engine's Tables' name table

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
// t is the engine's Tables.
func (r *record) begin(o *observers, t *Tables, meta Metadata, pktLen int) {
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
	r.m, r.span, r.bus, r.syms = m, meta.Span, bus, t.syms
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

// mark records a parser state entered or a module applied, the steps
// only the bus reads: sites call it behind r.bus != nil.
func (r *record) mark(kind stepKind, name, aux int32) {
	r.steps = append(r.steps, step{kind: kind, name: name, aux: aux})
}

// flow records one flowtable operation.
func (r *record) flow(name int32, ft *flow.Table) {
	r.steps = append(r.steps, step{kind: stepFlow, name: name, aux: int32(len(r.flows))})
	r.flows = append(r.flows, ft)
}

// names returns the id → name view of the record's steps.
func (r *record) names() []string { return *r.syms.names.Load() }

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
