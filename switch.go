package microp4

import (
	"encoding/binary"
	"errors"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"microp4/internal/flow"
	"microp4/internal/obs"
	"microp4/internal/sim"
	"microp4/internal/trace"
)

// Output is one packet leaving the switch.
type Output struct {
	Port uint64
	Data []byte
}

// Engine selects how the dataplane executes packets.
type Engine int

const (
	// EngineCompiled executes the midend's composed MAT pipeline — the
	// abstract machine a hardware target realizes.
	EngineCompiled Engine = iota
	// EngineReference interprets the linked modules with source-level
	// semantics. The two engines are differentially tested to agree.
	EngineReference
)

// generation is one immutable configuration of a switch: a compiled
// dataplane program, the one engine that runs it (and that engine's
// registers), and its flowtables by path — each the previous
// generation's instance when the declaration carries over. Tables are
// the switch's. Packet paths load the live generation once per packet,
// so a cutover is adopted only at packet boundaries and a packet never
// sees a mix of two programs. The program is versioned and the state is
// not — the yanet2 cp_config_gen/dp_config pattern.
type generation struct {
	seq    uint64 // monotone per-switch generation number (1 = initial)
	dp     *Dataplane
	exec   *sim.Exec              // the compiled engine; nil under EngineReference or without a pipeline
	interp *sim.Interp            // the reference engine; nil under EngineCompiled
	flows  map[string]*flow.Table // flowtable instances by path, never written after construction

	schemaOnce sync.Once
	schema     *ControlSchema // nil when the dataplane has no compiled pipeline
}

// Schema returns the generation's control schema, built once from its
// dataplane's ControlAPI (nil for reference-engine-only programs).
func (g *generation) Schema() *ControlSchema {
	g.schemaOnce.Do(func() {
		if composed, _ := g.dp.Composed(); composed {
			g.schema = g.dp.ControlAPI().Schema()
		}
	})
	return g.schema
}

// Switch is a behavioral V1Model-style target: a single dataplane
// program, control-plane table state, multicast groups, and a
// recirculation path.
//
// Concurrency: Process may be called from multiple goroutines, and the
// control-plane methods (AddEntry, SetDefault, ClearTable,
// SetMulticastGroup, Checkpoint, Restore) may race live traffic —
// per-packet engine state is goroutine-local, table and flow state are
// internally synchronized, and the switch-level state below (clock,
// digests, multicast groups) is guarded here. The switch owns the table
// state and, through its generations, the flowtables; the program
// itself lives in an immutable generation adopted per packet, so
// StageGeneration/StartCanary/CutOver may race traffic and control
// writes too, and a staged program sees every write the live one does.
type Switch struct {
	engine   Engine
	gen      atomic.Pointer[generation] // live generation (never nil)
	staged   atomic.Pointer[generation] // staged, not yet adopted (nil = none)
	canary   atomic.Pointer[canaryState]
	genSeq   atomic.Uint64
	bus      *sim.Bus // one bus (and one event sequence) across generations
	metrics  *sim.Metrics
	traceOff func() // SetTracer's current subscription

	mu       sync.Mutex // guards mcGroups and digests
	mcGroups map[uint64][]uint64
	digests  []uint64

	obPool sync.Pool  // *outBuf: pooled per-packet output state
	pool   workerPool // parallel ProcessBatch state (idle until SetWorkers(n>1))
	tracer atomic.Pointer[trace.Recorder]

	// MaxRecirculations bounds the recirculation loop (default 4).
	MaxRecirculations int
	clock             atomic.Uint64
	workers           atomic.Int32 // ProcessBatch parallelism (<=1 = serial)
	tables            *sim.Tables  // control-plane table state, shared by every generation
}

// live returns the current generation (never nil after construction).
func (s *Switch) live() *generation { return s.gen.Load() }

// Digests drains and returns the values the dataplane sent to the
// control plane via im.digest (§6.4's CPU–dataplane interface).
func (s *Switch) Digests() []uint64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := s.digests
	s.digests = nil
	return out
}

// ReadRegister returns cell idx of a register array (§8.2 stateful
// extension), by fully qualified instance path.
func (s *Switch) ReadRegister(path string, idx int) (uint64, error) {
	g := s.live()
	var cells []uint64
	if g.interp != nil {
		// Lazily sized on first dataplane access; ask for at least idx+1.
		cells = g.interp.Register(path, idx+1)
	} else if g.exec != nil {
		cells = g.exec.Register(path)
	}
	if idx < 0 || idx >= len(cells) {
		return 0, fmt.Errorf("register %s has no cell %d", path, idx)
	}
	return cells[idx], nil
}

// FlowTable returns a flowtable instance (the flow-state extension) by
// fully qualified path, or nil when the program declares none by that
// name. The ctrlplane replication layer reads and installs entries
// through it; the dataplane mutates it via ft.upsert.
func (s *Switch) FlowTable(path string) *flow.Table { return s.live().flows[path] }

// FlowTablePaths lists the program's flowtable instances by fully
// qualified path, in declaration order.
func (s *Switch) FlowTablePaths() []string {
	var out []string
	for _, d := range flowDecls(s.live().dp) {
		out = append(out, d.Name)
	}
	return out
}

// NewSwitch returns a switch running the compiled pipeline.
func (d *Dataplane) NewSwitch() *Switch { return d.NewSwitchWith(EngineCompiled) }

// NewSwitchWith returns a switch with an explicit execution engine.
func (d *Dataplane) NewSwitchWith(engine Engine) *Switch {
	sw := &Switch{
		engine:            engine,
		tables:            sim.NewTables(),
		bus:               sim.NewBus(),
		mcGroups:          make(map[uint64][]uint64),
		MaxRecirculations: 4,
	}
	sw.gen.Store(sw.newGeneration(d, sw.genSeq.Add(1), flowTablesFor(d, nil)))
	return sw
}

// newGeneration builds a generation for d: the switch's engine over the
// switch's tables and the given flowtables, with registers zeroed —
// wired to the switch's shared trace bus but not to its metrics (a
// staged generation must not count into the live series; CutOver
// attaches metrics on adoption).
func (s *Switch) newGeneration(d *Dataplane, seq uint64, flows map[string]*flow.Table) *generation {
	g := &generation{seq: seq, dp: d, flows: flows}
	if s.engine == EngineReference {
		g.interp = sim.NewInterpWithFlows(d.res.Linked, s.tables, flows)
		g.interp.SetBus(s.bus)
	} else if d.res.Pipeline != nil {
		g.exec = sim.NewExecWithFlows(d.res.Pipeline, s.tables, flows)
		g.exec.SetBus(s.bus)
	}
	return g
}

// attachMetrics points a generation's engine at the switch's metrics
// (no-op before EnableMetrics).
func (s *Switch) attachMetrics(g *generation) {
	if s.metrics == nil {
		return
	}
	if g.interp != nil {
		g.interp.SetMetrics(s.metrics)
	}
	if g.exec != nil {
		g.exec.SetMetrics(s.metrics)
	}
}

// Schema returns the live generation's control schema, built once from
// the dataplane's ControlAPI. It is nil when the midend produced no
// compiled pipeline (reference-engine-only programs) — there is then no
// schema to validate against and the Try* methods install unchecked.
func (s *Switch) Schema() *ControlSchema { return s.live().Schema() }

// TryAddEntry validates an entry against the control schema (table
// existence, key count and widths, action membership, argument arity
// and widths) and installs it only when valid. A non-nil error is
// always a *ControlError; the table state is untouched on rejection.
func (s *Switch) TryAddEntry(table string, keys []Key, action string, args ...uint64) error {
	if sc := s.Schema(); sc != nil {
		if err := sc.ValidateAddEntry(table, keys, action, args); err != nil {
			return err
		}
	}
	s.tables.AddEntry(table, toRuntime(keys), action, args...)
	return nil
}

// TrySetDefault validates and applies a default-action override.
func (s *Switch) TrySetDefault(table, action string, args ...uint64) error {
	if sc := s.Schema(); sc != nil {
		if err := sc.ValidateSetDefault(table, action, args); err != nil {
			return err
		}
	}
	s.tables.SetDefault(table, action, args...)
	return nil
}

// TryClearTable validates that the table exists, then clears it.
func (s *Switch) TryClearTable(table string) error {
	if sc := s.Schema(); sc != nil {
		if err := sc.ValidateClearTable(table); err != nil {
			return err
		}
	}
	s.tables.ClearTable(table)
	return nil
}

// TrySetMulticastGroup validates the group id and replication list,
// then programs the packet replication engine.
func (s *Switch) TrySetMulticastGroup(gid uint64, ports ...uint64) error {
	if sc := s.Schema(); sc != nil {
		if err := sc.ValidateSetMulticastGroup(gid, ports); err != nil {
			return err
		}
	}
	s.setMulticastGroup(gid, ports)
	return nil
}

// AddEntry installs a table entry. Table and action names are fully
// qualified by module instance path (see Dataplane.Tables). A thin
// wrapper over TryAddEntry: schema-invalid entries are rejected (and
// the error discarded) instead of sitting inert in table state — use
// TryAddEntry to observe the rejection.
func (s *Switch) AddEntry(table string, keys []Key, action string, args ...uint64) {
	_ = s.TryAddEntry(table, keys, action, args...)
}

// SetDefault overrides a table's default action (see AddEntry on
// validation; use TrySetDefault to observe rejections).
func (s *Switch) SetDefault(table, action string, args ...uint64) {
	_ = s.TrySetDefault(table, action, args...)
}

// ClearTable removes a table's runtime entries.
func (s *Switch) ClearTable(table string) { _ = s.TryClearTable(table) }

// SetMulticastGroup programs the packet replication engine: packets
// sent to group gid are replicated to the given ports. Safe to call
// while packets are being processed.
func (s *Switch) SetMulticastGroup(gid uint64, ports ...uint64) {
	_ = s.TrySetMulticastGroup(gid, ports...)
}

func (s *Switch) setMulticastGroup(gid uint64, ports []uint64) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.mcGroups[gid] = append([]uint64(nil), ports...)
}

// Checkpoint is a point-in-time copy of a switch's control-plane and
// flow state: runtime table entries, default-action overrides,
// multicast groups, and the full contents of every flowtable instance
// (entry state, TTL deadlines, sync marks). Dataplane register state is
// deliberately not captured — it belongs to the packets, not the
// controller.
type Checkpoint struct {
	tables   *sim.TablesSnapshot
	mcGroups map[uint64][]uint64
	flows    map[string]*flow.Snapshot
}

// Checkpoint snapshots the control-plane and flow state for a later
// Restore — the state-transfer unit for standby bootstrap, and a way to
// rewind a whole switch. Transactions do not use it: a ctrlplane agent
// applies a batch only at commit, so an abort has nothing to undo.
// Safe to call while packets are processed and entries installed.
func (s *Switch) Checkpoint() *Checkpoint {
	cp := &Checkpoint{tables: s.tables.Snapshot(), flows: make(map[string]*flow.Snapshot)}
	s.mu.Lock()
	cp.mcGroups = make(map[uint64][]uint64, len(s.mcGroups))
	for gid, ports := range s.mcGroups {
		cp.mcGroups[gid] = append([]uint64(nil), ports...)
	}
	s.mu.Unlock()
	for path, ft := range s.live().flows {
		cp.flows[path] = ft.Snapshot()
	}
	return cp
}

// Restore reinstates a checkpoint, discarding every control-plane and
// flow-state change made since it was taken. Flowtable contents
// round-trip exactly — entry state, TTL deadlines, and sync marks are
// reinstated verbatim; paths the restoring switch's program does not
// declare are skipped. The checkpoint is not consumed and may be
// restored again.
func (s *Switch) Restore(cp *Checkpoint) {
	if cp == nil {
		return
	}
	s.tables.Restore(cp.tables)
	mc := make(map[uint64][]uint64, len(cp.mcGroups))
	for gid, ports := range cp.mcGroups {
		mc[gid] = append([]uint64(nil), ports...)
	}
	s.mu.Lock()
	s.mcGroups = mc
	s.mu.Unlock()
	flows := s.live().flows
	for path, snap := range cp.flows {
		if ft := flows[path]; ft != nil {
			ft.RestoreSnapshot(snap)
		}
	}
}

// mcPorts snapshots a multicast group's replication list.
func (s *Switch) mcPorts(gid uint64) []uint64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.mcGroups[gid]
}

// Process runs one packet received on inPort through the dataplane,
// returning the packets transmitted (empty when dropped). Multicast
// replication and recirculation are resolved here, in the architecture
// — mirroring how µPA's logical externs map onto a target's PRE.
//
// Process never panics: engine panics are recovered into an
// *EngineFault (counted in metrics when enabled), and every error it
// returns belongs to the typed taxonomy — match with errors.As against
// *ParseError, *DeparseError, *TableError, *EngineFault, and
// *RecircBudgetError, or errors.Is against the sim.ErrParse ...
// sim.ErrRecirc class sentinels.
func (s *Switch) Process(pkt []byte, inPort uint64) ([]Output, error) {
	outs, _, err := s.processOne(pkt, inPort, trace.HopContext{}, nil)
	return outs, err
}

// processOne is Process and ProcessHop: one packet on the next clock
// tick, traced into rec when there is one, its outputs copied out for
// the caller and its digests published.
func (s *Switch) processOne(pkt []byte, inPort uint64, hc trace.HopContext, rec *trace.Recorder) ([]Output, uint64, error) {
	clock := s.clock.Add(1)
	if s.metrics != nil {
		s.metrics.Clock.Set(int64(clock))
	}
	var sp *trace.Span
	if rec != nil {
		sp = &trace.Span{TraceID: hc.TraceID, SpanID: rec.NextID(), ParentID: hc.ParentID,
			Name: hc.Node, Start: hc.Tick, End: hc.Tick}
	}
	ob, err := s.ingress(pkt, sim.Metadata{InPort: inPort, InTimestamp: clock,
		PktLen: uint64(len(pkt)), Qdepth: hc.Qdepth}, sp)
	var outs []Output
	if len(ob.outs) > 0 {
		outs = make([]Output, len(ob.outs))
		for i, o := range ob.outs {
			outs[i] = Output{Port: o.Port, Data: append([]byte(nil), o.Data...)}
		}
	}
	if len(ob.digests) > 0 {
		s.mu.Lock()
		s.digests = append(s.digests, ob.digests...)
		s.mu.Unlock()
	}
	s.obPool.Put(ob)
	if sp == nil {
		return outs, 0, err
	}
	rec.Record(sp)
	if err != nil {
		var fault *sim.EngineFault
		if errors.As(err, &fault) {
			rec.NoteFault(sp, pkt)
		}
	}
	return outs, sp.SpanID, err
}

// ingress is the one way a packet enters the switch, shared by Process,
// ProcessHop and ProcessBatch: it runs pkt through the live generation
// into a pooled outBuf the caller owns. sp, when non-nil, is the
// caller's span for this hop, identity filled in; ingress hangs the
// engine's hop detail on it and marks an error that arose above the
// engine (the recirculation budget, an architecture fault), which the
// engine's own account cannot show.
func (s *Switch) ingress(pkt []byte, meta sim.Metadata, sp *trace.Span) (*outBuf, error) {
	ob := s.getOutBuf()
	if sp != nil {
		sp.Kind, sp.InPort, sp.Qdepth, sp.Hop = "hop", meta.InPort, meta.Qdepth, &sim.HopSpan{}
		meta.Span = sp.Hop
	}
	err := s.archLoop(ob, s.live(), pkt, meta)
	if c := s.canary.Load(); c != nil {
		c.mirror(pkt, meta, ob, err)
	}
	if sp != nil && err != nil {
		sp.Hop.Disposition, sp.Hop.Err = "error", err.Error()
	}
	return ob, err
}

// outBuf is the pooled per-packet output state of the architecture
// loop: the transmitted packets, the byte buffers backing them (reused
// across packets once warm), and any digests the dataplane raised.
type outBuf struct {
	s       *Switch
	outs    []Output
	bufs    [][]byte // backing storage, parallel to outs
	digests []uint64
}

func (s *Switch) getOutBuf() *outBuf {
	ob, _ := s.obPool.Get().(*outBuf)
	if ob == nil {
		return &outBuf{s: s}
	}
	ob.outs = ob.outs[:0]
	ob.digests = ob.digests[:0]
	return ob
}

// add appends one transmitted packet, copying data into this buffer's
// pooled backing storage.
func (ob *outBuf) add(port uint64, data []byte) {
	i := len(ob.outs)
	var buf []byte
	if i < len(ob.bufs) {
		buf = append(ob.bufs[i][:0], data...)
		ob.bufs[i] = buf
	} else {
		buf = append([]byte(nil), data...)
		ob.bufs = append(ob.bufs, buf)
	}
	ob.outs = append(ob.outs, Output{Port: port, Data: buf})
}

// archLoop runs one packet through the architecture loop — engine,
// multicast replication, recirculation — appending transmitted packets
// and digests to ob, without touching switch-wide digest or clock
// state. It is the engine-independent core shared by Process,
// ProcessBatch, and the canary's shadow path. On error ob's outputs are
// cleared but digests raised by earlier recirculation passes are kept,
// matching Process semantics.
func (s *Switch) archLoop(ob *outBuf, g *generation, pkt []byte, meta sim.Metadata) (err error) {
	defer func() {
		if r := recover(); r != nil {
			// Architecture-layer panic (the engines recover their own):
			// degrade to a typed fault, never a crash.
			ob.outs = ob.outs[:0]
			err = &sim.EngineFault{Engine: "switch", Reason: fmt.Sprint(r), PanicValue: r}
			if s.metrics != nil {
				s.metrics.EngineFaults.Inc()
			}
		}
	}()
	data := pkt
	for pass := 0; ; pass++ {
		res, perr := s.process(g, data, meta)
		if perr != nil {
			ob.outs = ob.outs[:0]
			return perr
		}
		ob.digests = append(ob.digests, res.Digests...)
		for i := 0; i < len(res.Out)-1; i++ {
			// Enqueued (non-final) packets come from the reference
			// interpreter's orchestration modules.
			ob.add(res.Out[i].Port, res.Out[i].Data)
		}
		var final *sim.OutPkt
		if !res.Dropped && len(res.Out) > 0 {
			final = &res.Out[len(res.Out)-1]
		}
		if final != nil && res.McastGroup != 0 {
			ports := s.mcPorts(res.McastGroup)
			for _, port := range ports {
				ob.add(port, final.Data)
			}
			if sp := meta.Span; sp != nil {
				// The engine saw a forward to the PRE; the architecture
				// resolved it into replication — the span reports the truth.
				sp.Disposition = "multicast"
				sp.OutPorts = append(sp.OutPorts[:0], ports...)
			}
			res.Release()
			return nil
		}
		if final != nil && res.Recirculate {
			if pass >= s.MaxRecirculations {
				// The budget is an architecture drop: typed, and counted
				// against the drop counters alongside the recirculations
				// that led here.
				if s.metrics != nil {
					s.metrics.RecircDrops.Inc()
					s.metrics.Drops.Inc()
					s.metrics.Port(meta.InPort).Drops.Inc()
				}
				res.Release()
				ob.outs = ob.outs[:0]
				return &sim.RecircBudgetError{Limit: s.MaxRecirculations}
			}
			// Keep the state alive: data aliases its buffer across the
			// recirculation (bounded by MaxRecirculations, then GC'd).
			data = final.Data
			continue
		}
		if final != nil {
			ob.add(final.Port, final.Data)
		}
		res.Release()
		return nil
	}
}

// BatchResult is the outcome of one packet of a ProcessBatch call:
// exactly what Process would have returned for it. Its outputs are
// backed by pooled buffers owned by the switch — call Release once the
// result has been consumed to recycle them (optional: unreleased
// results are garbage-collected), after which the result and its packet
// data must not be used.
type BatchResult struct {
	Out []Output
	Err error
	ob  *outBuf
}

// Release returns the result's backing buffers to its switch's pool.
// Safe on the zero value, and idempotent.
func (r *BatchResult) Release() {
	if r.ob == nil {
		return
	}
	ob := r.ob
	r.ob = nil
	r.Out = nil
	ob.s.obPool.Put(ob)
}

// SetWorkers sets how many goroutines a ProcessBatch call may run on,
// the caller's included (values below 2 select the serial path, the
// default). Per-packet engine state is goroutine-local, table lookups
// read the switch's lock-free index, and flow tables keep their
// lock, so a parallel batch is safe against concurrent control-plane
// updates and cutovers. Safe to call between batches, and from other
// goroutines. A parallel batch starts the n-1 helper goroutines it
// finds missing; they outlive the call, exit once no batch has come for
// helperIdle, and so never pin a switch that is no longer used
// (parallel batches are serialized over them; serial batches and
// Process stay fully concurrent).
func (s *Switch) SetWorkers(n int) {
	if n < 1 {
		n = 1
	}
	s.workers.Store(int32(n))
}

// The tuning of the parallel batch path, fixed by measurement on
// flow_batch (256-packet batches, two workers, two cores; the runs are
// in CHANGES.md under PR 16).
const (
	// bucketsPerWorker sizes the unit of work: a batch is split into
	// workers × bucketsPerWorker flow buckets, each claimed whole. Every
	// bucket boundary shifts the workers' phase against each other, and
	// with it the odds that two of them meet at a flow table's one lock,
	// where the loser is parked for ~90 µs: 1–2 ran 890–900 k packets/s,
	// 4 ran 845 k, 8 ran 740 k (a stateless program gains ~4 % from 1 to
	// 6). 2 leaves a late helper's share stealable in halves.
	bucketsPerWorker = 2
	// minParallelBatch is the batch size below which the caller runs the
	// batch alone: a parked helper joins 50–150 µs late, by which time
	// the caller is through some 64 packets.
	minParallelBatch = 64
	// helperSpin is how long after a batch a helper polls for the next
	// before it parks: longer than the gap a busy caller leaves between
	// two batches, so that back-to-back batches pay for no wake-up.
	helperSpin = 200 * time.Microsecond
	// helperIdle is how long a parked helper waits before it exits.
	helperIdle = 250 * time.Millisecond
)

// workerPool is the parallel-batch state of a switch: one job at a
// time, split by flowBucket into index lists that the calling goroutine
// and the helpers claim whole and run in index order. Every bucket can
// be claimed by anyone, so the caller finishes whatever a late helper
// never reached, and two packets of one flow are always run by one
// goroutine in slice order.
type workerPool struct {
	mu      sync.Mutex // serializes batches; guards helpers, starts, seq
	helpers []*helper  // grows to the widest SetWorkers seen, less one
	starts  int        // helper goroutines started, ever
	seq     uint32     // number of the batch in flight

	// The job. Written by the caller before it publishes next; a worker
	// reads it only between claiming a bucket and counting it finished,
	// which is when the caller cannot have moved on.
	pkts    [][]byte
	results []BatchResult
	base    uint64
	inPort  uint64
	buckets [][]int32 // packet indices per flow bucket, reused across batches

	next    atomic.Uint64 // seq<<32 | buckets not yet claimed
	pending atomic.Int32  // buckets not yet finished
}

// helper is one helper goroutine's slot. The caller moves it from
// exited or parked to running; the helper parks and exits itself.
type helper struct {
	state  atomic.Int32  // helperExited, helperRunning or helperParked
	unpark chan struct{} // one token per parked → running
}

const (
	helperExited int32 = iota
	helperRunning
	helperParked
)

// claim takes the next unclaimed bucket of batch seq, or reports that
// the batch has none left. A worker that fell behind finds a later seq
// in next and can claim nothing: it never touches another batch's job.
func (p *workerPool) claim(seq uint32) ([]int32, bool) {
	for {
		v := p.next.Load()
		if uint32(v>>32) != seq || uint32(v) == 0 {
			return nil, false
		}
		if p.next.CompareAndSwap(v, v-1) {
			return p.buckets[uint32(v)-1], true
		}
	}
}

// drain runs buckets of batch seq as worker w until none is left to
// claim. Worker w counts into telemetry shard w: uncontended per-worker
// series, folded back into the switch-wide metrics at scrape time.
func (s *Switch) drain(seq uint32, w int) {
	p := &s.pool
	bucket, ok := p.claim(seq)
	if !ok {
		return
	}
	m, rec := s.metrics.Shard(w), s.tracer.Load()
	for ; ok; bucket, ok = p.claim(seq) {
		for _, i := range bucket {
			s.runBatchPacket(p.pkts, p.results, p.base, p.inPort, int(i), m, rec)
		}
		p.pending.Add(-1)
	}
}

// help is helper w's life: join every batch it sees published, poll for
// helperSpin after the last one ended, park for helperIdle, exit. A
// helper that parks just as a batch is published misses that batch and
// is woken by the next — the caller drains either way.
func (s *Switch) help(w int, h *helper) {
	p := &s.pool
	idle := time.NewTimer(helperIdle)
	defer idle.Stop()
	var seen uint32
	for since := time.Now(); ; runtime.Gosched() {
		switch seq := uint32(p.next.Load() >> 32); {
		case seq != seen:
			seen = seq
			if w < int(s.workers.Load()) {
				s.drain(seq, w)
			}
			since = time.Now()
		case p.pending.Load() != 0:
			since = time.Now() // others are still inside the batch
		case time.Since(since) >= helperSpin:
			// go.mod's go 1.22 keeps the unsynchronized timer channel:
			// empty it before Reset.
			if !idle.Stop() {
				select {
				case <-idle.C:
				default:
				}
			}
			idle.Reset(helperIdle)
			h.state.Store(helperParked)
			select {
			case <-h.unpark:
			case <-idle.C:
				if h.state.CompareAndSwap(helperParked, helperExited) {
					return
				}
				<-h.unpark // a batch took this helper as the timer fired
			}
			since = time.Now()
		}
	}
}

// dispatch splits pkts by flow into the first nb bucket lists, each in
// slice order.
func (p *workerPool) dispatch(pkts [][]byte, nb int) {
	for len(p.buckets) < nb {
		p.buckets = append(p.buckets, nil)
	}
	for b := range p.buckets[:nb] {
		p.buckets[b] = p.buckets[b][:0]
	}
	byIndex := dispatchMutation == 1
	for i, pkt := range pkts {
		b := flowBucket(pkt, nb)
		if byIndex {
			b = i % nb
		}
		p.buckets[b] = append(p.buckets[b], int32(i))
	}
}

// runParallel runs one batch on the calling goroutine and workers-1
// helpers: dispatch by flow, publish, wake or start the helpers that
// are not polling, work, and wait for the buckets others took.
func (s *Switch) runParallel(pkts [][]byte, results []BatchResult, base, inPort uint64, workers int) {
	p := &s.pool
	p.mu.Lock()
	defer p.mu.Unlock()
	nb := workers * bucketsPerWorker
	p.dispatch(pkts, nb)
	p.pkts, p.results, p.base, p.inPort = pkts, results, base, inPort
	p.seq++
	p.pending.Store(int32(nb))
	p.next.Store(uint64(p.seq)<<32 | uint64(nb))
	for len(p.helpers) < workers-1 {
		p.helpers = append(p.helpers, &helper{unpark: make(chan struct{}, 1)})
	}
	for i, h := range p.helpers[:workers-1] {
		if h.state.CompareAndSwap(helperParked, helperRunning) {
			h.unpark <- struct{}{}
		} else if h.state.CompareAndSwap(helperExited, helperRunning) {
			p.starts++
			go s.help(i+1, h)
		}
	}
	s.drain(p.seq, 0)
	for p.pending.Load() != 0 {
		runtime.Gosched() // a helper is inside its last bucket
	}
	p.pkts, p.results = nil, nil
}

// dispatchMutation is a test hook that breaks the dispatch on purpose,
// so the per-flow order tests can show they bite: 1 keys buckets by
// packet index instead of by flow. Only tests set it.
var dispatchMutation int

// flowBucket maps a frame to one of nb flow buckets: the architecture's
// receive-side scaling. It hashes the wire 5-tuple — IPv4/IPv6
// addresses, plus L4 ports under TCP and UDP — or, for anything else,
// MACs and ethertype, with the two endpoints combined commutatively so
// both directions of a flow share a bucket. A frame shorter than an
// Ethernet header goes to bucket 0. It reads no byte past the L4 ports
// and is deliberately not derived from a program's flowtable keys
// (NAT64 passes computed addresses): where a packet runs is a matter of
// locality and order, never of correctness.
func flowBucket(pkt []byte, nb int) int {
	if len(pkt) < 14 {
		return 0
	}
	be := binary.BigEndian
	proto := uint64(be.Uint16(pkt[12:]))
	var src, dst uint64
	l4 := 0
	switch {
	case proto == 0x0800 && len(pkt) >= 34:
		src, dst = uint64(be.Uint32(pkt[26:])), uint64(be.Uint32(pkt[30:]))
		proto, l4 = uint64(pkt[23]), 14+int(pkt[14]&0xF)*4
	case proto == 0x86DD && len(pkt) >= 54:
		src = mix64(be.Uint64(pkt[22:])) ^ be.Uint64(pkt[30:])
		dst = mix64(be.Uint64(pkt[38:])) ^ be.Uint64(pkt[46:])
		proto, l4 = uint64(pkt[20]), 54
	default:
		src, dst = be.Uint64(pkt[4:])&(1<<48-1), be.Uint64(pkt)>>16
	}
	if (proto == 6 || proto == 17) && l4 > 0 && len(pkt) >= l4+4 {
		src ^= uint64(be.Uint16(pkt[l4:])) << 48
		dst ^= uint64(be.Uint16(pkt[l4+2:])) << 48
	}
	h := mix64(mix64(src) + mix64(dst) + proto)
	return int((h >> 32) * uint64(nb) >> 32)
}

// mix64 is the splitmix64 finalizer.
func mix64(x uint64) uint64 {
	x = (x ^ x>>30) * 0xBF58476D1CE4E5B9
	x = (x ^ x>>27) * 0x94D049BB133111EB
	return x ^ x>>31
}

// runBatchPacket processes packet i of a batch into results[i],
// counting into telemetry shard m (nil = the switch-wide series) and
// recording a hop span in rec (nil = tracing off).
func (s *Switch) runBatchPacket(pkts [][]byte, results []BatchResult, base, inPort uint64, i int, m *sim.Metrics, rec *trace.Recorder) {
	tick := base + uint64(i) + 1
	var sp *trace.Span
	if rec != nil {
		// Batch packets are self-rooted traces: no network hands them a
		// context, so the span id doubles as the trace id.
		sid := rec.NextID()
		sp = &trace.Span{TraceID: sid, SpanID: sid, Name: "batch", Start: tick, End: tick}
	}
	ob, err := s.ingress(pkts[i], sim.Metadata{InPort: inPort, InTimestamp: tick,
		PktLen: uint64(len(pkts[i])), M: m}, sp)
	rec.Record(sp)
	results[i] = BatchResult{Out: ob.outs, Err: err, ob: ob}
}

// ProcessBatch runs a batch of packets, all received on inPort, through
// the dataplane, returning one BatchResult per packet in order. It is
// semantically identical to calling Process once per packet in slice
// order: clock ticks are pre-assigned per index, digests are published
// in packet order, and recirculation/multicast resolve per packet —
// whether the batch runs serially or (after SetWorkers(n>1)) sharded
// across the worker pool.
func (s *Switch) ProcessBatch(pkts [][]byte, inPort uint64) []BatchResult {
	return s.ProcessBatchInto(pkts, inPort, nil)
}

// ProcessBatchInto is ProcessBatch reusing a caller-provided results
// slice (when its capacity suffices). Together with BatchResult.Release
// it makes the steady-state batch path allocation-free: release every
// result of a batch before reusing the slice for the next one.
func (s *Switch) ProcessBatchInto(pkts [][]byte, inPort uint64, results []BatchResult) []BatchResult {
	n := len(pkts)
	if n == 0 {
		return nil
	}
	if cap(results) >= n {
		results = results[:n]
	} else {
		results = make([]BatchResult, n)
	}
	base := s.clock.Add(uint64(n)) - uint64(n)
	if workers := int(s.workers.Load()); workers > 1 && n >= minParallelBatch {
		s.runParallel(pkts, results, base, inPort, workers)
	} else {
		rec := s.tracer.Load()
		for i := range pkts {
			s.runBatchPacket(pkts, results, base, inPort, i, nil, rec)
		}
	}
	// Publish digests in packet order.
	var all []uint64
	for i := range results {
		if ob := results[i].ob; ob != nil && len(ob.digests) > 0 {
			all = append(all, ob.digests...)
		}
	}
	if len(all) > 0 {
		s.mu.Lock()
		s.digests = append(s.digests, all...)
		s.mu.Unlock()
	}
	if s.metrics != nil {
		s.metrics.Clock.Set(int64(base + uint64(n)))
	}
	return results
}

func (s *Switch) process(g *generation, pkt []byte, meta sim.Metadata) (*sim.ProcResult, error) {
	if g.exec != nil {
		return g.exec.Process(pkt, meta)
	}
	if g.interp != nil {
		return g.interp.Process(pkt, meta)
	}
	return nil, &sim.EngineFault{Engine: "compiled",
		Reason: fmt.Sprintf("engine unavailable: %v (use EngineReference)", g.dp.res.ComposeErr)}
}

// TraceEvent is the simulator's trace event. Seq is a monotonic
// per-switch sequence number; Module is the instance path of the
// emitting module ("" = the main program), so traces from composed
// programs (§4) attribute every event to its module.
type TraceEvent = sim.TraceEvent

// SetTracer installs a debugging tracer (§8.2): fn receives one event
// per parser state, module application, and table lookup. Pass nil to
// disable. SetTracer manages a single sink; use Subscribe to attach
// additional independent sinks.
func (s *Switch) SetTracer(fn func(TraceEvent)) {
	if s.traceOff != nil {
		s.traceOff()
		s.traceOff = nil
	}
	if fn == nil {
		return
	}
	s.traceOff = s.Subscribe(fn)
}

// Subscribe attaches one sink to the switch's trace event bus — both
// engines publish to it with a shared sequence numbering — and returns
// a detach function. Any number of sinks may be attached; when none
// are, tracing costs one atomic load per packet. A packet's events are
// delivered when its pass through the engine is over, in order.
func (s *Switch) Subscribe(fn func(TraceEvent)) (cancel func()) {
	return s.bus.Subscribe(fn)
}

// EnableMetrics attaches dataplane observability — per-port and
// per-table counters, error counters, and a latency histogram — to the
// switch and returns the registry they are exposed through (serve it
// with obs.NewHandler, or encode it with WritePrometheus/WriteJSON).
// Idempotent; the first call allocates the registry. Before the first
// call the packet path carries no instrumentation beyond a nil check.
func (s *Switch) EnableMetrics() *obs.Registry {
	if s.metrics == nil {
		s.metrics = sim.NewMetrics(obs.NewRegistry())
		s.attachMetrics(s.live())
	}
	return s.metrics.Registry()
}

// SetLatencySampleEvery tunes the latency histogram's sampling period:
// every nth packet is timed (default 1 — every packet; see
// sim.Metrics.SampleEvery). Counters are unaffected. No-op before
// EnableMetrics.
func (s *Switch) SetLatencySampleEvery(n int64) {
	if s.metrics != nil {
		s.metrics.SampleEvery.Store(n)
	}
}

// Metrics returns the registry attached by EnableMetrics, or nil when
// metrics are disabled.
func (s *Switch) Metrics() *obs.Registry {
	if s.metrics == nil {
		return nil
	}
	return s.metrics.Registry()
}
