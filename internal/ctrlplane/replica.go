package ctrlplane

import (
	"fmt"
	"sort"

	"microp4"
	"microp4/internal/flow"
	"microp4/internal/netsim"
	"microp4/internal/sim"
	"microp4/internal/trace"
	"microp4/internal/wire"
)

// ReplicaConfig wires one end of an active↔standby replication channel.
// The same config is handed to both ends (the Name differs per node).
type ReplicaConfig struct {
	// Name is this node's name in the netsim network (labels events,
	// derives the session id on the active side).
	Name string
	// SyncPort carries replication traffic; packets on any other port
	// pass through to the wrapped switch's dataplane.
	SyncPort uint64
	// Seed derives the replication session id (active side).
	Seed uint64
	// Metrics records sync lag and malformed-frame rejects (optional).
	Metrics *Metrics
	// Tracer receives "flowsync" spans: rounds, ack lag, promotion
	// (optional).
	Tracer *trace.Recorder
	// Bus receives "flowsync" trace events (optional).
	Bus *sim.Bus
}

// The replication schedule, in virtual ticks and rounds.
const (
	// syncInterval is the spacing of replication rounds.
	syncInterval = 16
	// resyncEvery makes every Nth round an anti-entropy full-table
	// resync instead of an incremental update.
	resyncEvery = 8
	// idleRounds is how many workless rounds the replicator runs — still
	// probing the standby — before quiescing its timer so a drained
	// network can go quiet. Dataplane traffic re-arms it.
	idleRounds = 3
)

// sentBatch is the bookkeeping for one in-flight FlowSync frame: which
// keys it carried (to MarkSynced on ack) and when it left (ack lag).
type sentBatch struct {
	table  string
	keys   []flow.Key
	sentAt uint64
}

// Replicator is the active side of flow-state replication: a
// netsim.Processor wrapping the active *microp4.Switch. Dataplane
// packets pass through (and re-arm the sync timer); acks arriving on
// the sync port mark their batch's entries synced. Rounds run on the
// network's virtual clock: each round batches every flow table's
// unsynced entries into FlowSync frames (or the full table, on
// anti-entropy rounds) and transmits them toward the standby. Entries
// whose frames are lost simply stay unsynced and are re-batched next
// round — retransmission is free, riding the same Synced bit the
// dataplane clears on every change worth replicating.
//
// All replicator state is touched only by the network's single-threaded
// run loop (Process, timers, and acks all run inside Network.Run).
type Replicator struct {
	n   *netsim.Network
	sw  *microp4.Switch
	cfg ReplicaConfig

	session   uint64
	seq       uint64
	rounds    uint64
	resyncs   uint64
	idle      int
	scheduled bool
	stopped   bool
	cancel    func()

	inflight    map[uint64]sentBatch
	lastAck     uint64 // network tick of the most recent valid ack
	lastRoundAt uint64 // network tick of the previous round
}

// NewReplicator wraps the active switch. Call Start (or let the first
// dataplane packet arm the timer) after wiring the network.
func NewReplicator(n *netsim.Network, sw *microp4.Switch, cfg ReplicaConfig) *Replicator {
	return &Replicator{
		n:        n,
		sw:       sw,
		cfg:      cfg,
		session:  wire.SessionID(cfg.Seed, cfg.Name),
		inflight: make(map[uint64]sentBatch),
	}
}

// Switch returns the wrapped active switch.
func (r *Replicator) Switch() *microp4.Switch { return r.sw }

// Bootstrap provisions a freshly paired standby with the active's
// control-plane state via Switch Checkpoint/Restore — table entries,
// defaults, and multicast groups — so replication only has to carry
// the fast-changing flow state. Promotion later restores nothing: the
// standby has been a live, fully programmed switch all along.
func (r *Replicator) Bootstrap(standby *microp4.Switch) {
	standby.Restore(r.sw.Checkpoint())
	r.cfg.event("bootstrap", func() string { return "control state copied to standby" })
}

// Start arms the periodic sync timer.
func (r *Replicator) Start() {
	if !r.stopped {
		r.schedule()
	}
}

// Stop cancels replication permanently (the active is being killed).
func (r *Replicator) Stop() {
	r.stopped = true
	if r.cancel != nil {
		r.cancel()
		r.cancel = nil
	}
	r.scheduled = false
}

// Lag returns the number of live entries not yet acknowledged by the
// standby, summed over all flow tables.
func (r *Replicator) Lag() int {
	lag := 0
	for _, path := range r.sw.FlowTablePaths() {
		if tb := r.sw.FlowTable(path); tb != nil {
			lag += len(tb.Unsynced(nil))
		}
	}
	return lag
}

// LastAck returns the network tick of the most recent valid ack (0 =
// never heard).
func (r *Replicator) LastAck() uint64 { return r.lastAck }

// Rounds returns (rounds run, anti-entropy resyncs among them).
func (r *Replicator) Rounds() (rounds, resyncs uint64) { return r.rounds, r.resyncs }

// Process implements netsim.Processor: acks on the sync port, dataplane
// traffic everywhere else. Dataplane packets re-arm a quiesced timer —
// new traffic means new flow state to replicate.
func (r *Replicator) Process(pkt []byte, inPort uint64) ([]microp4.Output, error) {
	if inPort == r.cfg.SyncPort {
		r.handleAck(pkt)
		return nil, nil
	}
	out, err := r.sw.Process(pkt, inPort)
	if !r.stopped && !r.scheduled {
		r.idle = 0
		r.schedule()
	}
	return out, err
}

func (r *Replicator) handleAck(pkt []byte) {
	ack, err := DecodeFlowAck(pkt)
	if err != nil {
		// Corruption or garbage: drop, count. The entries ride again
		// next round.
		r.cfg.Metrics.Reject(sim.RejectMalformed)
		r.cfg.event("reject", func() string { return "flow-ack: " + err.Error() })
		return
	}
	if ack.Session != r.session {
		r.cfg.event("reject", func() string { return fmt.Sprintf("flow-ack: foreign session %#x", ack.Session) })
		return
	}
	r.lastAck = r.n.Now()
	b, ok := r.inflight[ack.Seq]
	if !ok {
		return // duplicate ack, or ack of a batch already purged
	}
	delete(r.inflight, ack.Seq)
	if tb := r.sw.FlowTable(b.table); tb != nil {
		for _, k := range b.keys {
			tb.MarkSynced(k)
		}
	}
	if r.cfg.Tracer != nil {
		id := r.cfg.Tracer.NextID()
		sp := &trace.Span{TraceID: id, SpanID: id, Kind: "flowsync", Name: "ack",
			Start: b.sentAt, End: r.n.Now()}
		sp.Event(r.n.Now(), "lag", fmt.Sprintf("seq=%d entries=%d lag=%d ticks",
			ack.Seq, len(b.keys), r.n.Now()-b.sentAt))
		r.cfg.Tracer.Record(sp)
	}
}

func (r *Replicator) schedule() {
	r.scheduled = true
	r.cancel = r.n.AfterNamed("replicator "+r.cfg.Name, syncInterval, r.round)
}

// round runs one replication round: purge stale in-flight bookkeeping,
// batch and send unsynced (or, on anti-entropy rounds, all) entries
// per table, fall back to an empty probe frame when there is nothing
// to send, then re-arm — unless the channel has been idle long enough
// to quiesce.
func (r *Replicator) round() {
	r.scheduled = false
	r.cancel = nil
	if r.stopped {
		return
	}
	prevRound := r.lastRoundAt
	r.lastRoundAt = r.n.Now()
	r.rounds++
	resync := r.rounds%resyncEvery == 0
	if resync {
		r.resyncs++
	}
	var span *trace.Span
	if r.cfg.Tracer != nil {
		id := r.cfg.Tracer.NextID()
		span = &trace.Span{TraceID: id, SpanID: id, Kind: "flowsync", Name: "round", Start: r.n.Now()}
		if resync {
			span.Name = "resync"
		}
	}

	// Frames that never got acked within a few rounds are presumed
	// lost; drop the bookkeeping (their entries are still unsynced and
	// re-batch below). Sorted so the purge order is deterministic.
	var stale []uint64
	for seq, b := range r.inflight {
		if r.n.Now() > b.sentAt+4*syncInterval {
			stale = append(stale, seq)
		}
	}
	sort.Slice(stale, func(i, j int) bool { return stale[i] < stale[j] })
	for _, seq := range stale {
		delete(r.inflight, seq)
	}

	sent, lag := 0, 0
	for _, path := range r.sw.FlowTablePaths() {
		tb := r.sw.FlowTable(path)
		if tb == nil {
			continue
		}
		lag += len(tb.Unsynced(nil))
		var ents []flow.Entry
		kind := SyncUpdate
		if resync {
			ents = tb.Entries()
			kind = SyncResync
		} else {
			ents = tb.Unsynced(nil)
		}
		for off := 0; off < len(ents); off += maxWireFlows {
			end := off + maxWireFlows
			if end > len(ents) {
				end = len(ents)
			}
			chunk := ents[off:end]
			msg := &FlowSync{Session: r.session, Seq: r.nextSeq(), Kind: kind,
				Table: path, Clock: tb.Now(), Entries: make([]FlowRec, len(chunk))}
			keys := make([]flow.Key, len(chunk))
			for i, e := range chunk {
				msg.Entries[i] = FlowRec{Key: e.Key, State: e.State, Expire: e.Expire, Val: e.Val}
				keys[i] = e.Key
			}
			r.inflight[msg.Seq] = sentBatch{table: path, keys: keys, sentAt: r.n.Now()}
			_ = r.n.SendFrom(r.cfg.Name, r.cfg.SyncPort, EncodeFlowSync(msg))
			sent++
			if span != nil {
				span.Event(r.n.Now(), "send", fmt.Sprintf("%s %s seq=%d entries=%d",
					msg.Kind, path, msg.Seq, len(chunk)))
			}
		}
	}
	if sent == 0 {
		// Nothing to replicate: send the bare probe that keeps the
		// standby's last-heard clock (its staleness signal) fresh.
		probe := &FlowSync{Session: r.session, Seq: r.nextSeq(), Kind: SyncUpdate}
		r.inflight[probe.Seq] = sentBatch{sentAt: r.n.Now()}
		_ = r.n.SendFrom(r.cfg.Name, r.cfg.SyncPort, EncodeFlowSync(probe))
		if span != nil {
			span.Event(r.n.Now(), "probe", fmt.Sprintf("seq=%d", probe.Seq))
		}
	}
	if g := r.cfg.Metrics.FlowSyncLag(r.cfg.Name); g != nil {
		g.Set(int64(lag))
	}
	if span != nil {
		span.End = r.n.Now()
		span.Event(r.n.Now(), "lag", fmt.Sprintf("unsynced=%d inflight=%d", lag, len(r.inflight)))
		r.cfg.Tracer.Record(span)
	}

	// Keep the timer hot while replication makes progress: data frames
	// going out and acks coming back. Probe-only rounds, and rounds
	// sending into a void (a partitioned or dead standby), count toward
	// quiescing — after idleRounds of either, the replicator parks.
	// This is the graceful-degradation half of the design: the active
	// keeps serving, the unreplicated entries keep their unsynced mark,
	// and the next dataplane packet re-arms the timer, so a healed
	// partition resyncs as soon as traffic flows.
	progress := r.lastAck > 0 && r.lastAck >= prevRound
	if sent > 0 && (progress || r.rounds == 1) {
		r.idle = 0
	} else {
		r.idle++
	}
	if r.idle < idleRounds {
		r.schedule()
	}
}

func (r *Replicator) nextSeq() uint64 {
	r.seq++
	return r.seq
}

// StandbyAgent is the passive side: a netsim.Processor wrapping the
// warm-standby *microp4.Switch. Sync-port frames are decoded,
// deduplicated by (session, sequence) with the cached ack replayed for
// duplicates, and applied through flow.Table.Install; any other port
// passes through to the dataplane (which serves traffic the moment the
// operator points it here — promotion changes bookkeeping, not the
// dataplane). Corrupted frames are dropped without reply, and no wire
// message can promote: a forged or bit-flipped frame can never turn a
// stale standby into an active.
type StandbyAgent struct {
	n   *netsim.Network
	sw  *microp4.Switch
	cfg ReplicaConfig

	window    *wire.Window
	lastHeard uint64 // network tick of the last valid sync frame
	lastClock uint64 // active's flow clock from that frame
	applied   uint64 // entries installed
	malformed uint64 // frames dropped as corrupt
	promoted  bool
}

// NewStandbyAgent wraps the standby switch.
func NewStandbyAgent(n *netsim.Network, sw *microp4.Switch, cfg ReplicaConfig) *StandbyAgent {
	return &StandbyAgent{n: n, sw: sw, cfg: cfg, window: wire.NewWindow(wire.DedupWindow)}
}

// Switch returns the wrapped standby switch.
func (s *StandbyAgent) Switch() *microp4.Switch { return s.sw }

// Promoted reports whether Promote has run.
func (s *StandbyAgent) Promoted() bool { return s.promoted }

// LastHeard returns the network tick of the last valid sync frame
// (0 = never heard from the active).
func (s *StandbyAgent) LastHeard() uint64 { return s.lastHeard }

// SilentFor returns how many ticks have passed since the active was
// last heard — the staleness signal a failover decision consults.
func (s *StandbyAgent) SilentFor() uint64 { return s.n.Now() - s.lastHeard }

// Applied returns (entries installed, frames dropped as corrupt).
func (s *StandbyAgent) Applied() (applied, malformed uint64) { return s.applied, s.malformed }

// Promote flips this standby into the active role: every replicated
// entry is marked unsynced, so a future standby paired with this node
// starts from a full resync. The dataplane needs no switch-over — it
// has been live (tables bootstrapped, flows replicated) the whole time.
// Promote is a local operator decision; nothing on the wire calls it.
func (s *StandbyAgent) Promote() {
	if s.promoted {
		return
	}
	s.promoted = true
	adopted := 0
	for _, path := range s.sw.FlowTablePaths() {
		if tb := s.sw.FlowTable(path); tb != nil {
			adopted += tb.Len()
			tb.MarkAllUnsynced()
		}
	}
	silent := s.SilentFor()
	s.cfg.event("promote", func() string { return fmt.Sprintf("adopted %d flows, active silent %d ticks", adopted, silent) })
	if s.cfg.Tracer != nil {
		id := s.cfg.Tracer.NextID()
		sp := &trace.Span{TraceID: id, SpanID: id, Kind: "flowsync", Name: "promote",
			Start: s.n.Now(), End: s.n.Now()}
		sp.Event(s.n.Now(), "promote", fmt.Sprintf("adopted=%d silent=%d", adopted, silent))
		s.cfg.Tracer.Record(sp)
	}
}

// Process implements netsim.Processor: replication on the sync port,
// dataplane traffic everywhere else.
func (s *StandbyAgent) Process(pkt []byte, inPort uint64) ([]microp4.Output, error) {
	if inPort != s.cfg.SyncPort {
		return s.sw.Process(pkt, inPort)
	}
	msg, err := DecodeFlowSync(pkt)
	if err != nil {
		// Corruption (bit flips, truncation) or garbage: drop without
		// reply — the entries stay unsynced on the active and ride the
		// next round. Standby state, including the promoted flag and
		// the last-heard clock, is untouched.
		s.malformed++
		s.cfg.Metrics.Reject(sim.RejectMalformed)
		s.cfg.event("reject", func() string { return "flow-sync: " + err.Error() })
		return nil, nil
	}
	if cached, ok := s.window.Replay(msg.Session, msg.Seq); ok {
		// Link-level duplicate: replay the cached ack, never re-count.
		s.cfg.event("dup", func() string { return fmt.Sprintf("session %#x seq %d", msg.Session, msg.Seq) })
		return []microp4.Output{{Port: s.cfg.SyncPort, Data: cached}}, nil
	}
	applied := 0
	if msg.Table != "" {
		tb := s.sw.FlowTable(msg.Table)
		if tb == nil {
			// A valid frame for a table this dataplane does not have:
			// program mismatch. Acking would make the active mark the
			// entries synced when nothing holds them, so drop instead.
			s.cfg.event("reject", func() string { return "flow-sync: unknown table " + msg.Table })
			return nil, nil
		}
		for _, rec := range msg.Entries {
			tb.Install(flow.Entry{Key: rec.Key, State: rec.State, Synced: true, Expire: rec.Expire, Val: rec.Val})
			applied++
		}
		s.applied += uint64(applied)
	}
	s.lastHeard = s.n.Now()
	s.lastClock = msg.Clock
	ack := EncodeFlowAck(&FlowAck{Session: msg.Session, Seq: msg.Seq, Applied: uint64(applied)})
	s.window.Remember(msg.Session, msg.Seq, ack)
	s.cfg.event("apply", func() string { return fmt.Sprintf("%s %s seq=%d entries=%d", msg.Kind, msg.Table, msg.Seq, applied) })
	return []microp4.Output{{Port: s.cfg.SyncPort, Data: ack}}, nil
}

// event publishes a "flowsync" trace event under the node's name;
// detail runs only when a subscriber will read it.
func (c *ReplicaConfig) event(name string, detail func() string) {
	if c.Bus.Active() {
		c.Bus.Publish(sim.TraceEvent{Kind: "flowsync", Module: c.Name, Name: name, Detail: detail()})
	}
}
