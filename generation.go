package microp4

import (
	"fmt"
	"slices"
	"sync"

	"microp4/internal/flow"
	"microp4/internal/ir"
	"microp4/internal/sim"
)

// This file is the switch half of in-service upgrade (ISSU): staging a
// second compiled program as an immutable generation, shadow-canarying
// live traffic through it, and atomically cutting over (or discarding
// it). The upgrade state machine that drives these steps over the
// control network lives in internal/issu.

// Generation returns the live generation's sequence number (1 for a
// freshly built switch, incremented by every adopted cutover).
func (s *Switch) Generation() uint64 { return s.live().seq }

// StagedGeneration returns the staged generation's sequence number, or
// 0 when nothing is staged.
func (s *Switch) StagedGeneration() uint64 {
	if g := s.staged.Load(); g != nil {
		return g.seq
	}
	return 0
}

// StageGeneration builds a generation for dp — a fresh engine with
// zeroed registers — and stages it without touching live traffic. It
// copies no state: the staged engine reads the switch's one table state,
// and a flowtable declared as the live program declares it (path and
// flowtable(size, idleTTL, estTTL)) is the live instance. Entries naming
// tables dp does not declare sit inert; entries naming actions it
// dropped surface as typed TableErrors on match. A table dp declares
// with a new key shape gets its own index in the shared table state
// (sim.Tables.bind), which outlives an abort. At most one generation may
// be staged; errors are *UpgradeError.
func (s *Switch) StageGeneration(dp *Dataplane) (uint64, error) {
	if dp == nil {
		return 0, &UpgradeError{Phase: "stage", Reason: "nil dataplane"}
	}
	if s.engine != EngineReference {
		if composed, cerr := dp.Composed(); !composed {
			return 0, &UpgradeError{Phase: "stage",
				Reason: fmt.Sprintf("program has no compiled pipeline: %v", cerr)}
		}
	}
	g := s.newGeneration(dp, s.genSeq.Add(1), flowTablesFor(dp, s.live()))
	if !s.staged.CompareAndSwap(nil, g) {
		return 0, &UpgradeError{Phase: "stage", Reason: "a generation is already staged"}
	}
	return g.seq, nil
}

// flowDecls returns dp's flowtable declarations (none without a
// compiled pipeline).
func flowDecls(dp *Dataplane) []ir.Instance {
	if pl := dp.res.Pipeline; pl != nil {
		return pl.FlowTables
	}
	return nil
}

// flowTablesFor returns the flowtables a generation of dp runs on: a
// flowtable prev declares identically (same path, same flowtable(size,
// idleTTL, estTTL)) is prev's instance, adopted by pointer, and any
// other is new and empty. prev is nil for a switch's first generation.
func flowTablesFor(dp *Dataplane, prev *generation) map[string]*flow.Table {
	flows := make(map[string]*flow.Table)
	for _, d := range flowDecls(dp) {
		if prev != nil && slices.Contains(flowDecls(prev.dp), d) {
			flows[d.Name] = prev.flows[d.Name]
		} else {
			flows[d.Name] = flow.New(d.Size, d.IdleTTL, d.EstTTL)
		}
	}
	return flows
}

// AbortStaged discards the staged generation and any running canary,
// reporting whether there was one. The live generation is untouched —
// rollback of a not-yet-adopted upgrade is exactly this.
func (s *Switch) AbortStaged() bool {
	s.canary.Store(nil)
	return s.staged.Swap(nil) != nil
}

// CanaryStatus reports the progress of a shadow canary.
type CanaryStatus struct {
	Active    bool   // a canary exists and is still mirroring
	Complete  bool   // the mirror budget was consumed (or a divergence ended it)
	Mirrored  uint64 // packets mirrored so far
	Remaining uint64 // packets left in the budget
	Diverged  bool
	Reason    string // first divergence, "" while clean
}

// canaryState mirrors live packets through a shadow of the staged
// program — its own engine over the shared tables and private
// flowtables, so mirroring never writes live flow state — and compares
// the outcomes. A mutex serializes shadow processing into one stream.
// With no canary installed the packet path pays one atomic load.
type canaryState struct {
	s      *Switch
	shadow *generation // the staged program over private flowtables

	mu        sync.Mutex
	remaining int64
	mirrored  uint64
	done      bool
	reason    string   // first divergence, "" while clean
	paths     []string // flowtable paths compared after every mirrored packet
}

// StartCanary starts mirroring the next n live packets through the
// staged program, byte-comparing outputs, digests, error classes, and
// flow-table mutations after each. Once it holds the switch's one canary
// slot it builds the shadow, seeding its flowtables from the live ones so
// both judge packets from the same base; packets arriving meanwhile wait.
// The canary is sound when packets are processed one at a time (the
// netsim/Process path); under parallel batches interleaving can produce
// spurious divergence, which fails in the safe direction — rollback.
func (s *Switch) StartCanary(n int) error {
	g := s.staged.Load()
	if g == nil {
		return &UpgradeError{Phase: "canary", Reason: "no staged generation"}
	}
	if n <= 0 {
		return &UpgradeError{Phase: "canary", Gen: g.seq, Reason: "mirror budget must be positive"}
	}
	c := &canaryState{s: s, remaining: int64(n)}
	c.mu.Lock()
	defer c.mu.Unlock()
	if !s.canary.CompareAndSwap(nil, c) {
		return &UpgradeError{Phase: "canary", Gen: g.seq, Reason: "a canary is already running"}
	}
	live, flows := s.live(), flowTablesFor(g.dp, nil)
	for _, d := range flowDecls(g.dp) {
		if lft := live.flows[d.Name]; lft != nil {
			flows[d.Name].RestoreSnapshot(lft.Snapshot())
			c.paths = append(c.paths, d.Name)
		}
	}
	c.shadow = s.newGeneration(g.dp, g.seq, flows)
	return nil
}

// CanaryStatus returns the canary's progress (the zero value when none
// is installed).
func (s *Switch) CanaryStatus() CanaryStatus {
	c := s.canary.Load()
	if c == nil {
		return CanaryStatus{}
	}
	return c.status()
}

// StopCanary detaches the canary, returning its final status (the zero
// value when none was running). The staged generation stays staged.
func (s *Switch) StopCanary() CanaryStatus {
	c := s.canary.Swap(nil)
	if c == nil {
		return CanaryStatus{}
	}
	return c.status()
}

func (c *canaryState) status() CanaryStatus {
	c.mu.Lock()
	defer c.mu.Unlock()
	st := CanaryStatus{
		Active:   !c.done,
		Complete: c.done,
		Mirrored: c.mirrored,
		Diverged: c.reason != "",
		Reason:   c.reason,
	}
	if c.remaining > 0 {
		st.Remaining = uint64(c.remaining)
	}
	return st
}

// mirror replays one live packet through the shadow and compares the
// architecture-level outcomes plus the flow-table mutations. Called from
// ingress with the live result already in hand; the live packet's fate
// is never affected.
func (c *canaryState) mirror(pkt []byte, meta sim.Metadata, live *outBuf, liveErr error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.done {
		return
	}
	c.mirrored++
	c.remaining--
	// The shadow run is invisible to telemetry: no hop span, no
	// per-worker metrics shard (and the shadow engine carries no
	// metrics).
	meta.Span = nil
	meta.M = nil
	ob := c.s.getOutBuf()
	shadowErr := c.s.archLoop(ob, c.shadow, pkt, meta)
	d := sim.FirstOutcomeDiff(outcomeOf(live, liveErr), outcomeOf(ob, shadowErr))
	c.s.obPool.Put(ob)
	if d == "" {
		d = c.flowDiff()
	}
	if d != "" && c.reason == "" {
		c.reason = fmt.Sprintf("packet %d (tick %d): %s", c.mirrored, meta.InTimestamp, d)
		c.done = true
		return
	}
	if c.remaining <= 0 {
		c.done = true
	}
}

// outcomeOf views an architecture result as a sim outcome; the
// engine-level disposition fields stay zero, since above the engine a
// dropped packet is just one with no outputs. The slices alias ob's
// buffers — valid for the comparison, not retained.
func outcomeOf(ob *outBuf, err error) sim.Outcome {
	o := sim.Outcome{ErrClass: sim.ErrClassOf(err), Digests: ob.digests}
	if len(ob.outs) > 0 {
		o.Out = make([]sim.OutPkt, len(ob.outs))
		for i, out := range ob.outs {
			o.Out[i] = sim.OutPkt{Port: out.Port, Data: out.Data}
		}
	}
	return o
}

// flowDiff compares the live flowtables with the shadow's: entry count,
// then key/state/expiry per entry in insertion order. Sync marks are
// replication bookkeeping, not program behavior, and are ignored.
func (c *canaryState) flowDiff() string {
	live := c.s.live()
	for _, path := range c.paths {
		le, se := live.flows[path].Entries(), c.shadow.flows[path].Entries()
		if len(le) != len(se) {
			return fmt.Sprintf("flowtable %s: %d vs %d entries", path, len(le), len(se))
		}
		for i := range le {
			if le[i].Key != se[i].Key || le[i].State != se[i].State || le[i].Expire != se[i].Expire {
				return fmt.Sprintf("flowtable %s entry %d: %+v/%d/exp%d vs %+v/%d/exp%d", path, i,
					le[i].Key, le[i].State, le[i].Expire, se[i].Key, se[i].State, se[i].Expire)
			}
		}
	}
	return ""
}

// CutOver atomically adopts the staged generation: the switch's metrics
// attach to its engine and the generation pointer swings — in-flight
// packets finish on the old generation, the next packet boundary adopts
// the new one. Tables and adopted flowtables are already the live ones,
// so no write and no learn into them is lost; only a flowtable whose
// declaration changed is copied over. A diverged canary refuses
// the cutover with a typed *UpgradeError; a clean or absent canary is
// detached. Registers are not carried (they belong to the packets, not
// the controller — the same contract as Checkpoint).
func (s *Switch) CutOver() (uint64, error) {
	g := s.staged.Load()
	if g == nil {
		return 0, &UpgradeError{Phase: "cutover", Reason: "no staged generation"}
	}
	if c := s.canary.Load(); c != nil {
		st := c.status()
		if st.Diverged {
			return 0, &UpgradeError{Phase: "cutover", Gen: g.seq,
				Reason: "canary diverged: " + st.Reason}
		}
		s.canary.Store(nil)
	}
	live := s.live()
	for path, ft := range g.flows {
		if old := live.flows[path]; old != nil && old != ft {
			ft.RestoreSnapshot(old.Snapshot())
		}
	}
	s.attachMetrics(g)
	s.gen.Store(g)
	s.staged.Store(nil)
	return g.seq, nil
}
