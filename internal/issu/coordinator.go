package issu

import (
	"fmt"

	"microp4/internal/netsim"
	"microp4/internal/sim"
	"microp4/internal/trace"
	"microp4/internal/wire"
)

// CoordinatorConfig wires the upgrade coordinator. Reply timeout, retry
// backoff and circuit breaker are the messaging substrate's one policy
// (internal/wire).
type CoordinatorConfig struct {
	// Seed drives the retry-jitter stream and session-id derivation;
	// with the same network and seed every upgrade replays tick for
	// tick.
	Seed uint64
	// CanaryN is the per-switch mirror budget (default 64 packets).
	CanaryN uint64
	// Metrics counts per-node transitions (shared with the agents).
	Metrics *Metrics
	// Tracer records a root "issu" coordination span per upgrade.
	Tracer *trace.Recorder
}

// The canary schedule, in virtual ticks.
const (
	defaultCanaryN = 64
	// canaryTimeout bounds the canary phase: if any canary has not
	// completed this long after starting, the upgrade aborts.
	canaryTimeout = 4096
	// pollEvery is the canary progress query cadence.
	pollEvery = 32
)

// Coordinator drives one in-service upgrade across a set of switches
// with two-phase-commit semantics over the lossy control network:
//
//	stage everywhere → canary everywhere → all clean? commit : abort
//
// Staging is the prepare, a clean canary is the vote, commit is the
// atomic cutover, and any divergence, rollback, unreachable peer, or
// canary timeout aborts the whole upgrade — every switch keeps (or
// reverts to) its old generation. Like the ctrlplane client it is
// single-threaded with the network's run loop: call Upgrade, then run
// the network; the done callback fires inside Run.
type Coordinator struct {
	n     *netsim.Network
	name  string
	cfg   CoordinatorConfig
	calls *wire.Caller[*UpgradeReply]
	run   *upgradeRun // the in-flight upgrade (one at a time)
}

type upgradeRun struct {
	program     string
	done        func(error)
	aborting    bool
	finished    bool
	canaryStart uint64
	span        *trace.Span
}

// NewCoordinator creates the coordinator node named name in the
// network.
func NewCoordinator(n *netsim.Network, name string, cfg CoordinatorConfig) (*Coordinator, error) {
	if cfg.CanaryN == 0 {
		cfg.CanaryN = defaultCanaryN
	}
	calls, err := wire.NewCaller(n, name, wire.CallerConfig[*UpgradeReply]{
		Kind: "issu", Seed: cfg.Seed, Decode: DecodeUpgradeReply})
	if err != nil {
		return nil, err
	}
	return &Coordinator{n: n, name: name, cfg: cfg, calls: calls}, nil
}

// AddPeer declares an upgrade channel: ops to peerName leave the
// coordinator on localPort (Connect that port to the agent's upgrade
// port). Session ids derive from the seed and peer name.
func (c *Coordinator) AddPeer(peerName string, localPort uint64) error {
	return c.calls.AddPeer(peerName, localPort)
}

// Upgrade starts driving program (main + modules) onto every peer. The
// done callback fires inside the network run with nil on a committed
// upgrade or a *sim.UpgradeError describing why it was aborted. One
// upgrade at a time.
func (c *Coordinator) Upgrade(program string, main Module, modules []Module, done func(error)) error {
	if c.run != nil && !c.run.finished {
		return &sim.UpgradeError{Phase: "coordinate", Reason: "an upgrade is already in flight"}
	}
	if len(c.calls.Peers()) == 0 {
		return &sim.UpgradeError{Phase: "coordinate", Reason: "no peers"}
	}
	if done == nil {
		done = func(error) {}
	}
	r := &upgradeRun{program: program, done: done}
	if rec := c.cfg.Tracer; rec != nil {
		id := rec.NextID()
		r.span = &trace.Span{TraceID: id, SpanID: id, Kind: "issu", Name: "coordinate",
			Start: c.n.Now(), End: c.n.Now()}
		r.span.Event(c.n.Now(), "program", program)
	}
	c.run = r
	c.calls.Event(r.span, "stage", func() string { return fmt.Sprintf("%s to %d peers", program, len(c.calls.Peers())) })
	c.toPeers("stage", func() *UpgradeOp {
		return &UpgradeOp{Kind: OpStage, Program: program, Main: main, Modules: modules}
	}, nil, c.canaryPhase)
	return nil
}

// ----------------------------------------------------------------------------
// Phases

// toPeers is one phase: mk's op goes to every peer, each inspects every
// healthy reply, and next runs once all are in. A refusal, a peer-side
// rollback or an unreachable peer aborts the whole upgrade instead.
func (c *Coordinator) toPeers(phase string, mk func() *UpgradeOp, each func(*UpgradeReply), next func()) {
	r := c.run
	c.calls.Fanout(c.calls.Peers(), r.span,
		func(int) wire.Request { return mk() },
		func(_ int, rep *UpgradeReply, err error) {
			if !c.phaseFailed(rep, err, phase) && each != nil {
				each(rep)
			}
		},
		func() {
			if !r.aborting { // the last reply in may be the one that aborted
				next()
			}
		})
}

func (c *Coordinator) canaryPhase() {
	c.calls.Event(c.run.span, "canary", func() string { return fmt.Sprintf("budget %d packets per peer", c.cfg.CanaryN) })
	c.toPeers("canary", func() *UpgradeOp { return &UpgradeOp{Kind: OpCanary, CanaryN: c.cfg.CanaryN} },
		nil, func() {
			c.run.canaryStart = c.n.Now()
			c.schedulePoll()
		})
}

// schedulePoll and pollPhase are the phase that repeats: query every
// peer's canary until all have spent their budget cleanly. No call is
// in flight while the poll timer is pending, so nothing can abort or
// finish the run under it.
func (c *Coordinator) schedulePoll() {
	c.n.AfterNamed(c.name+" canary-poll", pollEvery, c.pollPhase)
}

func (c *Coordinator) pollPhase() {
	r := c.run
	if waited := c.n.Now() - r.canaryStart; waited > canaryTimeout {
		c.abortAll(&sim.UpgradeError{Phase: "canary", Reason: fmt.Sprintf("canary timeout after %d ticks", waited)})
		return
	}
	complete := true
	c.toPeers("canary", func() *UpgradeOp { return &UpgradeOp{Kind: OpQuery} },
		func(rep *UpgradeReply) {
			if rep.Remaining > 0 || rep.Mirrored == 0 || rep.Phase != PhaseCanary {
				complete = false
			}
		}, func() {
			if complete {
				c.commitPhase()
			} else {
				c.schedulePoll()
			}
		})
}

func (c *Coordinator) commitPhase() {
	c.calls.Event(c.run.span, "commit", func() string { return "all canaries clean" })
	c.toPeers("commit", func() *UpgradeOp { return &UpgradeOp{Kind: OpCommit} }, nil,
		func() { c.finish(nil) })
}

// phaseFailed inspects one reply; a refusal, a peer-side rollback, or
// an unreachable peer aborts the whole upgrade. Returns true when the
// run is no longer advancing through the current phase.
func (c *Coordinator) phaseFailed(rep *UpgradeReply, err error, phase string) bool {
	if err == nil && rep.Ok && rep.Phase != PhaseRolledBack && !rep.Diverged {
		return false
	}
	cause := &sim.UpgradeError{Phase: phase}
	if err != nil {
		cause.Reason = err.Error()
	} else if cause.Gen, cause.Reason = rep.Gen, rep.Detail; cause.Reason == "" {
		cause.Reason = "peer rolled back"
	}
	c.abortAll(cause)
	return true
}

// abortAll rolls every peer back and finishes the run with cause. It
// runs at most once per upgrade: cancelling the failed phase's
// in-flight calls leaves nothing that could fail a second time.
func (c *Coordinator) abortAll(cause *sim.UpgradeError) {
	r := c.run
	r.aborting = true
	c.calls.Event(r.span, "abort", cause.Error)
	c.calls.CancelAll()
	c.calls.Fanout(c.calls.Peers(), r.span,
		func(int) wire.Request { return &UpgradeOp{Kind: OpAbort} },
		// Best effort: an unreachable peer (e.g. a killed active switch)
		// cannot be rolled back from here — its replacement never saw
		// the staged generation anyway.
		func(int, *UpgradeReply, error) {},
		func() { c.finish(cause) })
}

func (c *Coordinator) finish(err error) {
	r := c.run
	r.finished = true
	if err == nil {
		c.calls.Event(r.span, "committed", func() string { return r.program })
	}
	if rec := c.cfg.Tracer; rec != nil && r.span != nil {
		outcome := "committed"
		if err != nil {
			outcome = "aborted: " + err.Error()
		}
		r.span.End = c.n.Now()
		r.span.Event(r.span.End, "outcome", outcome)
		rec.Record(r.span)
	}
	r.done(err)
}
