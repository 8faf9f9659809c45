package issu

import (
	"fmt"

	"microp4"
	"microp4/internal/netsim"
	"microp4/internal/sim"
	"microp4/internal/wire"
)

// AgentConfig wires an upgrade agent into a node.
type AgentConfig struct {
	// UpgradePort is the control port upgrade traffic arrives on;
	// everything else is handed to the wrapped data-path processor.
	UpgradePort uint64
	// Inner handles non-upgrade traffic: a Replicator, another
	// protocol layer, or nil to process straight on the switch.
	Inner netsim.Processor
	// Upgrader tunes the per-switch state machine.
	Upgrader UpgraderConfig
}

// Agent is the switch-side endpoint of the upgrade protocol: a
// netsim.Processor that demultiplexes one upgrade control port in front
// of the node's data path. Upgrade ops are deduplicated on (session,
// sequence) with cached-reply replay, so the coordinator's
// retransmissions are harmless; undecodable frames (corruption en
// route) are dropped silently — retransmission makes that safe. Every
// data packet also advances the Upgrader's auto-rollback watch, so a
// canary divergence rolls back within one packet of being observed.
type Agent struct {
	name  string
	sw    *microp4.Switch
	inner netsim.Processor
	port  uint64
	u     *Upgrader
	bus   *sim.Bus

	window *wire.Window
}

// NewAgent builds the upgrade agent for one switch.
func NewAgent(name string, sw *microp4.Switch, cfg AgentConfig) *Agent {
	return &Agent{
		name:   name,
		sw:     sw,
		inner:  cfg.Inner,
		port:   cfg.UpgradePort,
		u:      NewUpgrader(name, sw, cfg.Upgrader),
		bus:    cfg.Upgrader.Bus,
		window: wire.NewWindow(wire.DedupWindow),
	}
}

// Upgrader exposes the state machine (tests and local drivers).
func (a *Agent) Upgrader() *Upgrader { return a.u }

// event publishes an "issu" trace event; detail runs only when a
// subscriber will read it.
func (a *Agent) event(name string, detail func() string) {
	if a.bus.Active() {
		a.bus.Publish(sim.TraceEvent{Kind: "issu", Module: a.name, Name: name, Detail: detail()})
	}
}

// Process implements netsim.Processor.
func (a *Agent) Process(pkt []byte, inPort uint64) ([]microp4.Output, error) {
	if inPort != a.port {
		var outs []microp4.Output
		var err error
		if a.inner != nil {
			outs, err = a.inner.Process(pkt, inPort)
		} else {
			outs, err = a.sw.Process(pkt, inPort)
		}
		a.u.Poll()
		return outs, err
	}
	op, derr := DecodeUpgradeOp(pkt)
	if derr != nil {
		a.event("drop", func() string { return "undecodable upgrade op: " + derr.Error() })
		return nil, nil
	}
	if cached, ok := a.window.Replay(op.Session, op.Seq); ok {
		a.event("replay", func() string { return fmt.Sprintf("seq %d (duplicate)", op.Seq) })
		return []microp4.Output{{Port: a.port, Data: cached}}, nil
	}
	data := EncodeUpgradeReply(a.apply(op))
	a.window.Remember(op.Session, op.Seq, data)
	return []microp4.Output{{Port: a.port, Data: data}}, nil
}

// apply executes one deduplicated op against the state machine.
func (a *Agent) apply(op *UpgradeOp) *UpgradeReply {
	var err error
	switch op.Kind {
	case OpStage:
		err = a.u.Stage(op)
	case OpCanary:
		err = a.u.StartCanary(op.CanaryN)
	case OpQuery:
		a.u.Poll() // a query may be the first traffic after a divergence
	case OpCommit:
		err = a.u.Commit()
	case OpAbort:
		a.u.Abort("coordinator abort")
	default:
		err = &sim.UpgradeError{Phase: "agent", Reason: "unknown op kind"}
	}
	phase, gen, st := a.u.Status()
	rep := &UpgradeReply{
		Session:   op.Session,
		Seq:       op.Seq,
		Ok:        err == nil,
		Phase:     phase,
		Gen:       gen,
		Mirrored:  st.Mirrored,
		Remaining: st.Remaining,
		Diverged:  st.Diverged,
	}
	if err != nil {
		rep.Detail = err.Error()
	} else if phase == PhaseRolledBack {
		rep.Detail = a.u.Detail()
	}
	return rep
}
