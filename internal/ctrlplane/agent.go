package ctrlplane

import (
	"fmt"
	"sort"

	"microp4"
	"microp4/internal/sim"
	"microp4/internal/wire"
)

// AgentConfig wires one per-switch agent into its node.
type AgentConfig struct {
	// Name labels the agent's trace events (usually the node name).
	Name string
	// CtrlPort is the port control messages arrive on; packets on any
	// other port are forwarded to the wrapped switch's dataplane.
	CtrlPort uint64
	// Metrics counts rejects (optional; share the client's registry).
	Metrics *Metrics
	// Bus receives "ctrl" trace events (optional; usually the
	// network's Bus).
	Bus *sim.Bus
}

// Agent is the switch-side half of the control protocol: a
// netsim.Processor wrapping a *microp4.Switch. Control-port packets
// are decoded, deduplicated by (session, sequence), validated against
// the switch's control schema, applied (or staged/prepared/committed/
// aborted for transactions), and answered; any other port passes
// through to the dataplane. Corrupted control packets are dropped
// without reply — the client's retransmission recovers them.
//
// A transaction is a pending batch of writes, not a fork of the
// switch: stage and prepare validate, commit applies, abort discards —
// so an abort never undoes a write or a learned flow it does not own.
//
// All control state (sessions, transactions) is touched only by the
// network's single-threaded run loop; the wrapped switch's own methods
// are safe to race with direct Process calls and churn, per the Switch
// concurrency contract.
type Agent struct {
	sw     *microp4.Switch
	cfg    AgentConfig
	window *wire.Window // a retransmitted seq still in it replays its cached reply
	txns   map[uint64]*agentTxn
}

// agentTxn is one in-progress transaction on this agent: its staged,
// validated ops, none of them applied until commit.
type agentTxn struct {
	staged   []*CtrlOp
	prepared bool
}

// NewAgent wraps a switch in a control-protocol agent.
func NewAgent(sw *microp4.Switch, cfg AgentConfig) *Agent {
	return &Agent{
		sw:     sw,
		cfg:    cfg,
		window: wire.NewWindow(wire.DedupWindow),
		txns:   make(map[uint64]*agentTxn),
	}
}

// Switch returns the wrapped switch.
func (a *Agent) Switch() *microp4.Switch { return a.sw }

// Process implements netsim.Processor: control traffic on the control
// port, dataplane traffic everywhere else.
func (a *Agent) Process(pkt []byte, inPort uint64) ([]microp4.Output, error) {
	if inPort != a.cfg.CtrlPort {
		return a.sw.Process(pkt, inPort)
	}
	op, err := DecodeCtrlOp(pkt)
	if err != nil {
		// Corruption (bit flips, truncation) or garbage: no session or
		// sequence to answer to, so drop; the sender's timeout recovers.
		a.cfg.Metrics.Reject(sim.RejectMalformed)
		a.event("reject", func() string { return sim.RejectMalformed + ": " + err.Error() })
		return nil, nil
	}
	if cached, ok := a.window.Replay(op.Session, op.Seq); ok {
		// At-least-once made exactly-once: a duplicate (retransmission
		// or link-level dup) replays the cached verdict, never the op.
		// The network copies a frame whenever it alters or duplicates
		// one, so the cached slice itself can go out again.
		a.event("dup", func() string { return fmt.Sprintf("session %#x seq %d", op.Session, op.Seq) })
		return []microp4.Output{{Port: a.cfg.CtrlPort, Data: cached}}, nil
	}
	enc := EncodeCtrlReply(a.handle(op))
	a.window.Remember(op.Session, op.Seq, enc)
	return []microp4.Output{{Port: a.cfg.CtrlPort, Data: enc}}, nil
}

// handle applies one fresh (non-duplicate) op and builds its reply.
func (a *Agent) handle(op *CtrlOp) *CtrlReply {
	ok := &CtrlReply{Session: op.Session, Seq: op.Seq, Status: StatusOK}
	switch op.Kind {
	case OpAddEntry, OpSetDefault, OpClearTable, OpSetMulticast:
		if op.Txn != 0 {
			// Staged: validate now (rejects surface before prepare),
			// apply at commit.
			if ce := a.validate(op); ce != nil {
				return a.reject(op, ce)
			}
			t := a.txn(op.Txn)
			t.staged = append(t.staged, op)
			a.event("stage", func() string { return fmt.Sprintf("txn %d %s %s", op.Txn, op.Kind, op.Table) })
			return ok
		}
		if err := a.apply(op); err != nil {
			return a.reject(op, controlError(op, err))
		}
		a.event("apply", func() string { return fmt.Sprintf("%s %s", op.Kind, op.Table) })
		return ok

	case OpPrepare:
		// Put the batch in client sequence order (arrival order varies
		// under reorder faults) and re-validate it against the live
		// schema, writing nothing. A rejection leaves the transaction
		// unprepared, awaiting the coordinator's abort. Preparing an
		// empty transaction is legal; preparing twice is a no-op.
		t := a.txn(op.Txn)
		if !t.prepared {
			sort.Slice(t.staged, func(i, j int) bool { return t.staged[i].Seq < t.staged[j].Seq })
			for _, staged := range t.staged {
				if ce := a.validate(staged); ce != nil {
					return a.reject(op, ce)
				}
			}
			t.prepared = true
			a.event("prepare", func() string { return fmt.Sprintf("txn %d: %d ops validated", op.Txn, len(t.staged)) })
		}
		return ok

	case OpCommit:
		t := a.txns[op.Txn]
		if t == nil || !t.prepared {
			return a.reject(op, &sim.ControlError{Op: "commit", Kind: sim.RejectTxn,
				Reason: fmt.Sprintf("transaction %d is not prepared", op.Txn)})
		}
		// The coordinator's decision is final: the reply is OK. An op
		// fails here only when a cutover since prepare dropped what it
		// names; it counts as a reject and the rest still land.
		delete(a.txns, op.Txn)
		for _, staged := range t.staged {
			if err := a.apply(staged); err != nil {
				a.reject(staged, controlError(staged, err))
			}
		}
		a.event("commit", func() string { return fmt.Sprintf("txn %d: %d ops applied", op.Txn, len(t.staged)) })
		return ok

	case OpAbort:
		// Abort discards the batch, which never touched the switch. It
		// is idempotent, and aborting a transaction this agent never
		// saw (every staged op was lost) is a clean no-op.
		delete(a.txns, op.Txn)
		a.event("abort", func() string { return fmt.Sprintf("txn %d", op.Txn) })
		return ok
	}
	return a.reject(op, &sim.ControlError{Op: op.Kind.String(),
		Kind: sim.RejectUnknownOp, Reason: "unrecognized operation"})
}

func (a *Agent) txn(id uint64) *agentTxn {
	t := a.txns[id]
	if t == nil {
		t = &agentTxn{}
		a.txns[id] = t
	}
	return t
}

// apply runs one op against the switch through the validated API.
func (a *Agent) apply(op *CtrlOp) error {
	switch op.Kind {
	case OpAddEntry:
		return a.sw.TryAddEntry(op.Table, wireKeys(op.Keys), op.Action, op.Args...)
	case OpSetDefault:
		return a.sw.TrySetDefault(op.Table, op.Action, op.Args...)
	case OpClearTable:
		return a.sw.TryClearTable(op.Table)
	case OpSetMulticast:
		return a.sw.TrySetMulticastGroup(op.Group, op.Ports...)
	}
	return &sim.ControlError{Op: op.Kind.String(), Kind: sim.RejectUnknownOp,
		Reason: "not an applicable operation"}
}

// validate checks an op against the switch's control schema without
// applying it (used for staged ops). Nil schema (uncomposed dataplane)
// validates everything.
func (a *Agent) validate(op *CtrlOp) *sim.ControlError {
	sc := a.sw.Schema()
	if sc == nil {
		return nil
	}
	var err error
	switch op.Kind {
	case OpAddEntry:
		err = sc.ValidateAddEntry(op.Table, wireKeys(op.Keys), op.Action, op.Args)
	case OpSetDefault:
		err = sc.ValidateSetDefault(op.Table, op.Action, op.Args)
	case OpClearTable:
		err = sc.ValidateClearTable(op.Table)
	case OpSetMulticast:
		err = sc.ValidateSetMulticastGroup(op.Group, op.Ports)
	}
	if err == nil {
		return nil
	}
	return controlError(op, err)
}

// controlError types an error from validating or applying op as a
// ControlError (the switch's own refusals already are one).
func controlError(op *CtrlOp, err error) *sim.ControlError {
	if ce, isCtrl := err.(*sim.ControlError); isCtrl {
		return ce
	}
	return &sim.ControlError{Op: op.Kind.String(), Table: op.Table,
		Kind: sim.RejectUnknownOp, Reason: err.Error()}
}

func (a *Agent) reject(op *CtrlOp, ce *sim.ControlError) *CtrlReply {
	a.cfg.Metrics.Reject(ce.Kind)
	a.event("reject", func() string { return fmt.Sprintf("%s: %s: %s", op.Kind, ce.Kind, ce.Reason) })
	return &CtrlReply{Session: op.Session, Seq: op.Seq, Status: StatusRejected,
		Class: ce.Kind, Reason: ce.Reason}
}

// event publishes a "ctrl" trace event; detail runs only when a
// subscriber will read it.
func (a *Agent) event(name string, detail func() string) {
	if a.cfg.Bus.Active() {
		a.cfg.Bus.Publish(sim.TraceEvent{Kind: "ctrl", Module: a.cfg.Name, Name: name, Detail: detail()})
	}
}

func wireKeys(ks []CtrlKey) []microp4.Key {
	out := make([]microp4.Key, len(ks))
	for i, k := range ks {
		out[i] = k.runtimeKey()
	}
	return out
}
