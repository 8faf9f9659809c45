package ctrlplane_test

import (
	"testing"

	"microp4/internal/ctrlplane"
	"microp4/internal/obs"
	"microp4/internal/sim"
	"microp4/internal/wire"
)

// sendOp drives one encoded op straight into an agent (no network) and
// decodes the reply.
func sendOp(t *testing.T, a *ctrlplane.Agent, op *ctrlplane.CtrlOp) *ctrlplane.CtrlReply {
	t.Helper()
	outs, err := a.Process(ctrlplane.EncodeCtrlOp(op), ctrlPort)
	if err != nil {
		t.Fatalf("agent.Process: %v", err)
	}
	if len(outs) != 1 || outs[0].Port != ctrlPort {
		t.Fatalf("agent emitted %+v, want one reply on the control port", outs)
	}
	rep, err := ctrlplane.DecodeCtrlReply(outs[0].Data)
	if err != nil {
		t.Fatalf("reply does not decode: %v", err)
	}
	return rep
}

func newTestAgent(t *testing.T) (*ctrlplane.Agent, *ctrlplane.Metrics) {
	t.Helper()
	m := ctrlplane.NewMetrics(obs.NewRegistry())
	sw := compileP4(t).NewSwitch()
	return ctrlplane.NewAgent(sw, ctrlplane.AgentConfig{
		Name: "s1", CtrlPort: ctrlPort, Metrics: m,
	}), m
}

// TestAgentDedup: a retransmitted (session, seq) replays the cached
// reply and never re-applies the op — at-least-once in, exactly-once out.
func TestAgentDedup(t *testing.T) {
	a, _ := newTestAgent(t)
	op := &ctrlplane.CtrlOp{Session: 5, Seq: 1, Kind: ctrlplane.OpSetMulticast,
		Group: 7, Ports: []uint64{1, 2}}
	first := sendOp(t, a, op)
	if first.Status != ctrlplane.StatusOK {
		t.Fatalf("first send rejected: %+v", first)
	}
	// Same (session, seq), different body: a real client never does
	// this, so the cached reply (not a fresh application) must win —
	// proving the dedup path short-circuits before the op is applied.
	dup := &ctrlplane.CtrlOp{Session: 5, Seq: 1, Kind: ctrlplane.OpSetMulticast, Group: 0}
	second := sendOp(t, a, dup)
	if second.Status != ctrlplane.StatusOK {
		t.Errorf("duplicate got %+v, want the cached OK replay", second)
	}
	// A fresh sequence with the invalid body is judged on its own.
	bad := &ctrlplane.CtrlOp{Session: 5, Seq: 2, Kind: ctrlplane.OpSetMulticast, Group: 0}
	if rep := sendOp(t, a, bad); rep.Status != ctrlplane.StatusRejected || rep.Class != sim.RejectBadGroup {
		t.Errorf("fresh invalid op got %+v, want %s rejection", rep, sim.RejectBadGroup)
	}
}

// TestAgentDedupWindowEviction: the agent keeps wire.DedupWindow replies
// per session; a replay of an older sequence is treated as new, one
// still inside the window is answered from the cache. (The eviction
// order itself is unit-tested on wire.Window.)
func TestAgentDedupWindowEviction(t *testing.T) {
	a, _ := newTestAgent(t)
	for seq := uint64(1); seq <= wire.DedupWindow+1; seq++ {
		sendOp(t, a, &ctrlplane.CtrlOp{Session: 5, Seq: seq,
			Kind: ctrlplane.OpClearTable, Table: "forward_tbl"})
	}
	// Seq 1 was evicted: replaying it with a now-invalid body is
	// re-judged, not replayed from cache. Seq 3 is still cached.
	rep := sendOp(t, a, &ctrlplane.CtrlOp{Session: 5, Seq: 1,
		Kind: ctrlplane.OpClearTable, Table: "nope_tbl"})
	if rep.Status != ctrlplane.StatusRejected {
		t.Errorf("evicted seq replayed a cached reply: %+v", rep)
	}
	rep = sendOp(t, a, &ctrlplane.CtrlOp{Session: 5, Seq: 3,
		Kind: ctrlplane.OpClearTable, Table: "nope_tbl"})
	if rep.Status != ctrlplane.StatusOK {
		t.Errorf("seq inside the window was re-judged: %+v", rep)
	}
}

// TestAgentDropsCorruptOps: undecodable control packets produce no
// reply (the client's timeout recovers) and count as malformed rejects.
func TestAgentDropsCorruptOps(t *testing.T) {
	reg := obs.NewRegistry()
	m := ctrlplane.NewMetrics(reg)
	sw := compileP4(t).NewSwitch()
	a := ctrlplane.NewAgent(sw, ctrlplane.AgentConfig{Name: "s1", CtrlPort: ctrlPort, Metrics: m})
	enc := ctrlplane.EncodeCtrlOp(&ctrlplane.CtrlOp{Session: 1, Seq: 1,
		Kind: ctrlplane.OpClearTable, Table: "forward_tbl"})
	enc[len(enc)/2] ^= 0x40
	outs, err := a.Process(enc, ctrlPort)
	if err != nil || len(outs) != 0 {
		t.Fatalf("corrupt op: outs=%v err=%v, want silent drop", outs, err)
	}
	c := reg.Counter("up4_ctrl_rejects_total", "", obs.L("class", sim.RejectMalformed))
	if c.Value() != 1 {
		t.Errorf("up4_ctrl_rejects_total{class=malformed} = %d, want 1", c.Value())
	}
}

// TestAgentTxnLifecycle drives stage → prepare → commit and stage →
// prepare → abort directly, checking idempotence at each step.
func TestAgentTxnLifecycle(t *testing.T) {
	a, _ := newTestAgent(t)
	sw := a.Switch()
	seq := uint64(0)
	next := func(op ctrlplane.CtrlOp) *ctrlplane.CtrlReply {
		seq++
		op.Session = 5
		op.Seq = seq
		return sendOp(t, a, &op)
	}

	// Txn 1: install a multicast group, then commit.
	if rep := next(ctrlplane.CtrlOp{Txn: 1, Kind: ctrlplane.OpSetMulticast,
		Group: 7, Ports: []uint64{1, 2}}); rep.Status != ctrlplane.StatusOK {
		t.Fatalf("stage: %+v", rep)
	}
	if rep := next(ctrlplane.CtrlOp{Txn: 1, Kind: ctrlplane.OpPrepare}); rep.Status != ctrlplane.StatusOK {
		t.Fatalf("prepare: %+v", rep)
	}
	// Prepare is idempotent (a lost reply means a retransmitted prepare).
	if rep := next(ctrlplane.CtrlOp{Txn: 1, Kind: ctrlplane.OpPrepare}); rep.Status != ctrlplane.StatusOK {
		t.Fatalf("re-prepare: %+v", rep)
	}
	if rep := next(ctrlplane.CtrlOp{Txn: 1, Kind: ctrlplane.OpCommit}); rep.Status != ctrlplane.StatusOK {
		t.Fatalf("commit: %+v", rep)
	}

	// Txn 2: stage a group change, prepare, then abort — the committed
	// txn-1 state must survive, the txn-2 change must not.
	if rep := next(ctrlplane.CtrlOp{Txn: 2, Kind: ctrlplane.OpSetMulticast,
		Group: 7, Ports: []uint64{5}}); rep.Status != ctrlplane.StatusOK {
		t.Fatalf("stage 2: %+v", rep)
	}
	if rep := next(ctrlplane.CtrlOp{Txn: 2, Kind: ctrlplane.OpPrepare}); rep.Status != ctrlplane.StatusOK {
		t.Fatalf("prepare 2: %+v", rep)
	}
	if rep := next(ctrlplane.CtrlOp{Txn: 2, Kind: ctrlplane.OpAbort}); rep.Status != ctrlplane.StatusOK {
		t.Fatalf("abort 2: %+v", rep)
	}
	// Aborting again, or aborting a transaction never seen, is fine.
	if rep := next(ctrlplane.CtrlOp{Txn: 2, Kind: ctrlplane.OpAbort}); rep.Status != ctrlplane.StatusOK {
		t.Fatalf("re-abort: %+v", rep)
	}
	if rep := next(ctrlplane.CtrlOp{Txn: 99, Kind: ctrlplane.OpAbort}); rep.Status != ctrlplane.StatusOK {
		t.Fatalf("abort of unknown txn: %+v", rep)
	}
	// Committing an unknown or unprepared transaction is a txn reject.
	if rep := next(ctrlplane.CtrlOp{Txn: 99, Kind: ctrlplane.OpCommit}); rep.Status != ctrlplane.StatusRejected || rep.Class != sim.RejectTxn {
		t.Fatalf("commit of unknown txn: %+v, want %s reject", rep, sim.RejectTxn)
	}
	_ = sw
}

// TestAgentStagedValidation: invalid ops are rejected at staging time,
// before any prepare.
func TestAgentStagedValidation(t *testing.T) {
	a, _ := newTestAgent(t)
	rep := sendOp(t, a, &ctrlplane.CtrlOp{Session: 5, Seq: 1, Txn: 1,
		Kind: ctrlplane.OpAddEntry, Table: "nope_tbl", Action: "x"})
	if rep.Status != ctrlplane.StatusRejected || rep.Class != sim.RejectUnknownTable {
		t.Errorf("staged invalid op got %+v, want %s rejection", rep, sim.RejectUnknownTable)
	}
}
