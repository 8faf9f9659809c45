package ctrlplane_test

import (
	"testing"

	"microp4"
	"microp4/internal/ctrlplane"
	"microp4/internal/lib"
	"microp4/internal/obs"
	"microp4/internal/pkt"
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

// newTestAgent wraps a P4 switch with no rules installed in an agent
// whose metrics land in the returned registry.
func newTestAgent(t *testing.T) (*ctrlplane.Agent, *obs.Registry) {
	t.Helper()
	return newAgentOn(t, compileProg(t, "P4").NewSwitch())
}

func newAgentOn(t *testing.T, sw *microp4.Switch) (*ctrlplane.Agent, *obs.Registry) {
	t.Helper()
	reg := obs.NewRegistry()
	return ctrlplane.NewAgent(sw, ctrlplane.AgentConfig{
		Name: "s1", CtrlPort: ctrlPort, Metrics: ctrlplane.NewMetrics(reg),
	}), reg
}

// session numbers ops for one control session on one agent, as a
// client would, and sends them straight in.
type session struct {
	t   *testing.T
	a   *ctrlplane.Agent
	seq uint64
}

// send stamps op with the session and the next sequence number and
// sends it.
func (s *session) send(op *ctrlplane.CtrlOp) *ctrlplane.CtrlReply {
	s.t.Helper()
	s.seq++
	op.Session, op.Seq = 5, s.seq
	return sendOp(s.t, s.a, op)
}

// ok sends op, fails the test unless the reply is OK, and returns the
// op as sent (to retransmit it).
func (s *session) ok(what string, op ctrlplane.CtrlOp) ctrlplane.CtrlOp {
	s.t.Helper()
	if rep := s.send(&op); rep.Status != ctrlplane.StatusOK {
		s.t.Fatalf("%s: %+v", what, rep)
	}
	return op
}

// inTxn tags ops with a transaction id.
func inTxn(txn uint64, ops ...ctrlplane.CtrlOp) []ctrlplane.CtrlOp {
	for i := range ops {
		ops[i].Txn = txn
	}
	return ops
}

func txnOp(txn uint64, kind ctrlplane.OpKind) ctrlplane.CtrlOp {
	return ctrlplane.CtrlOp{Txn: txn, Kind: kind}
}

// netARoute is the two writes that make a P4 switch route v4Packet.
func netARoute() []ctrlplane.CtrlOp {
	return []ctrlplane.CtrlOp{
		ctrlplane.AddEntry(lpmTbl, []ctrlplane.CtrlKey{ctrlplane.LPM(lib.NetA, 8)}, "l3_i.ipv4_i.process", lib.NhA),
		ctrlplane.AddEntry("forward_tbl", []ctrlplane.CtrlKey{ctrlplane.Exact(lib.NhA)},
			"forward", lib.DmacA, lib.SmacA, lib.PortA),
	}
}

const lpmTbl = "l3_i.ipv4_i.ipv4_lpm_tbl"

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
	a, reg := newTestAgent(t)
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
// prepare → abort directly, probing the switch at each step: a batch is
// invisible until commit, an abort leaves committed state in place, and
// every step is idempotent.
func TestAgentTxnLifecycle(t *testing.T) {
	a, _ := newTestAgent(t)
	sw := a.Switch()
	s := &session{t: t, a: a}

	// Txn 1: route NetA, then commit.
	for _, op := range inTxn(1, netARoute()...) {
		s.ok("stage", op)
	}
	s.ok("prepare", txnOp(1, ctrlplane.OpPrepare))
	if routes(t, sw) {
		t.Error("txn 1's route is visible after prepare, before commit")
	}
	// Prepare is idempotent (a lost reply means a retransmitted prepare).
	s.ok("re-prepare", txnOp(1, ctrlplane.OpPrepare))
	commit := s.ok("commit", txnOp(1, ctrlplane.OpCommit))
	if !routes(t, sw) {
		t.Fatal("txn 1's route is not visible after commit")
	}

	// A retransmitted commit replays the cached reply and applies
	// nothing: applying the batch again would undo this direct clear.
	if err := sw.TryClearTable("forward_tbl"); err != nil {
		t.Fatal(err)
	}
	if rep := sendOp(t, a, &commit); rep.Status != ctrlplane.StatusOK {
		t.Fatalf("retransmitted commit: %+v, want the cached OK", rep)
	}
	if routes(t, sw) {
		t.Error("a retransmitted commit applied txn 1's batch again")
	}
	s.ok("direct re-add", netARoute()[1])

	// Txn 2: stage a clear, prepare, then abort. The clear never shows,
	// and txn 1's state survives the abort.
	s.ok("stage 2", inTxn(2, ctrlplane.ClearTable("forward_tbl"))[0])
	s.ok("prepare 2", txnOp(2, ctrlplane.OpPrepare))
	if !routes(t, sw) {
		t.Error("txn 2's clear is visible after prepare, before commit")
	}
	s.ok("abort 2", txnOp(2, ctrlplane.OpAbort))
	if !routes(t, sw) {
		t.Error("txn 1's committed route did not survive txn 2's abort")
	}
	// Aborting again, or aborting a transaction never seen, is fine.
	s.ok("re-abort", txnOp(2, ctrlplane.OpAbort))
	s.ok("abort of unknown txn", txnOp(99, ctrlplane.OpAbort))
	// Committing an unknown or unprepared transaction is a txn reject.
	unknown := txnOp(99, ctrlplane.OpCommit)
	if rep := s.send(&unknown); rep.Status != ctrlplane.StatusRejected || rep.Class != sim.RejectTxn {
		t.Fatalf("commit of unknown txn: %+v, want %s reject", rep, sim.RejectTxn)
	}

	// A cutover between prepare and commit that drops an action the
	// batch names: the commit still succeeds (the coordinator's decision
	// is final), the dropped op is counted as a reject, and the rest of
	// the batch lands.
	t.Run("cutover-drops-action", func(t *testing.T) {
		// The switch starts on P4 with one extra action, mark, that
		// forward_tbl can select; the cutover goes to plain P4.
		const decl = "    action drop_pkt() { im.drop(); }"
		withMark := compileEdited(t, "P4", decl, decl+"\n    action mark() { }",
			"actions = { forward; drop_pkt; }", "actions = { forward; drop_pkt; mark; }")
		sw := withMark.NewSwitch()
		a, reg := newAgentOn(t, sw)
		s := &session{t: t, a: a}
		for _, op := range netARoute() {
			s.ok("direct route", op)
		}
		batch := inTxn(3,
			ctrlplane.AddEntry("forward_tbl", []ctrlplane.CtrlKey{ctrlplane.Exact(lib.NhB)}, "mark"),
			ctrlplane.ClearTable(lpmTbl))
		for _, op := range batch {
			s.ok("stage 3", op)
		}
		s.ok("prepare 3", txnOp(3, ctrlplane.OpPrepare))
		if _, err := sw.StageGeneration(compileProg(t, "P4")); err != nil {
			t.Fatal(err)
		}
		if _, err := sw.CutOver(); err != nil {
			t.Fatal(err)
		}
		s.ok("commit 3 across the cutover", txnOp(3, ctrlplane.OpCommit))
		if routes(t, sw) {
			t.Error("the batch's clear, after the dropped op, did not land")
		}
		rejects := reg.Counter("up4_ctrl_rejects_total", "", obs.L("class", sim.RejectUnknownAction))
		if rejects.Value() != 1 {
			t.Errorf("up4_ctrl_rejects_total{class=%s} = %d, want 1", sim.RejectUnknownAction, rejects.Value())
		}
	})
}

// TestAbortUndoesOnlyItself: a transaction's abort discards its own
// batch and nothing else. On P9, txn 1 is prepared; while it waits, a
// direct write lands, txn 2 commits and a flow is learned. Aborting
// txn 1 must keep all three, and txn 1's route must never have routed
// a packet.
func TestAbortUndoesOnlyItself(t *testing.T) {
	sw := compileProg(t, "P9").NewSwitch()
	installP9Rules(sw)
	a, _ := newAgentOn(t, sw)
	s := &session{t: t, a: a}
	// 30/8, 40/8 and 50/8: none routed by the standard rules. Each
	// route sends a packet from PortA back out PortA.
	const net1, net2, net3 = 0x1E000000, 0x28000000, 0x32000000
	route := func(net uint64) ctrlplane.CtrlOp {
		return ctrlplane.AddEntry(lpmTbl, []ctrlplane.CtrlKey{ctrlplane.LPM(net, 8)}, "l3_i.ipv4_i.process", lib.NhA)
	}
	routed := func(net uint64) bool {
		t.Helper()
		probe := pkt.NewBuilder().Ethernet(lib.DmacA, 2, pkt.EtherTypeIPv4).
			IPv4(pkt.IPv4Opts{TTL: 64, Protocol: pkt.ProtoTCP, Src: lib.NetA | 9, Dst: uint32(net) | 1}).
			TCP(2000, 80).Bytes()
		return forwards(t, sw, probe, lib.PortA, lib.PortA)
	}

	s.ok("stage 1", inTxn(1, route(net1))[0])
	s.ok("prepare 1", txnOp(1, ctrlplane.OpPrepare))
	routedWhilePrepared := routed(net1)

	s.ok("direct write", route(net2))
	s.ok("stage 2", inTxn(2, route(net3))[0])
	s.ok("prepare 2", txnOp(2, ctrlplane.OpPrepare))
	s.ok("commit 2", txnOp(2, ctrlplane.OpCommit))
	if !forwards(t, sw, flowFwd(0), lib.PortA, lib.PortB) {
		t.Fatal("flow 0's forward packet was not routed")
	}

	s.ok("abort 1", txnOp(1, ctrlplane.OpAbort))
	for _, c := range []struct {
		ok   bool
		want string
	}{
		{routed(net2), "the direct write made while txn 1 was prepared forwards"},
		{routed(net3), "txn 2's committed route forwards"},
		{forwards(t, sw, flowRev(0), lib.PortB, lib.PortA), "the flow learned while txn 1 was prepared passes its return packet"},
		{!routedWhilePrepared, "a packet sent while txn 1 was prepared was not routed by txn 1's entry"},
		{!routed(net1), "txn 1's route is gone"},
	} {
		if !c.ok {
			t.Errorf("after txn 1's abort: want %s", c.want)
		}
	}
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
