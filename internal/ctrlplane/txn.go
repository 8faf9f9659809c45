package ctrlplane

import (
	"fmt"

	"microp4/internal/obs"
	"microp4/internal/sim"
	"microp4/internal/trace"
	"microp4/internal/wire"
)

// TxnOp is one operation of a transaction plan: an op (OpAddEntry,
// OpSetDefault, OpClearTable, or OpSetMulticast) destined for one
// peer. Session, Seq, and Txn are assigned by the client.
type TxnOp struct {
	Peer string
	Op   CtrlOp
}

// TxnResult reports a transaction's outcome. Committed means every
// participant applied the batch — except peers listed in PeerErrs with
// an ErrUnreachable during the commit phase, which are in doubt: each
// holds its validated batch unapplied and applies it if the commit
// gets through (the classic 2PC limitation, surfaced instead of
// hidden). A non-committed result means no participant applied any of
// the batch: the abort discards it where it arrives, and a participant
// it never reaches (listed in PeerErrs) holds nothing visible.
type TxnResult struct {
	Txn       uint64
	Committed bool
	// PeerErrs records per-peer failures: a staged op's rejection, a
	// failed prepare, or exhausted retries, keyed by peer name.
	PeerErrs map[string]error
}

// Err summarizes the result as an error (nil on a clean commit).
func (r TxnResult) Err() error {
	if r.Committed && len(r.PeerErrs) == 0 {
		return nil
	}
	if r.Committed {
		return fmt.Errorf("ctrlplane: txn %d committed with %d peers in doubt", r.Txn, len(r.PeerErrs))
	}
	return fmt.Errorf("ctrlplane: txn %d aborted (%d peer errors)", r.Txn, len(r.PeerErrs))
}

// Transaction runs a multi-switch atomic batch over two-phase commit:
// every op is staged on its peer (validated on receipt), then each
// participant prepares (re-validates its batch, writing nothing), and
// only when every participant has prepared does the coordinator
// commit, which is when each peer applies its batch. Any rejection or
// unreachable peer before that point aborts everywhere, discarding the
// batches. done fires during the network run.
//
// Each phase's messages ride the same lossy links as everything else —
// staging, prepare, commit, and abort are all individually retried,
// idempotent (agent-side dedup), and breaker-gated.
func (c *Client) Transaction(ops []TxnOp, done func(TxnResult)) error {
	if done == nil {
		done = func(TxnResult) {}
	}
	c.nextTxn++
	t := &txnCoord{
		c:    c,
		id:   c.nextTxn,
		errs: make(map[string]error),
		done: done,
	}
	if c.tracer != nil {
		tid := c.tracer.NextID()
		t.root = &trace.Span{
			TraceID: tid, SpanID: tid, Kind: "txn",
			Name:  fmt.Sprintf("%s txn %d", c.name, t.id),
			Start: c.n.Now(), End: c.n.Now(),
		}
		c.tracer.Record(t.root)
	}
	// Participants in first-appearance order: deterministic iteration
	// for every later phase.
	seen := make(map[string]bool)
	for _, op := range ops {
		if !c.calls.HasPeer(op.Peer) {
			return fmt.Errorf("ctrlplane: txn references unknown peer %q", op.Peer)
		}
		if !seen[op.Peer] {
			seen[op.Peer] = true
			t.peers = append(t.peers, op.Peer)
		}
	}
	if len(ops) == 0 {
		t.finish(true, func() string { return "empty transaction" })
		return nil
	}
	c.calls.Event(nil, "txn-stage", func() string { return fmt.Sprintf("txn %d: %d ops across %d peers", t.id, len(ops), len(t.peers)) })
	// Stage: every op goes out with the transaction tag; agents validate
	// and buffer them. All ops are pipelined at once — ordering is
	// recovered agent-side by client sequence number at prepare.
	targets := make([]string, len(ops))
	for i, op := range ops {
		targets[i] = op.Peer
	}
	c.calls.Fanout(targets, t.phase("stage"), func(i int) wire.Request {
		wireOp := ops[i].Op
		wireOp.Txn = t.id
		return &wireOp
	}, func(i int, rep *CtrlReply, err error) { t.vote(targets[i], rep, err) },
		func() { t.advance(t.prepare) })
	return nil
}

// txnCoord is the coordinator state machine for one transaction.
type txnCoord struct {
	c     *Client
	id    uint64
	peers []string // participants, first-appearance order
	errs  map[string]error
	done  func(TxnResult)
	root  *trace.Span // the transaction's trace root (nil when untraced)
}

// phase opens a 2PC phase span under the transaction root; every call
// the phase fans out reports its send/retry/timeout/breaker lifecycle
// to it. Nil when the transaction is untraced.
func (t *txnCoord) phase(name string) *trace.Span {
	if t.root == nil {
		return nil
	}
	now := t.c.n.Now()
	sp := &trace.Span{
		TraceID: t.root.TraceID, SpanID: t.c.tracer.NextID(), ParentID: t.root.SpanID,
		Kind: "txn", Name: name, Start: now, End: now,
	}
	t.c.tracer.Record(sp)
	return sp
}

// toPeers fans one control op of this transaction out to every
// participant as the named phase; each sees every resolution, then
// runs once all are in.
func (t *txnCoord) toPeers(name string, kind OpKind, each func(peer string, rep *CtrlReply, err error), then func()) {
	t.c.calls.Fanout(t.peers, t.phase(name),
		func(int) wire.Request { return &CtrlOp{Kind: kind, Txn: t.id} },
		func(i int, rep *CtrlReply, err error) { each(t.peers[i], rep, err) }, then)
}

// vote records one peer's answer: an unreachable peer or a rejection
// (first error per peer wins) dooms the transaction.
func (t *txnCoord) vote(peer string, rep *CtrlReply, err error) {
	if err == nil && rep.Status == StatusRejected {
		err = &sim.ControlError{Op: "txn", Kind: rep.Class, Reason: rep.Reason}
	}
	if _, dup := t.errs[peer]; err != nil && !dup {
		t.errs[peer] = err
	}
}

// advance moves a fully answered phase on: to next when every vote was
// clean, to abort otherwise.
func (t *txnCoord) advance(next func()) {
	if len(t.errs) > 0 {
		next = t.abort
	}
	next()
}

// prepare asks every participant to re-validate its batch.
func (t *txnCoord) prepare() {
	t.c.calls.Event(nil, "txn-prepare", func() string { return fmt.Sprintf("txn %d", t.id) })
	t.toPeers("prepare", OpPrepare, t.vote, func() { t.advance(t.commit) })
}

// commit has every participant apply its batch. A peer unreachable
// here is in doubt: its agent holds the prepared batch, unapplied; the
// result says so rather than pretending otherwise.
func (t *txnCoord) commit() {
	t.toPeers("commit", OpCommit, t.vote, func() { t.settle(true, "txn-commit", t.c.metrics.TxnCommits) })
}

// abort has every participant discard its batch. Abort is agent-side
// idempotent and always succeeds when it arrives; a peer unreachable
// even by the abort is recorded in PeerErrs and holds its batch,
// staged or prepared, never applied.
func (t *txnCoord) abort() {
	t.toPeers("abort", OpAbort, func(peer string, _ *CtrlReply, err error) {
		if err != nil {
			t.vote(peer, nil, err)
		}
	}, func() { t.settle(false, "txn-abort", t.c.metrics.TxnAborts) })
}

// settle ends a transaction whose last phase is fully answered: count
// it, publish the outcome event, finish.
func (t *txnCoord) settle(committed bool, event string, count *obs.Counter) {
	count.Inc()
	detail := func() string { return fmt.Sprintf("%d peer errors", len(t.errs)) }
	t.c.calls.Event(nil, event, func() string { return fmt.Sprintf("txn %d (%s)", t.id, detail()) })
	t.finish(committed, detail)
}

// finish closes the root span with the outcome and hands the result to
// the transaction's caller.
func (t *txnCoord) finish(committed bool, detail func() string) {
	if t.root != nil {
		now := t.c.n.Now()
		t.root.End = now
		if committed {
			t.root.Event(now, "committed", detail())
		} else {
			t.root.Err = detail()
			t.root.Event(now, "aborted", t.root.Err)
		}
	}
	t.done(TxnResult{Txn: t.id, Committed: committed, PeerErrs: t.errs})
}
