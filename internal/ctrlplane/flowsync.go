package ctrlplane

import (
	"fmt"

	"microp4/internal/flow"
	"microp4/internal/wire"
)

// Flow-state replication wire protocol. An active switch streams its
// flow-table contents to a warm standby over the same lossy links the
// control protocol crosses, so an active failure can be survived by
// promoting the standby without dropping established connections.
//
// The protocol reuses the control codec's failure split:
//
//   - the codec turns corruption into losses (checksum, strict length
//     accounting);
//   - the standby makes at-least-once delivery safe by deduplicating
//     on (session, sequence) and replaying the cached ack, and applies
//     entries through flow.Table.Install, which is idempotent and
//     never demotes an established flow on a reordered older update;
//   - the active turns losses into delays: an entry stays unsynced
//     until its ack arrives, so the next round retransmits it, and a
//     periodic anti-entropy resync replays the full table to heal any
//     divergence that slips past the incremental stream.
//
// Promotion is never wire-triggered: no FlowSync message can flip a
// standby into the active role, so corrupted or forged frames cannot
// promote a stale standby. The failover decision stays with the
// operator (or the test harness), informed by the standby's
// last-heard-from-active clock.

// SyncKind names one replication message flavor.
type SyncKind uint8

const (
	// SyncUpdate carries the incremental batch: entries learned or
	// changed since their last acknowledged replication. An empty
	// update doubles as the health probe that keeps the standby's
	// last-heard clock fresh.
	SyncUpdate SyncKind = iota + 1
	// SyncResync carries an anti-entropy snapshot chunk: every live
	// entry, synced or not, in the table's deterministic insertion
	// order.
	SyncResync
	syncKindEnd
)

func (k SyncKind) String() string {
	switch k {
	case SyncUpdate:
		return "update"
	case SyncResync:
		return "resync"
	}
	return fmt.Sprintf("sync(%d)", uint8(k))
}

// FlowRec is one replicated flow entry: the 5-tuple, the connection
// state, the expiry tick on the active's flow clock, and the pinned
// stick value (zero for plain upsert tables). The standby installs it
// verbatim — its own wheel is behind the active's, so the entry simply
// lives at least as long there.
type FlowRec struct {
	Key    flow.Key
	State  uint8
	Expire uint64
	Val    uint64
}

// FlowSync is one replication message from active to standby. Session
// identifies the active↔standby channel; Seq is channel-monotonic and
// is what the standby deduplicates on (a retransmission reuses neither
// — lost entries are re-batched under a fresh Seq, and Install
// idempotence makes the re-apply safe). Clock is the active's flow
// clock at send time, replicated for lag observability.
type FlowSync struct {
	Session uint64
	Seq     uint64
	Kind    SyncKind
	Table   string // fully qualified flowtable path ("" = pure probe)
	Clock   uint64
	Entries []FlowRec
}

// FlowAck answers one FlowSync, echoing Session and Seq. Applied
// reports how many entries the standby installed (diagnostics only —
// acknowledgment is per-message, not per-entry).
type FlowAck struct {
	Session uint64
	Seq     uint64
	Applied uint64
}

// maxWireFlows bounds the entries per FlowSync frame; the replicator
// chunks larger batches across frames.
const maxWireFlows = 256

var (
	kindFlowSync = wire.Kind{Family: "ctrlplane", Magic: wireMagic, Type: 3, Name: "a flow-sync"}
	kindFlowAck  = wire.Kind{Family: "ctrlplane", Magic: wireMagic, Type: 4, Name: "a flow-ack"}
)

// EncodeFlowSync serializes a replication message for transmission.
func EncodeFlowSync(m *FlowSync) []byte {
	w := kindFlowSync.Begin(wire.Header{Flag: uint8(m.Kind), Session: m.Session, Seq: m.Seq}, 64+57*len(m.Entries))
	w.Str(m.Table, maxWireString)
	w.U64(m.Clock)
	for _, e := range m.Entries[:w.Count(len(m.Entries), maxWireFlows)] {
		w.U64(e.Key.SrcAddr)
		w.U64(e.Key.DstAddr)
		w.U64(e.Key.Proto)
		w.U64(e.Key.SrcPort)
		w.U64(e.Key.DstPort)
		w.U8(e.State)
		w.U64(e.Expire)
		w.U64(e.Val)
	}
	return w.Finish()
}

// DecodeFlowSync parses a replication message. Arbitrary input never
// panics; corrupted, truncated, or oversized messages return an error.
func DecodeFlowSync(data []byte) (*FlowSync, error) {
	r, h := kindFlowSync.Open(data)
	m := &FlowSync{Kind: SyncKind(h.Flag), Session: h.Session, Seq: h.Seq}
	if m.Kind == 0 || m.Kind >= syncKindEnd {
		r.Fail("unknown sync kind")
	}
	m.Table = r.Str(maxWireString)
	m.Clock = r.U64()
	for i, ne := 0, r.Count(maxWireFlows, "flow entries"); i < ne && r.Ok(); i++ {
		var e FlowRec
		e.Key.SrcAddr = r.U64()
		e.Key.DstAddr = r.U64()
		e.Key.Proto = r.U64()
		e.Key.SrcPort = r.U64()
		e.Key.DstPort = r.U64()
		e.State = r.U8()
		if e.State > flow.StateEstablished {
			r.Fail("unknown flow state")
		}
		e.Expire = r.U64()
		e.Val = r.U64()
		m.Entries = append(m.Entries, e)
	}
	if err := r.Finish(); err != nil {
		return nil, err
	}
	return m, nil
}

// EncodeFlowAck serializes an acknowledgment for transmission. Its
// header flag is reserved and zero.
func EncodeFlowAck(a *FlowAck) []byte {
	w := kindFlowAck.Begin(wire.Header{Session: a.Session, Seq: a.Seq}, 32)
	w.U64(a.Applied)
	return w.Finish()
}

// DecodeFlowAck parses an acknowledgment (same guarantees as
// DecodeFlowSync).
func DecodeFlowAck(data []byte) (*FlowAck, error) {
	r, h := kindFlowAck.Open(data)
	if h.Flag != 0 {
		r.Fail("nonzero reserved byte")
	}
	a := &FlowAck{Session: h.Session, Seq: h.Seq, Applied: r.U64()}
	if err := r.Finish(); err != nil {
		return nil, err
	}
	return a, nil
}
