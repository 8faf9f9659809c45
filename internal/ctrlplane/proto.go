// Package ctrlplane is the resilient distributed control plane: a
// controller Client and per-switch Agent speaking a sequence-numbered,
// idempotent protocol whose messages travel as byte-encoded packets
// over netsim links — subjecting control traffic to the same drop,
// duplication, reorder, and bit-flip faults as the data traffic it
// programs around.
//
// The design splits failure handling across the layers that can each
// handle it best:
//
//   - the codec detects corruption (checksum) and truncation (strict
//     length accounting), turning bit-flips into losses;
//   - the agent makes at-least-once delivery safe by deduplicating on
//     (session, sequence) and replaying the cached reply, and makes
//     invalid state changes impossible by validating every operation
//     against the switch's control schema before touching it;
//   - the client turns losses into delays with timeouts and capped
//     exponential backoff (seeded jitter on the network's virtual
//     clock, so the retry schedule is reproducible from the seed), and
//     turns a partitioned peer into graceful degradation with a
//     per-channel circuit breaker;
//   - transactions make multi-switch updates atomic with two-phase
//     commit; a batch is applied only at commit, so abort discards it.
package ctrlplane

import (
	"fmt"

	"microp4"
	"microp4/internal/wire"
)

// OpKind names one control operation.
type OpKind uint8

const (
	OpAddEntry OpKind = iota + 1
	OpSetDefault
	OpClearTable
	OpSetMulticast
	// OpPrepare, OpCommit, OpAbort drive two-phase commit for the
	// transaction named by CtrlOp.Txn.
	OpPrepare
	OpCommit
	OpAbort
	opKindEnd // one past the last valid kind
)

func (k OpKind) String() string {
	switch k {
	case OpAddEntry:
		return "add-entry"
	case OpSetDefault:
		return "set-default"
	case OpClearTable:
		return "clear-table"
	case OpSetMulticast:
		return "set-multicast"
	case OpPrepare:
		return "prepare"
	case OpCommit:
		return "commit"
	case OpAbort:
		return "abort"
	}
	return fmt.Sprintf("op(%d)", uint8(k))
}

// KeyKind names one match-key encoding.
type KeyKind uint8

const (
	KeyExact KeyKind = iota
	KeyTernary
	KeyLPM
	KeyAny
	keyKindEnd
)

// CtrlKey is one wire-encoded match key.
type CtrlKey struct {
	Kind      KeyKind
	Value     uint64
	Mask      uint64 // ternary mask
	PrefixLen uint32 // lpm prefix length
}

// Exact, Ternary, LPM, and Any build wire keys mirroring the public
// microp4 key constructors.
func Exact(v uint64) CtrlKey         { return CtrlKey{Kind: KeyExact, Value: v} }
func Ternary(v, mask uint64) CtrlKey { return CtrlKey{Kind: KeyTernary, Value: v, Mask: mask} }
func LPM(v uint64, plen int) CtrlKey { return CtrlKey{Kind: KeyLPM, Value: v, PrefixLen: uint32(plen)} }
func Any() CtrlKey                   { return CtrlKey{Kind: KeyAny} }

// runtimeKey converts a wire key to a public switch key.
func (k CtrlKey) runtimeKey() microp4.Key {
	switch k.Kind {
	case KeyTernary:
		return microp4.Ternary(k.Value, k.Mask)
	case KeyLPM:
		return microp4.LPM(k.Value, int(k.PrefixLen))
	case KeyAny:
		return microp4.Any()
	}
	return microp4.Exact(k.Value)
}

// CtrlOp is one control request. Session identifies the
// client↔agent channel; Seq is the channel-monotonic sequence number
// the agent deduplicates on (a retransmission reuses the Seq, so
// at-least-once delivery applies each op exactly once). Txn, when
// nonzero, stages the op into that transaction instead of applying it
// immediately; OpPrepare/OpCommit/OpAbort then drive the transaction.
type CtrlOp struct {
	Session uint64
	Seq     uint64
	Txn     uint64
	Kind    OpKind
	Table   string
	Action  string
	Keys    []CtrlKey
	Args    []uint64
	Group   uint64
	Ports   []uint64
}

// Status is a reply's disposition.
type Status uint8

const (
	// StatusOK: the op was applied (or staged, prepared, committed,
	// aborted — whatever its kind asks for).
	StatusOK Status = 1
	// StatusRejected: schema validation or a transaction rule refused
	// the op. Rejections are deterministic — retrying is pointless —
	// and carry the reject class and reason.
	StatusRejected Status = 2
)

// CtrlReply answers one CtrlOp, echoing its Session and Seq.
type CtrlReply struct {
	Session uint64
	Seq     uint64
	Status  Status
	Class   string // reject class (sim.Reject*), when rejected
	Reason  string
}

// Wire format: internal/wire frames under the ctrlplane magic. Strings
// are u16 length + bytes; slices are u16 count + elements. Decoding is
// strict: caps on every count, no trailing garbage, never a panic. The
// frame syntax is wire's; the checks here are the family's semantics.
const (
	wireMagic = 0xC5

	maxWireString = 1024
	maxWireKeys   = 64
	maxWireArgs   = 64
	maxWirePorts  = 256
)

var (
	kindCtrlOp    = wire.Kind{Family: "ctrlplane", Magic: wireMagic, Type: 1, Name: "an op"}
	kindCtrlReply = wire.Kind{Family: "ctrlplane", Magic: wireMagic, Type: 2, Name: "a reply"}
)

// EncodeCtrlOp serializes an op for transmission.
func EncodeCtrlOp(op *CtrlOp) []byte {
	w := kindCtrlOp.Begin(wire.Header{Flag: uint8(op.Kind), Session: op.Session, Seq: op.Seq}, 64)
	w.U64(op.Txn)
	w.Str(op.Table, maxWireString)
	w.Str(op.Action, maxWireString)
	for _, k := range op.Keys[:w.Count(len(op.Keys), maxWireKeys)] {
		w.U8(uint8(k.Kind))
		w.U64(k.Value)
		w.U64(k.Mask)
		w.U32(k.PrefixLen)
	}
	for _, a := range op.Args[:w.Count(len(op.Args), maxWireArgs)] {
		w.U64(a)
	}
	w.U64(op.Group)
	for _, p := range op.Ports[:w.Count(len(op.Ports), maxWirePorts)] {
		w.U64(p)
	}
	return w.Finish()
}

// EncodeCtrlReply serializes a reply for transmission.
func EncodeCtrlReply(r *CtrlReply) []byte {
	w := kindCtrlReply.Begin(wire.Header{Flag: uint8(r.Status), Session: r.Session, Seq: r.Seq}, 48)
	w.Str(r.Class, maxWireString)
	w.Str(r.Reason, maxWireString)
	return w.Finish()
}

// DecodeCtrlOp parses an op message. Arbitrary input never panics;
// corrupted, truncated, or oversized messages return an error.
func DecodeCtrlOp(data []byte) (*CtrlOp, error) {
	r, h := kindCtrlOp.Open(data)
	op := &CtrlOp{Kind: OpKind(h.Flag), Session: h.Session, Seq: h.Seq}
	if op.Kind == 0 || op.Kind >= opKindEnd {
		r.Fail("unknown op kind")
	}
	op.Txn = r.U64()
	op.Table = r.Str(maxWireString)
	op.Action = r.Str(maxWireString)
	for i, nk := 0, r.Count(maxWireKeys, "keys"); i < nk && r.Ok(); i++ {
		k := CtrlKey{Kind: KeyKind(r.U8())}
		if k.Kind >= keyKindEnd {
			r.Fail("unknown key kind")
		}
		k.Value = r.U64()
		k.Mask = r.U64()
		k.PrefixLen = r.U32()
		op.Keys = append(op.Keys, k)
	}
	for i, na := 0, r.Count(maxWireArgs, "args"); i < na && r.Ok(); i++ {
		op.Args = append(op.Args, r.U64())
	}
	op.Group = r.U64()
	for i, np := 0, r.Count(maxWirePorts, "ports"); i < np && r.Ok(); i++ {
		op.Ports = append(op.Ports, r.U64())
	}
	if err := r.Finish(); err != nil {
		return nil, err
	}
	return op, nil
}

// DecodeCtrlReply parses a reply message (same guarantees as
// DecodeCtrlOp).
func DecodeCtrlReply(data []byte) (*CtrlReply, error) {
	r, h := kindCtrlReply.Open(data)
	rep := &CtrlReply{Status: Status(h.Flag), Session: h.Session, Seq: h.Seq}
	if rep.Status != StatusOK && rep.Status != StatusRejected {
		r.Fail("unknown status")
	}
	rep.Class = r.Str(maxWireString)
	rep.Reason = r.Str(maxWireString)
	if err := r.Finish(); err != nil {
		return nil, err
	}
	return rep, nil
}

// Encode implements wire.Request: it stamps the channel ids into the op.
func (op *CtrlOp) Encode(session, seq uint64) []byte {
	op.Session, op.Seq = session, seq
	return EncodeCtrlOp(op)
}

// Label implements wire.Request.
func (op *CtrlOp) Label() string { return op.Kind.String() + " " + op.Table }

// Channel implements wire.Reply.
func (r *CtrlReply) Channel() (session, seq uint64) { return r.Session, r.Seq }

// Outcome implements wire.Reply.
func (r *CtrlReply) Outcome() (event, detail string) {
	if r.Status == StatusRejected {
		return "rejected", ": " + r.Class + ": " + r.Reason
	}
	return "reply", " ok"
}
