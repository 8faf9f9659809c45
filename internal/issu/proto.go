// Package issu implements in-service program upgrade over the chaos
// network: a wire protocol that ships a newly composed µP4 program to
// running switches, a per-switch Upgrader state machine that stages it
// as a new generation over the switch's own tables and flow state,
// shadow-canaries live traffic through it, and either cuts over
// atomically or rolls back, and
// a Coordinator that drives the whole upgrade across a switch set with
// two-phase commit semantics — stage everywhere, canary everywhere,
// commit only when every canary came back clean.
//
// The protocol rides the same lossy netsim links as data traffic, with
// the same resilience split the ctrlplane uses: the codec turns
// corruption into losses (checksum, strict length accounting), the
// agent deduplicates on (session, sequence) and replays cached replies,
// and the coordinator retries on timeout with capped seeded backoff on
// the virtual clock, so every upgrade is deterministic per seed.
package issu

import (
	"fmt"

	"microp4/internal/wire"
)

// Phase is the upgrade state machine's position on one switch.
type Phase uint8

const (
	PhaseIdle       Phase = iota // no upgrade in progress
	PhaseStaged                  // a generation is staged, no canary yet
	PhaseCanary                  // the shadow canary is mirroring traffic
	PhaseCommitted               // the staged generation was adopted
	PhaseRolledBack              // the upgrade was discarded
)

func (p Phase) String() string {
	switch p {
	case PhaseIdle:
		return "idle"
	case PhaseStaged:
		return "staged"
	case PhaseCanary:
		return "canary"
	case PhaseCommitted:
		return "committed"
	case PhaseRolledBack:
		return "rolled-back"
	}
	return fmt.Sprintf("phase(%d)", uint8(p))
}

// OpKind names one upgrade operation.
type OpKind uint8

const (
	// OpStage ships the new program's sources; the agent compiles and
	// stages them as a generation.
	OpStage OpKind = iota + 1
	// OpCanary starts mirroring the next CanaryN live packets through
	// the staged generation.
	OpCanary
	// OpQuery polls the upgrade phase and canary progress.
	OpQuery
	// OpCommit cuts over to the staged generation.
	OpCommit
	// OpAbort rolls the upgrade back, discarding the staged generation.
	OpAbort
	opKindEnd
)

func (k OpKind) String() string {
	switch k {
	case OpStage:
		return "stage"
	case OpCanary:
		return "canary"
	case OpQuery:
		return "query"
	case OpCommit:
		return "commit"
	case OpAbort:
		return "abort"
	}
	return fmt.Sprintf("op(%d)", uint8(k))
}

// Module is one µP4 source file of a staged program.
type Module struct {
	Name   string // file name (diagnostics anchor to it)
	Source string // µP4 source text
}

// UpgradeOp is one upgrade request. Session identifies the
// coordinator↔agent channel; Seq is channel-monotonic and deduplicated
// by the agent, so at-least-once delivery applies each op exactly once.
// OpStage carries the program; the other kinds leave it empty.
type UpgradeOp struct {
	Session uint64
	Seq     uint64
	Kind    OpKind
	Program string   // display name of the program being staged
	Main    Module   // main program source
	Modules []Module // library modules the main composes
	CanaryN uint64   // OpCanary: packets to mirror
}

// UpgradeReply answers one UpgradeOp, echoing Session and Seq. Ok
// reports whether the op was applied; Detail carries the refusal or
// rollback reason otherwise. Phase, Gen, and the canary fields report
// the agent's state after the op (OpQuery is a pure read).
type UpgradeReply struct {
	Session   uint64
	Seq       uint64
	Ok        bool
	Phase     Phase
	Gen       uint64 // staged (or adopted) generation sequence number
	Mirrored  uint64 // canary packets mirrored so far
	Remaining uint64 // canary budget left
	Diverged  bool
	Detail    string
}

// Wire format: internal/wire frames under the issu magic. Strings are
// u16 length + bytes except sources, which are u32 length + bytes
// (programs outgrow a u16). Decoding is strict: caps on every count and
// length, no trailing garbage, never a panic. The frame syntax is
// wire's; the checks here are the family's semantics.
const (
	wireMagic = 0xD7

	maxWireName    = 1024
	maxWireSource  = 1 << 16 // 64 KiB per source file
	maxWireModules = 16
)

var (
	kindUpgradeOp    = wire.Kind{Family: "issu", Magic: wireMagic, Type: 1, Name: "an op"}
	kindUpgradeReply = wire.Kind{Family: "issu", Magic: wireMagic, Type: 2, Name: "a reply"}
)

// EncodeUpgradeOp serializes an op for transmission.
func EncodeUpgradeOp(op *UpgradeOp) []byte {
	w := kindUpgradeOp.Begin(wire.Header{Flag: uint8(op.Kind), Session: op.Session, Seq: op.Seq}, 256)
	w.Str(op.Program, maxWireName)
	w.Str(op.Main.Name, maxWireName)
	w.Bytes32(op.Main.Source, maxWireSource)
	for _, m := range op.Modules[:w.Count(len(op.Modules), maxWireModules)] {
		w.Str(m.Name, maxWireName)
		w.Bytes32(m.Source, maxWireSource)
	}
	w.U64(op.CanaryN)
	return w.Finish()
}

// EncodeUpgradeReply serializes a reply for transmission; its header
// flag is the Ok bit.
func EncodeUpgradeReply(r *UpgradeReply) []byte {
	w := kindUpgradeReply.Begin(wire.Header{Flag: bit(r.Ok), Session: r.Session, Seq: r.Seq}, 96)
	w.U8(uint8(r.Phase))
	w.U64(r.Gen)
	w.U64(r.Mirrored)
	w.U64(r.Remaining)
	w.U8(bit(r.Diverged))
	w.Str(r.Detail, maxWireName)
	return w.Finish()
}

func bit(b bool) uint8 {
	if b {
		return 1
	}
	return 0
}

// DecodeUpgradeOp parses an op message. Arbitrary input never panics;
// corrupted, truncated, or oversized messages return an error.
func DecodeUpgradeOp(data []byte) (*UpgradeOp, error) {
	r, h := kindUpgradeOp.Open(data)
	op := &UpgradeOp{Kind: OpKind(h.Flag), Session: h.Session, Seq: h.Seq}
	if op.Kind == 0 || op.Kind >= opKindEnd {
		r.Fail("unknown op kind")
	}
	op.Program = r.Str(maxWireName)
	op.Main.Name = r.Str(maxWireName)
	op.Main.Source = r.Bytes32(maxWireSource)
	for i, nm := 0, r.Count(maxWireModules, "modules"); i < nm && r.Ok(); i++ {
		var m Module
		m.Name = r.Str(maxWireName)
		m.Source = r.Bytes32(maxWireSource)
		op.Modules = append(op.Modules, m)
	}
	op.CanaryN = r.U64()
	if err := r.Finish(); err != nil {
		return nil, err
	}
	return op, nil
}

// DecodeUpgradeReply parses a reply message (same guarantees as
// DecodeUpgradeOp).
func DecodeUpgradeReply(data []byte) (*UpgradeReply, error) {
	r, h := kindUpgradeReply.Open(data)
	if h.Flag > 1 {
		r.Fail("bad ok flag")
	}
	rep := &UpgradeReply{Ok: h.Flag == 1, Session: h.Session, Seq: h.Seq}
	rep.Phase = Phase(r.U8())
	if rep.Phase > PhaseRolledBack {
		r.Fail("unknown phase")
	}
	rep.Gen = r.U64()
	rep.Mirrored = r.U64()
	rep.Remaining = r.U64()
	div := r.U8()
	if div > 1 {
		r.Fail("bad diverged flag")
	}
	rep.Diverged = div == 1
	rep.Detail = r.Str(maxWireName)
	if err := r.Finish(); err != nil {
		return nil, err
	}
	return rep, nil
}

// Encode implements wire.Request: it stamps the channel ids into the op.
func (op *UpgradeOp) Encode(session, seq uint64) []byte {
	op.Session, op.Seq = session, seq
	return EncodeUpgradeOp(op)
}

// Label implements wire.Request.
func (op *UpgradeOp) Label() string { return op.Kind.String() }

// Channel implements wire.Reply.
func (r *UpgradeReply) Channel() (session, seq uint64) { return r.Session, r.Seq }

// Outcome implements wire.Reply.
func (r *UpgradeReply) Outcome() (event, detail string) {
	if !r.Ok {
		return "refused", ": " + r.Detail
	}
	return "reply", " ok"
}
