// Package wiretest is the codec gate every wire message family is held
// to: one table of {name, sample messages, encode, decode} rows — CtrlOp,
// CtrlReply, FlowSync, FlowAck, UpgradeOp, UpgradeReply — and the
// properties each row must have. It is test support (it imports testing
// and is imported only by _test files): internal/wire runs the whole
// gate and its one fuzz target; ctrlplane and issu keep their historical
// test names as entry points into single rows of it.
package wiretest

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"reflect"
	"strings"
	"testing"

	"microp4/internal/ctrlplane"
	"microp4/internal/flow"
	"microp4/internal/golden"
	"microp4/internal/issu"
	"microp4/internal/wire"
)

// Row is one message type under test.
type Row struct {
	Name    string
	Magic   uint8 // family magic and type byte, for hand-built frames
	Type    uint8
	Samples []any // Samples[0] is the one pinned in testdata/frames.golden
	Encode  func(msg any) []byte
	Decode  func(frame []byte) (any, error)
	// Oversized exceeds every cap the type has; Capped reports, for its
	// decoded round trip, which cap (if any) was not applied.
	Oversized any
	Capped    func(decoded any) string
	// AtCap builds a well-formed frame in which the named field holds
	// its cap plus over elements or bytes; nil for fixed-size types.
	AtCap map[string]func(over int) []byte
}

func row[M any](name string, magic, typ uint8, enc func(*M) []byte, dec func([]byte) (*M, error), samples ...*M) Row {
	r := Row{Name: name, Magic: magic, Type: typ,
		Encode: func(msg any) []byte { return enc(msg.(*M)) },
		Decode: func(frame []byte) (any, error) {
			m, err := dec(frame)
			if err != nil {
				return nil, err // a typed nil must not look like a message
			}
			return m, nil
		}}
	for _, s := range samples {
		r.Samples = append(r.Samples, s)
	}
	return r
}

const (
	ctrlMagic = 0xC5
	issuMagic = 0xD7

	// The caps, restated from the families so a silent change of one
	// fails here.
	maxString  = 1024
	maxKeys    = 64
	maxArgs    = 64
	maxPorts   = 256
	maxFlows   = 256
	maxSource  = 1 << 16
	maxModules = 16
)

// frame hand-builds a frame of the given family and type around body.
func frame(magic, typ, flag uint8, body func(w *wire.Writer)) []byte {
	w := wire.Kind{Magic: magic, Type: typ}.Begin(wire.Header{Flag: flag, Session: 1, Seq: 1}, 256)
	body(&w)
	return w.Finish()
}

func text(n int) string { return strings.Repeat("x", n) }

// Rows returns the table: every message type of both families.
func Rows() []Row {
	ctrlOp := row("CtrlOp", ctrlMagic, 1, ctrlplane.EncodeCtrlOp, ctrlplane.DecodeCtrlOp,
		&ctrlplane.CtrlOp{Session: 0xDEADBEEF01, Seq: 2, Txn: 3, Kind: ctrlplane.OpAddEntry,
			Table: "acl_tbl", Action: "deny",
			Keys: []ctrlplane.CtrlKey{ctrlplane.Any(), ctrlplane.Exact(42),
				ctrlplane.Ternary(6, 0xFF), ctrlplane.LPM(0x20010DB8, 32)},
			Args: []uint64{100, 7}, Group: 9, Ports: []uint64{1, 2, 3}},
		&ctrlplane.CtrlOp{Session: 0xDEADBEEF01, Seq: 1, Kind: ctrlplane.OpAddEntry,
			Table: "l3_i.ipv4_i.ipv4_lpm_tbl", Action: "l3_i.ipv4_i.process",
			Keys: []ctrlplane.CtrlKey{ctrlplane.LPM(0x0A000000, 8)}, Args: []uint64{100}},
		&ctrlplane.CtrlOp{Session: 7, Seq: 3, Kind: ctrlplane.OpSetDefault, Table: "forward_tbl", Action: "drop_pkt"},
		&ctrlplane.CtrlOp{Session: 7, Seq: 4, Kind: ctrlplane.OpClearTable, Table: "forward_tbl"},
		&ctrlplane.CtrlOp{Session: 7, Seq: 5, Kind: ctrlplane.OpSetMulticast, Group: 9, Ports: []uint64{1, 2, 3}},
		&ctrlplane.CtrlOp{Session: 7, Seq: 6, Txn: 3, Kind: ctrlplane.OpPrepare},
		&ctrlplane.CtrlOp{Session: 7, Seq: 7, Txn: 3, Kind: ctrlplane.OpCommit},
		&ctrlplane.CtrlOp{Session: 7, Seq: 8, Txn: 3, Kind: ctrlplane.OpAbort})
	big := &ctrlplane.CtrlOp{Session: 1, Seq: 1, Kind: ctrlplane.OpAddEntry, Table: text(4096), Action: "a"}
	for i := uint64(0); i < maxPorts+10; i++ {
		big.Keys = append(big.Keys, ctrlplane.Exact(i))
		big.Args = append(big.Args, i)
		big.Ports = append(big.Ports, i)
	}
	ctrlOp.Oversized = big
	ctrlOp.Capped = func(d any) string {
		op := d.(*ctrlplane.CtrlOp)
		return notCapped("keys", len(op.Keys), maxKeys) + notCapped("args", len(op.Args), maxArgs) +
			notCapped("ports", len(op.Ports), maxPorts) + notCapped("table", len(op.Table), maxString)
	}
	ctrlOpFrame := func(table, keys, args, ports int) []byte {
		return frame(ctrlMagic, 1, uint8(ctrlplane.OpAddEntry), func(w *wire.Writer) {
			w.U64(0) // txn
			w.Str(text(table), table)
			w.Str("act", 3)
			w.U16(uint16(keys))
			for i := 0; i < keys; i++ {
				w.U8(uint8(ctrlplane.KeyExact))
				w.U64(uint64(i))
				w.U64(0)
				w.U32(0)
			}
			w.U16(uint16(args))
			for i := 0; i < args; i++ {
				w.U64(uint64(i))
			}
			w.U64(0) // group
			w.U16(uint16(ports))
			for i := 0; i < ports; i++ {
				w.U64(uint64(i))
			}
		})
	}
	ctrlOp.AtCap = map[string]func(int) []byte{
		"table": func(o int) []byte { return ctrlOpFrame(maxString+o, 1, 1, 1) },
		"keys":  func(o int) []byte { return ctrlOpFrame(1, maxKeys+o, 1, 1) },
		"args":  func(o int) []byte { return ctrlOpFrame(1, 1, maxArgs+o, 1) },
		"ports": func(o int) []byte { return ctrlOpFrame(1, 1, 1, maxPorts+o) },
	}

	ctrlReply := row("CtrlReply", ctrlMagic, 2, ctrlplane.EncodeCtrlReply, ctrlplane.DecodeCtrlReply,
		&ctrlplane.CtrlReply{Session: 0xFFFFFFFFFFFFFFFF, Seq: 9, Status: ctrlplane.StatusRejected,
			Class: "key-width", Reason: "key 0 value 0x10000 exceeds 16 bits"},
		&ctrlplane.CtrlReply{Session: 1, Seq: 2, Status: ctrlplane.StatusOK},
		&ctrlplane.CtrlReply{Session: 2, Seq: 3, Status: ctrlplane.StatusRejected, Class: "key-width", Reason: "nope"})
	ctrlReply.Oversized = &ctrlplane.CtrlReply{Session: 1, Seq: 1, Status: ctrlplane.StatusRejected,
		Class: text(4096), Reason: text(4096)}
	ctrlReply.Capped = func(d any) string {
		rep := d.(*ctrlplane.CtrlReply)
		return notCapped("class", len(rep.Class), maxString) + notCapped("reason", len(rep.Reason), maxString)
	}
	ctrlReply.AtCap = map[string]func(int) []byte{
		"reason": func(o int) []byte {
			return frame(ctrlMagic, 2, uint8(ctrlplane.StatusRejected), func(w *wire.Writer) {
				w.Str("class", 5)
				w.Str(text(maxString+o), maxString+o)
			})
		},
	}

	flowSync := row("FlowSync", ctrlMagic, 3, ctrlplane.EncodeFlowSync, ctrlplane.DecodeFlowSync,
		&ctrlplane.FlowSync{Session: 0xFEED01, Seq: 3, Kind: ctrlplane.SyncResync, Table: "fs_i.conn", Clock: 99,
			Entries: []ctrlplane.FlowRec{
				{Key: flow.Key{SrcAddr: 1, DstAddr: 2, Proto: 6, SrcPort: 3, DstPort: 4},
					State: flow.StateEstablished, Expire: 65635, Val: 0xB00F},
				{Key: flow.Key{SrcAddr: 5, DstAddr: 6, Proto: 17, SrcPort: 7, DstPort: 8},
					State: flow.StateNew, Expire: 355},
			}},
		&ctrlplane.FlowSync{Session: 0xFEED01, Seq: 1, Kind: ctrlplane.SyncUpdate}, // bare probe
		&ctrlplane.FlowSync{Session: 0xFEED01, Seq: 2, Kind: ctrlplane.SyncUpdate, Table: "fs_i.conn", Clock: 17,
			Entries: []ctrlplane.FlowRec{{Key: flow.Key{SrcAddr: 0x0A000001, DstAddr: 0x14000001, Proto: 6,
				SrcPort: 4321, DstPort: 443}, State: flow.StateNew, Expire: 273}}})
	flowSync.Oversized = &ctrlplane.FlowSync{Session: 1, Seq: 1, Kind: ctrlplane.SyncResync, Table: text(4096),
		Entries: make([]ctrlplane.FlowRec, maxFlows+10)}
	flowSync.Capped = func(d any) string {
		m := d.(*ctrlplane.FlowSync)
		return notCapped("entries", len(m.Entries), maxFlows) + notCapped("table", len(m.Table), maxString)
	}
	flowSync.AtCap = map[string]func(int) []byte{
		"entries": func(o int) []byte {
			return frame(ctrlMagic, 3, uint8(ctrlplane.SyncUpdate), func(w *wire.Writer) {
				w.Str("fs_i.conn", 9)
				w.U64(0) // clock
				w.U16(uint16(maxFlows + o))
				for i := 0; i < maxFlows+o; i++ {
					for f := 0; f < 5; f++ {
						w.U64(uint64(i))
					}
					w.U8(flow.StateNew)
					w.U64(0)
					w.U64(0)
				}
			})
		},
	}

	flowAck := row("FlowAck", ctrlMagic, 4, ctrlplane.EncodeFlowAck, ctrlplane.DecodeFlowAck,
		&ctrlplane.FlowAck{Session: 0xFFFFFFFFFFFFFFFF, Seq: 9, Applied: 256},
		&ctrlplane.FlowAck{Session: 1, Seq: 2, Applied: 0},
		&ctrlplane.FlowAck{Session: 3, Seq: 4, Applied: 5})

	upgradeOp := row("UpgradeOp", issuMagic, 1, issu.EncodeUpgradeOp, issu.DecodeUpgradeOp,
		&issu.UpgradeOp{Session: 1, Seq: 1, Kind: issu.OpStage, Program: "P9v2",
			Main: issu.Module{Name: "p9_fw_v2.up4", Source: "program P9Fw {}"},
			Modules: []issu.Module{{Name: "Flowstate.up4", Source: "// flowstate"},
				{Name: "L3.up4", Source: "// l3"}},
			CanaryN: 64},
		&issu.UpgradeOp{Session: 0xDEAD, Seq: 7, Kind: issu.OpCanary, CanaryN: 64},
		&issu.UpgradeOp{Session: 2, Seq: 3, Kind: issu.OpQuery},
		&issu.UpgradeOp{Session: 2, Seq: 4, Kind: issu.OpCommit},
		&issu.UpgradeOp{Session: 2, Seq: 5, Kind: issu.OpAbort})
	bigOp := &issu.UpgradeOp{Kind: issu.OpStage, Program: text(4096),
		Main: issu.Module{Name: "m", Source: text(maxSource + 100)}}
	for i := 0; i < maxModules+4; i++ {
		bigOp.Modules = append(bigOp.Modules, issu.Module{Name: "mod", Source: "y"})
	}
	upgradeOp.Oversized = bigOp
	upgradeOp.Capped = func(d any) string {
		op := d.(*issu.UpgradeOp)
		return notCapped("program", len(op.Program), maxString) +
			notCapped("source", len(op.Main.Source), maxSource) + notCapped("modules", len(op.Modules), maxModules)
	}
	upgradeOpFrame := func(name, source, modules int) []byte {
		return frame(issuMagic, 1, uint8(issu.OpStage), func(w *wire.Writer) {
			w.Str(text(name), name)
			w.Str("main.up4", 8)
			w.Bytes32(text(source), source)
			w.U16(uint16(modules))
			for i := 0; i < modules; i++ {
				w.Str("mod", 3)
				w.Bytes32("y", 1)
			}
			w.U64(0) // canary budget
		})
	}
	upgradeOp.AtCap = map[string]func(int) []byte{
		"program": func(o int) []byte { return upgradeOpFrame(maxString+o, 1, 1) },
		"source":  func(o int) []byte { return upgradeOpFrame(1, maxSource+o, 1) },
		"modules": func(o int) []byte { return upgradeOpFrame(1, 1, maxModules+o) },
	}

	upgradeReply := row("UpgradeReply", issuMagic, 2, issu.EncodeUpgradeReply, issu.DecodeUpgradeReply,
		&issu.UpgradeReply{Session: 1, Seq: 3, Ok: false, Phase: issu.PhaseRolledBack, Gen: 2,
			Mirrored: 10, Remaining: 54, Diverged: true,
			Detail: "canary diverged: packet 3 (tick 9): output 0: port 1 vs 0"},
		&issu.UpgradeReply{Session: 1, Seq: 1, Ok: true, Phase: issu.PhaseStaged, Gen: 2},
		&issu.UpgradeReply{Session: 1, Seq: 2, Ok: true, Phase: issu.PhaseCanary, Gen: 2, Mirrored: 10, Remaining: 54},
		&issu.UpgradeReply{Session: 9, Seq: 9, Ok: true, Phase: issu.PhaseCommitted, Gen: 3})
	upgradeReply.Oversized = &issu.UpgradeReply{Session: 1, Seq: 1, Phase: issu.PhaseRolledBack, Detail: text(4096)}
	upgradeReply.Capped = func(d any) string { return notCapped("detail", len(d.(*issu.UpgradeReply).Detail), maxString) }
	upgradeReply.AtCap = map[string]func(int) []byte{
		"detail": func(o int) []byte {
			return frame(issuMagic, 2, 0, func(w *wire.Writer) {
				w.U8(uint8(issu.PhaseRolledBack))
				w.U64(0)
				w.U64(0)
				w.U64(0)
				w.U8(0)
				w.Str(text(maxString+o), maxString+o)
			})
		},
	}
	return []Row{ctrlOp, ctrlReply, flowSync, flowAck, upgradeOp, upgradeReply}
}

func notCapped(what string, got, max int) string {
	if got != max {
		return fmt.Sprintf("%s holds %d, want its cap %d; ", what, got, max)
	}
	return ""
}

// RowNamed returns one row of the table.
func RowNamed(t testing.TB, name string) Row {
	t.Helper()
	for _, r := range Rows() {
		if r.Name == name {
			return r
		}
	}
	t.Fatalf("wiretest: no row %q", name)
	return Row{}
}

// reseal recomputes a frame's checksum after byte surgery, so a decoder
// has to catch the defect itself instead of leaning on the checksum.
func reseal(frame []byte) []byte {
	out := bytes.Clone(frame)
	h := fnv.New32a()
	_, _ = h.Write(out[:len(out)-4])
	binary.LittleEndian.PutUint32(out[len(out)-4:], h.Sum32())
	return out
}

func (r Row) frames() [][]byte {
	var out [][]byte
	for _, s := range r.Samples {
		out = append(out, r.Encode(s))
	}
	return out
}

// properties are the checks of the gate, in the order Gate runs them.
var properties = []struct {
	Name  string
	Check func(t *testing.T, r Row)
}{
	{"golden", Golden}, {"roundtrip", RoundTrip}, {"bitflips", BitFlips},
	{"truncations", Truncations}, {"foreign", Foreign}, {"caps", Caps},
}

// Gate runs every row through every property.
func Gate(t *testing.T) {
	for _, r := range Rows() {
		for _, p := range properties {
			t.Run(r.Name+"/"+p.Name, func(t *testing.T) { p.Check(t, r) })
		}
	}
}

// Golden: the first sample encodes to the bytes pinned in
// testdata/frames.golden.
func Golden(t *testing.T, r Row) { golden.Frame(t, r.Name, r.Encode(r.Samples[0])) }

// RoundTrip: every sample decodes to an identical struct, and the wire
// format is canonical — re-encoding the decoded message reproduces the
// bytes.
func RoundTrip(t *testing.T, r Row) {
	for i, s := range r.Samples {
		enc := r.Encode(s)
		got, err := r.Decode(enc)
		if err != nil {
			t.Fatalf("sample %d: decode: %v", i, err)
		}
		if !reflect.DeepEqual(got, s) {
			t.Errorf("sample %d: round trip mismatch:\n got %+v\nwant %+v", i, got, s)
		}
		if !bytes.Equal(r.Encode(got), enc) {
			t.Errorf("sample %d: re-encode is not byte-identical", i)
		}
	}
}

// BitFlips: every single-bit corruption of every sample is a decode
// error, never a different valid message — what makes a bit-flip fault
// equivalent to a drop.
func BitFlips(t *testing.T, r Row) {
	for i, enc := range r.frames() {
		for bit := 0; bit < len(enc)*8; bit++ {
			corrupt := bytes.Clone(enc)
			corrupt[bit/8] ^= 1 << (bit % 8)
			if _, err := r.Decode(corrupt); err == nil {
				t.Fatalf("sample %d: bit flip at %d decoded as a valid message", i, bit)
			}
		}
	}
}

// Truncations: every proper prefix of every sample is a decode error.
func Truncations(t *testing.T, r Row) {
	for i, enc := range r.frames() {
		for n := 0; n < len(enc); n++ {
			if _, err := r.Decode(enc[:n]); err == nil {
				t.Fatalf("sample %d: truncation to %d/%d bytes decoded as a valid message", i, n, len(enc))
			}
		}
	}
}

// Foreign: the decoder refuses every frame that is not its own — every
// other row's samples (cross-type and cross-family), garbage, trailing
// bytes, and its own frame resealed under another magic, version, type
// or an out-of-range flag byte.
func Foreign(t *testing.T, r Row) {
	reject := func(what string, data []byte) {
		t.Helper()
		if _, err := r.Decode(data); err == nil {
			t.Errorf("decoder accepted %s", what)
		}
	}
	for _, other := range Rows() {
		if other.Name == r.Name {
			continue
		}
		for i, enc := range other.frames() {
			reject(fmt.Sprintf("%s sample %d", other.Name, i), enc)
			// The same bytes relabelled as this row's family and type:
			// only the body layout is left to refuse them — or, when the
			// layouts happen to agree, to decode them canonically.
			relabelled := bytes.Clone(enc)
			relabelled[0], relabelled[2] = r.Magic, r.Type
			relabelled = reseal(relabelled)
			if msg, err := r.Decode(relabelled); err == nil && !bytes.Equal(r.Encode(msg), relabelled) {
				t.Errorf("%s sample %d relabelled decoded non-canonically", other.Name, i)
			}
		}
	}
	own := r.Encode(r.Samples[0])
	reject("nil", nil)
	reject("an empty frame", []byte{})
	reject("a bare header", []byte{own[0], own[1], own[2]})
	reject("64 zero bytes", make([]byte, 64))
	reject("512 zero bytes", make([]byte, 512))
	reject("a trailing byte", append(bytes.Clone(own), 0))
	reject("a resealed trailing byte", reseal(append(bytes.Clone(own[:len(own)-4]), 0, 0, 0, 0, 0)))
	for _, surgery := range []struct {
		what string
		at   int
		to   byte
	}{
		{"another magic", 0, own[0] ^ 0xFF}, {"the other family's magic", 0, ctrlMagic ^ issuMagic ^ own[0]},
		{"a newer version", 1, own[1] + 1}, {"another type", 2, own[2] + 1},
		{"a zero type", 2, 0}, {"an out-of-range flag", 3, 0xEE},
	} {
		cut := bytes.Clone(own)
		cut[surgery.at] = surgery.to
		reject(surgery.what+" (unsealed)", cut)
		reject(surgery.what, reseal(cut))
	}
}

// Caps: an oversized message is capped on encode — it survives the wire
// truncated, not rejected — and a frame carrying one element more than
// a cap is refused on decode, while the frame at the cap is not.
func Caps(t *testing.T, r Row) {
	if r.Oversized != nil {
		got, err := r.Decode(r.Encode(r.Oversized))
		if err != nil {
			t.Fatalf("oversized message did not survive its own encoder: %v", err)
		}
		if missed := r.Capped(got); missed != "" {
			t.Errorf("caps not applied: %s", missed)
		}
	}
	for field, build := range r.AtCap {
		if _, err := r.Decode(build(0)); err != nil {
			t.Errorf("%s at its cap refused: %v", field, err)
		}
		if _, err := r.Decode(build(1)); err == nil {
			t.Errorf("%s one past its cap accepted", field)
		}
	}
}

// Fuzz is the one fuzz target over every decoder: the first input byte
// selects the row, the rest is the frame. The decoder must never panic,
// and any frame it accepts must re-encode to exactly the input (the
// wire format is canonical) and decode again to an identical message.
// Seeds: every row's samples, every row's pinned frame fed to every
// other decoder, and the garbage the historical targets started from.
func Fuzz(f *testing.F) {
	rows := Rows()
	for i, r := range rows {
		sel := []byte{byte(i)}
		for _, enc := range r.frames() {
			f.Add(append(sel, enc...))
		}
		for _, other := range rows {
			if other.Name != r.Name {
				f.Add(append(sel, other.Encode(other.Samples[0])...))
			}
		}
		f.Add(sel)
		f.Add(append(sel, r.Magic, 1, r.Type))
		f.Add(append(sel, make([]byte, 512)...))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) == 0 {
			return
		}
		r, in := rows[int(data[0])%len(rows)], data[1:]
		msg, err := r.Decode(in)
		if err != nil {
			return
		}
		enc := r.Encode(msg)
		if !bytes.Equal(enc, in) {
			t.Fatalf("%s: accepted frame did not re-encode canonically:\n in %x\nout %x", r.Name, in, enc)
		}
		again, err := r.Decode(enc)
		if err != nil {
			t.Fatalf("%s: re-decode of re-encoded frame failed: %v", r.Name, err)
		}
		if !reflect.DeepEqual(msg, again) {
			t.Fatalf("%s: round trip not identity:\n first %+v\nsecond %+v", r.Name, msg, again)
		}
	})
}
