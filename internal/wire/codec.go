// Package wire is the messaging substrate under the control protocol,
// flow-state replication and in-service upgrade: one frame codec and
// one session layer — a reply window for agents, a reliable caller for
// controllers. It knows nothing of tables, flows or upgrades: this
// package validates syntax (header, field caps, checksum, no trailing
// byte); each message family checks its own kinds, schemas and phase
// legality.
package wire

import (
	"encoding/binary"
	"fmt"
)

// Frame layout, little-endian throughout:
//
//	magic u8 | version u8 | type u8 | flag u8 | session u64 | seq u64 | body … | FNV-1a u32
//
// The checksum covers everything before it, so link-level bit flips and
// truncations decode as errors — and become retransmissions — instead
// of as different valid messages.
const (
	version   = 1
	minFrame  = 8 // magic + version + type + flag + checksum
	fnvOffset = 2166136261
	fnvPrime  = 16777619
)

func checksum(b []byte) uint32 {
	h := uint32(fnvOffset)
	for _, c := range b {
		h = (h ^ uint32(c)) * fnvPrime
	}
	return h
}

// Kind names one message type of one family. The family's magic byte
// keeps a frame of one family from decoding as another's.
type Kind struct {
	Family string // error prefix ("ctrlplane", "issu")
	Magic  uint8
	Type   uint8
	Name   string // with its article, for "not <Name> message"
}

// Header is what follows magic, version and type in every frame. Flag
// is the family's discriminator: an op kind, a status, an ok bit, zero.
type Header struct {
	Flag    uint8
	Session uint64
	Seq     uint64
}

// Writer appends one frame.
type Writer struct{ buf []byte }

// Begin starts a frame of kind k; sizeHint presizes the buffer.
func (k Kind) Begin(h Header, sizeHint int) Writer {
	w := Writer{buf: make([]byte, 0, sizeHint)}
	w.buf = append(w.buf, k.Magic, version, k.Type, h.Flag)
	w.U64(h.Session)
	w.U64(h.Seq)
	return w
}

func (w *Writer) U8(v uint8)   { w.buf = append(w.buf, v) }
func (w *Writer) U16(v uint16) { w.buf = binary.LittleEndian.AppendUint16(w.buf, v) }
func (w *Writer) U32(v uint32) { w.buf = binary.LittleEndian.AppendUint32(w.buf, v) }
func (w *Writer) U64(v uint64) { w.buf = binary.LittleEndian.AppendUint64(w.buf, v) }

// Str writes a u16 length and the bytes of s, cut to max.
func (w *Writer) Str(s string, max int) {
	s = s[:min(len(s), max)]
	w.U16(uint16(len(s)))
	w.buf = append(w.buf, s...)
}

// Bytes32 writes a u32 length and the bytes of s, cut to max.
func (w *Writer) Bytes32(s string, max int) {
	s = s[:min(len(s), max)]
	w.U32(uint32(len(s)))
	w.buf = append(w.buf, s...)
}

// Count writes a u16 element count capped at max and returns it.
func (w *Writer) Count(n, max int) int {
	n = min(n, max)
	w.U16(uint16(n))
	return n
}

// Finish appends the checksum and returns the frame.
func (w *Writer) Finish() []byte {
	return binary.LittleEndian.AppendUint32(w.buf, checksum(w.buf))
}

// Reader is a bounds-checked cursor over one frame; the first failure
// latches and every later read returns zero.
type Reader struct {
	buf    []byte
	pos    int
	err    error
	family string
}

// Open verifies data's checksum, magic, version and type against k and
// reads the header. Arbitrary input never panics.
func (k Kind) Open(data []byte) (Reader, Header) {
	r := Reader{buf: data, family: k.Family}
	if len(data) < minFrame {
		r.Fail("too short")
		return r, Header{}
	}
	body := data[:len(data)-4]
	if checksum(body) != binary.LittleEndian.Uint32(data[len(body):]) {
		r.Fail("bad checksum")
		return r, Header{}
	}
	r.buf = body // everything after is parsed against the checksummed body
	switch {
	case r.U8() != k.Magic:
		r.Fail("bad magic")
	case r.U8() != version:
		r.Fail("unsupported version")
	case r.U8() != k.Type:
		r.Fail("not " + k.Name + " message")
	}
	return r, Header{Flag: r.U8(), Session: r.U64(), Seq: r.U64()}
}

// Fail records why the frame is malformed unless an earlier failure
// did; families call it for their semantic checks.
func (r *Reader) Fail(why string) {
	if r.err == nil {
		r.err = fmt.Errorf("%s: malformed message: %s", r.family, why)
	}
}

// Ok reports whether every read so far succeeded.
func (r *Reader) Ok() bool { return r.err == nil }

func (r *Reader) take(n int) []byte {
	if r.err != nil {
		return nil
	}
	if n > len(r.buf)-r.pos {
		r.Fail("truncated")
		return nil
	}
	b := r.buf[r.pos : r.pos+n]
	r.pos += n
	return b
}

// fixed is take for the integer reads: after a failure it yields zeros,
// so they need no failure path of their own.
func (r *Reader) fixed(n int) []byte {
	if b := r.take(n); b != nil {
		return b
	}
	return zeros[:n]
}

var zeros [8]byte

func (r *Reader) U8() uint8   { return r.fixed(1)[0] }
func (r *Reader) U16() uint16 { return binary.LittleEndian.Uint16(r.fixed(2)) }
func (r *Reader) U32() uint32 { return binary.LittleEndian.Uint32(r.fixed(4)) }
func (r *Reader) U64() uint64 { return binary.LittleEndian.Uint64(r.fixed(8)) }

// Str reads a u16-length string of at most max bytes.
func (r *Reader) Str(max int) string {
	return r.text(int(r.U16()), max)
}

// Bytes32 reads a u32-length string of at most max bytes.
func (r *Reader) Bytes32(max int) string {
	return r.text(int(r.U32()), max)
}

func (r *Reader) text(n, max int) string {
	if n > max {
		r.Fail("string too long")
		return ""
	}
	return string(r.take(n))
}

// Count reads a u16 element count; above max it fails with "too many
// <what>" and returns 0.
func (r *Reader) Count(max int, what string) int {
	n := int(r.U16())
	if n > max {
		r.Fail("too many " + what)
		return 0
	}
	return n
}

// Finish rejects trailing bytes — a truncation-resistant codec accounts
// for every byte — and returns the latched error, if any.
func (r *Reader) Finish() error {
	if r.err == nil && r.pos != len(r.buf) {
		r.Fail("trailing bytes")
	}
	return r.err
}
