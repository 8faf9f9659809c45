package sim

import (
	"encoding/binary"

	"microp4/internal/ir"
)

// Header moves. Homogenization (§5.3) turns every parser and deparser
// into a MAT whose action is a straight run of field = bs[off+:w] and
// bs[off+:w] = field copies with compile-time offsets. The slot compiler
// lowers these — and the scalar-to-scalar and constant assignments that
// sit between them — to move records, and fuses each maximal run of
// consecutive moves in a statement list into one closure (compiler.stmts)
// that executes them strictly in order: a store that extends the buffer
// is visible to the load after it. Moves cannot fail, so fusing changes
// no error behaviour. Every other statement compiles as before.

type moveOp uint8

const (
	opConst moveOp = iota // scalars[slot] = mask (the pre-truncated constant)
	opCopy                // scalars[slot] = scalars[src] & mask
	opLoad                // scalars[slot] = bs[off+:w] & mask
	opStore               // bs[off+:w] = scalars[slot], extending the buffer to end
)

// accessor is how a byte-stack move reaches its field, chosen once at
// NewExec from the field's offset and width.
type accessor uint8

const (
	accBits   accessor = iota // ReadBits/WriteBits: any field, any buffer
	acc8                      // byte-aligned, w = 8: one byte
	acc16                     // byte-aligned, w = 16: one big-endian load/store
	acc32                     // byte-aligned, w = 32
	acc64                     // byte-aligned, w = 64
	accWindow                 // (off&7)+w <= 64: 8-byte window at idx, shift, mask
)

// move is one lowered assignment. The field position and everything
// derived from it are fixed when the move is built; per packet only the
// buffer length is looked at.
type move struct {
	op     moveOp
	acc    accessor
	sh     uint8  // accWindow: bits between the field's end and the window's
	slot   int    // scalar slot: the destination, or opStore's source
	src    int    // opCopy: source scalar slot
	off, w int    // the field, in bits
	idx    int    // its first byte
	need   int    // buffer length from which all of the accessor's bytes are in bounds
	end    int    // opStore: byte length the buffer is extended to before the write
	mask   uint64 // destination-width mask; opStore: field mask; opConst: the value
}

// moveMutation is a test hook that breaks the accessors on purpose, so
// the accessor-equals-ReadBits/WriteBits tests can show they bite: 1
// drops the in-bounds guard, 2 shifts the 8-byte window one bit too far.
// It is read when a move is built, never per packet. Only tests set it.
var moveMutation int

// setField places a byte-stack move on bs[off+:w] and picks its accessor.
func (m *move) setField(off, w int) {
	m.off, m.w = off, w
	if off < 0 || w < 1 || w > 64 {
		return // accBits
	}
	m.idx = off >> 3
	byBytes := [9]accessor{1: acc8, 2: acc16, 4: acc32, 8: acc64}
	switch {
	case off&7 == 0 && w&7 == 0 && byBytes[w>>3] != accBits:
		m.acc = byBytes[w>>3]
		m.need = m.idx + w>>3
	case off&7+w <= 64:
		m.acc = accWindow
		m.sh = uint8(64 - off&7 - w)
		m.need = m.idx + 8
	}
	switch moveMutation {
	case 1:
		m.need = 0
	case 2:
		if m.acc == accWindow {
			m.sh++
		}
	}
}

// runMoves executes a fused block in order. A byte-stack move uses its
// accessor when the bytes it touches lie inside the current buffer, and
// ReadBits/WriteBits — zero past the end, writes past the end dropped —
// when they do not.
func runMoves(ms []move, st *execState) {
	for i := range ms {
		m := &ms[i]
		switch m.op {
		case opConst:
			st.scalars[m.slot] = m.mask
		case opCopy:
			st.scalars[m.slot] = st.scalars[m.src] & m.mask
		case opLoad:
			buf, acc := st.buf, m.acc
			if m.need > len(buf) {
				acc = accBits
			}
			var v uint64
			switch acc {
			case acc8:
				v = uint64(buf[m.idx])
			case acc16:
				v = uint64(binary.BigEndian.Uint16(buf[m.idx:]))
			case acc32:
				v = uint64(binary.BigEndian.Uint32(buf[m.idx:]))
			case acc64:
				v = binary.BigEndian.Uint64(buf[m.idx:])
			case accWindow:
				v = binary.BigEndian.Uint64(buf[m.idx:]) >> m.sh
			default:
				v = ReadBits(buf, m.off, m.w)
			}
			st.scalars[m.slot] = v & m.mask
		case opStore:
			st.extend(m.end)
			buf, acc, v := st.buf, m.acc, st.scalars[m.slot]
			if m.need > len(buf) {
				acc = accBits
			}
			switch acc {
			case acc8:
				buf[m.idx] = byte(v)
			case acc16:
				binary.BigEndian.PutUint16(buf[m.idx:], uint16(v))
			case acc32:
				binary.BigEndian.PutUint32(buf[m.idx:], uint32(v))
			case acc64:
				binary.BigEndian.PutUint64(buf[m.idx:], v)
			case accWindow:
				p := buf[m.idx:]
				x := binary.BigEndian.Uint64(p)
				binary.BigEndian.PutUint64(p, x&^(m.mask<<m.sh)|(v&m.mask)<<m.sh)
			default:
				WriteBits(buf, m.off, m.w, v)
			}
		}
	}
}

// move lowers a plain-move assignment — scalar <- byte-stack slice,
// byte-stack slice <- scalar, scalar <- scalar, scalar <- constant, all
// references mapped — and reports whether s is one.
func (c *compiler) move(s *ir.Stmt) (move, bool) {
	if s.Kind != ir.SAssign || s.LHS == nil || s.RHS == nil {
		return move{}, false
	}
	lhs, rhs := s.LHS, s.RHS
	if lhs.Kind == ir.EBSlice && rhs.Kind == ir.ERef {
		src, ok := c.sm.Scalar(rhs.Ref)
		if !ok {
			return move{}, false
		}
		m := move{op: opStore, slot: src, end: (lhs.Off + lhs.Width + 7) / 8, mask: MaskW(lhs.Width)}
		m.setField(lhs.Off, lhs.Width)
		return m, true
	}
	if lhs.Kind != ir.ERef {
		return move{}, false
	}
	dst, ok := c.sm.Scalar(lhs.Ref)
	if !ok {
		return move{}, false
	}
	m := move{slot: dst, mask: MaskW(orW(lhs.Width, 64))}
	switch rhs.Kind {
	case ir.EConst:
		m.op = opConst
		m.mask &= rhs.Value
	case ir.ERef:
		m.op = opCopy
		if m.src, ok = c.sm.Scalar(rhs.Ref); !ok {
			return move{}, false
		}
	case ir.EBSlice:
		m.op = opLoad
		m.setField(rhs.Off, rhs.Width)
		m.mask &= MaskW(rhs.Width) // a window load carries the bits above the field
	default:
		return move{}, false
	}
	return m, true
}
