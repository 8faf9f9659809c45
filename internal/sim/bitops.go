// Package sim is the behavioral dataplane simulator: a reference
// interpreter that executes µP4-IR modules with source-level semantics,
// and an executor that runs the midend's composed MAT pipelines. Running
// both on the same traffic differentially validates µP4C's
// transformations (the substitute for the paper's BMv2/Tofino targets).
package sim

import "fmt"

// ReadBits reads w bits (w ≤ 64) starting at absolute bit offset off in
// buf, network bit order (MSB of buf[0] is bit 0). Bits beyond the buffer
// read as zero.
func ReadBits(buf []byte, off, w int) uint64 {
	var v uint64
	bit := off
	for remaining := w; remaining > 0; {
		byteIdx := bit >> 3
		inByte := bit & 7
		take := 8 - inByte
		if take > remaining {
			take = remaining
		}
		var b byte
		if byteIdx < len(buf) {
			b = buf[byteIdx]
		}
		chunk := b >> (8 - inByte - take) & byte(1<<take-1)
		v = v<<take | uint64(chunk)
		bit += take
		remaining -= take
	}
	return v
}

// WriteBits writes the low w bits of v (w ≤ 64) at absolute bit offset
// off in buf. Writes beyond the buffer are dropped.
func WriteBits(buf []byte, off, w int, v uint64) {
	bit := off
	for remaining := w; remaining > 0; {
		byteIdx := bit >> 3
		inByte := bit & 7
		take := 8 - inByte
		if take > remaining {
			take = remaining
		}
		if byteIdx < len(buf) {
			chunk := byte(v>>(remaining-take)) & byte(1<<take-1)
			shift := 8 - inByte - take
			mask := byte(1<<take-1) << shift
			buf[byteIdx] = buf[byteIdx]&^mask | chunk<<shift
		}
		bit += take
		remaining -= take
	}
}

// MaskW returns a mask of the low w bits.
func MaskW(w int) uint64 {
	if w <= 0 {
		return 0
	}
	if w >= 64 {
		return ^uint64(0)
	}
	return 1<<uint(w) - 1
}

// Truncate keeps the low w bits of v.
func Truncate(v uint64, w int) uint64 { return v & MaskW(w) }

// evalBinary evaluates a binary operator on w-bit operands.
func evalBinary(op string, x, y uint64, w int) (uint64, error) {
	b := func(cond bool) uint64 {
		if cond {
			return 1
		}
		return 0
	}
	switch op {
	case "+":
		return Truncate(x+y, w), nil
	case "-":
		return Truncate(x-y, w), nil
	case "*":
		return Truncate(x*y, w), nil
	case "/":
		if y == 0 {
			return 0, fmt.Errorf("division by zero")
		}
		return x / y, nil
	case "%":
		if y == 0 {
			return 0, fmt.Errorf("modulo by zero")
		}
		return x % y, nil
	case "&":
		return x & y, nil
	case "|":
		return x | y, nil
	case "^":
		return x ^ y, nil
	case "<<":
		if y >= 64 {
			return 0, nil
		}
		return Truncate(x<<y, w), nil
	case ">>":
		if y >= 64 {
			return 0, nil
		}
		return x >> y, nil
	case "==":
		return b(x == y), nil
	case "!=":
		return b(x != y), nil
	case "<":
		return b(x < y), nil
	case ">":
		return b(x > y), nil
	case "<=":
		return b(x <= y), nil
	case ">=":
		return b(x >= y), nil
	case "&&":
		return b(x != 0 && y != 0), nil
	case "||":
		return b(x != 0 || y != 0), nil
	}
	return 0, fmt.Errorf("unknown binary operator %q", op)
}
