package equiv

import (
	"fmt"

	"microp4/internal/ir"
	"microp4/internal/sim"
)

// ----------------------------------------------------------------------------
// Bit-level packet access goes through sim.ReadBits/sim.WriteBits, the
// accessors the interpreter itself reads with, so witness synthesis
// writes bytes exactly as the interpreter reads them.

// writeLoc writes value v into the input-packet location loc, checking
// that the value fits and the location is inside the packet. Returns a
// reason string on failure ("" = written).
func writeLoc(pkt []byte, loc sim.BitLoc, v uint64) string {
	if !loc.OK {
		return "value has no input-packet provenance"
	}
	// The location's value is sim.Truncate(bits + Add, Width), so any v that
	// fits Width is representable: invert the affine offset in the same
	// modular arithmetic.
	if loc.Width < 64 && v>>uint(loc.Width) != 0 {
		return fmt.Sprintf("value %#x does not fit the %d-bit source field", v, loc.Width)
	}
	if loc.Off < 0 || loc.Off+loc.Width > len(pkt)*8 {
		return "source field lies outside the packet"
	}
	sim.WriteBits(pkt, loc.Off, loc.Width, sim.Truncate(v-loc.Add, loc.Width))
	return ""
}

// ----------------------------------------------------------------------------
// Select-case steering

// matchesCase reports whether value tuple vals (already truncated to the
// select expressions' widths ws) matches transition case c.
func matchesCase(c *ir.TransCase, vals []uint64, ws []int) bool {
	if c.Default {
		return true
	}
	for j := range c.Values {
		if j >= len(vals) {
			break
		}
		if j < len(c.DontCare) && c.DontCare[j] {
			continue
		}
		v := sim.Truncate(vals[j], ws[j])
		if j < len(c.HasMask) && c.HasMask[j] {
			if v&c.Masks[j] != c.Values[j]&c.Masks[j] {
				return false
			}
		} else if v != c.Values[j] {
			return false
		}
	}
	return true
}

// avoidColumn tries to pick a single column j and value making every
// case in avoid fail to match, leaving the other columns at their
// current values. Returns the new tuple, or a reason.
func avoidColumn(avoid []*ir.TransCase, vals []uint64, ws []int) ([]uint64, string) {
	if len(avoid) == 0 {
		return vals, ""
	}
	for j := range vals {
		w := ws[j]
		// A case that don't-cares this column can never be broken here.
		skip := false
		for _, c := range avoid {
			if j >= len(c.Values) || (j < len(c.DontCare) && c.DontCare[j]) {
				skip = true
				break
			}
		}
		if skip {
			continue
		}
		cands := []uint64{0, 1, sim.MaskW(w), sim.Truncate(vals[j], w)}
		for _, c := range avoid {
			cv := c.Values[j]
			cands = append(cands, sim.Truncate(cv^1, w), sim.Truncate(cv+1, w), sim.Truncate(cv-1, w), sim.Truncate(^cv, w))
			if j < len(c.HasMask) && c.HasMask[j] {
				cands = append(cands, sim.Truncate(cv^c.Masks[j], w))
			}
		}
		for _, v := range cands {
			ok := true
			for _, c := range avoid {
				cv := c.Values[j]
				if j < len(c.HasMask) && c.HasMask[j] {
					if v&c.Masks[j] == cv&c.Masks[j] {
						ok = false
						break
					}
				} else if v == cv {
					ok = false
					break
				}
			}
			if ok {
				out := append([]uint64(nil), vals...)
				out[j] = v
				return out, ""
			}
		}
	}
	return nil, "no single-column value avoids every competing case"
}

// chooseCaseValues returns select-expression values steering a select
// with cases cs (current truncated values cur, widths ws) to case index
// target; target < 0 means past every case, i.e. the implicit no-match
// reject (only meaningful when cs has no default case). The interpreter
// takes the first matching case in declaration order — and a default
// case matches unconditionally when reached — so steering must also
// avoid every earlier case. A non-empty reason means the target cannot
// be steered to with these semantics.
func chooseCaseValues(cs []*ir.TransCase, cur []uint64, ws []int, target int) ([]uint64, string) {
	vals := append([]uint64(nil), cur...)
	var avoid []*ir.TransCase
	upto := len(cs)
	if target >= 0 {
		upto = target
	}
	for k := 0; k < upto; k++ {
		if cs[k].Default {
			return nil, fmt.Sprintf("an earlier default case (index %d) always wins", k)
		}
		avoid = append(avoid, cs[k])
	}
	if target >= 0 && !cs[target].Default {
		c := cs[target]
		for j := range vals {
			if j >= len(c.Values) {
				break
			}
			switch {
			case j < len(c.DontCare) && c.DontCare[j]:
				// free column
			case j < len(c.HasMask) && c.HasMask[j]:
				vals[j] = sim.Truncate(vals[j]&^c.Masks[j]|c.Values[j]&c.Masks[j], ws[j])
			default:
				vals[j] = sim.Truncate(c.Values[j], ws[j])
			}
		}
		// The assignment above may have made an earlier case match; the
		// avoidance pass below may only touch columns the target
		// don't-cares, so filter the avoid set to cases still matching
		// and verify the fix kept the target matched.
		var still []*ir.TransCase
		for _, a := range avoid {
			if matchesCase(a, vals, ws) {
				still = append(still, a)
			}
		}
		if len(still) > 0 {
			fixed, reason := avoidColumn(still, vals, ws)
			if reason != "" {
				return nil, "shadowed by an earlier case: " + reason
			}
			if !matchesCase(c, fixed, ws) {
				return nil, "avoiding earlier cases breaks the target case"
			}
			// Re-check the whole earlier range (the fix may wake another).
			for _, a := range avoid {
				if matchesCase(a, fixed, ws) {
					return nil, "shadowed by an earlier case after avoidance"
				}
			}
			vals = fixed
		}
		return vals, ""
	}
	// Default target or no-match: only avoidance.
	out, reason := avoidColumn(avoid, vals, ws)
	if reason != "" {
		return nil, reason
	}
	return out, ""
}

// exprWidth returns the bit width an expression evaluates at inside a
// select comparison.
func exprWidth(e *ir.Expr) int {
	if e == nil {
		return 0
	}
	if e.Kind == ir.ESlice {
		return e.Hi - e.Lo + 1
	}
	return e.Width
}
