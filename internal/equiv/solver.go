package equiv

import (
	"fmt"

	"microp4/internal/analysis"
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

// ----------------------------------------------------------------------------
// Static per-path packet synthesis

// statLocs tracks field locations while replaying a parser path's
// statements statically; it is the static shadow of the interpreter's
// frameObs.locs.
type statLocs map[string]sim.BitLoc

func (m statLocs) resolve(e *ir.Expr) sim.BitLoc {
	if e == nil {
		return sim.BitLoc{}
	}
	switch e.Kind {
	case ir.ERef:
		return m[e.Ref]
	case ir.EUn:
		if e.Op != "cast" {
			return sim.BitLoc{}
		}
		in := m.resolve(e.X)
		if !in.OK {
			return sim.BitLoc{}
		}
		if e.Width > 0 && e.Width < in.Width {
			return sim.BitLoc{Off: in.Off + in.Width - e.Width, Width: e.Width, OK: true}
		}
		return in
	case ir.ESlice:
		in := m.resolve(e.X)
		if !in.OK || e.Hi >= in.Width || e.Lo < 0 || e.Hi < e.Lo {
			return sim.BitLoc{}
		}
		return sim.BitLoc{Off: in.Off + in.Width - 1 - e.Hi, Width: e.Hi - e.Lo + 1, OK: true}
	}
	return sim.BitLoc{}
}

// SolvePacket synthesizes a packet that drives p's parser down the given
// enumerated path, byte-by-byte from the path's select constraints. pad
// extra zero bytes follow the extracted region so accepting paths have
// payload to deparse. Paths through varbit extractions are not solvable
// statically (the concolic explorer covers them); they return an error.
func SolvePacket(p *ir.Program, path *analysis.ParserPath, pad int) ([]byte, error) {
	for _, ex := range path.Extracts {
		if ex.Varbit {
			return nil, fmt.Errorf("%s: path %s extracts varbit header %s; not statically solvable", p.Name, path.Key(), ex.Hdr)
		}
	}
	pkt := make([]byte, path.Bytes+pad)
	locs := make(statLocs)
	nextExtract := 0
	for _, step := range path.Steps {
		for _, s := range step.Stmts {
			switch s.Kind {
			case ir.SExtract:
				if nextExtract >= len(path.Extracts) {
					return nil, fmt.Errorf("%s: path %s has more extracts than recorded", p.Name, path.Key())
				}
				ex := path.Extracts[nextExtract]
				nextExtract++
				ht := p.HeaderOf(ex.Hdr)
				if ht == nil {
					return nil, fmt.Errorf("%s: unknown header %s", p.Name, ex.Hdr)
				}
				off := ex.ByteOff * 8
				for _, fl := range ht.Fields {
					locs[ex.Hdr+"."+fl.Name] = sim.BitLoc{Off: off, Width: fl.Width, OK: true}
					off += fl.Width
				}
			case ir.SAssign:
				// A parser-state assignment breaks the static field→byte
				// correspondence for its target.
				if s.LHS != nil && s.LHS.Kind == ir.ERef {
					delete(locs, s.LHS.Ref)
				}
			}
		}
		c := step.Constraint
		if c == nil {
			continue
		}
		st := p.Parser.State(step.State)
		if st == nil || st.Trans == nil || st.Trans.Kind != "select" {
			return nil, fmt.Errorf("%s: state %s has a constraint but no select", p.Name, step.State)
		}
		tr := st.Trans
		ws := make([]int, len(tr.Exprs))
		cur := make([]uint64, len(tr.Exprs))
		eLocs := make([]sim.BitLoc, len(tr.Exprs))
		for j, e := range tr.Exprs {
			ws[j] = exprWidth(e)
			eLocs[j] = locs.resolve(e)
			if !eLocs[j].OK {
				return nil, fmt.Errorf("%s: select operand %d in state %s has no static packet location", p.Name, j, step.State)
			}
			cur[j] = sim.ReadBits(pkt, eLocs[j].Off, eLocs[j].Width)
		}
		vals, reason := chooseCaseValues(tr.Cases, cur, ws, c.CaseIndex)
		if reason != "" {
			return nil, fmt.Errorf("%s: state %s case %d: %s", p.Name, step.State, c.CaseIndex, reason)
		}
		for j := range vals {
			if sim.Truncate(vals[j], ws[j]) == sim.Truncate(cur[j], ws[j]) {
				continue
			}
			if r := writeLoc(pkt, eLocs[j], vals[j]); r != "" {
				return nil, fmt.Errorf("%s: state %s operand %d: %s", p.Name, step.State, j, r)
			}
		}
	}
	return pkt, nil
}
