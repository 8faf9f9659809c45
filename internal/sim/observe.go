package sim

import (
	"microp4/internal/ir"
)

// This file implements the reference interpreter's observation mode,
// used by internal/equiv's path-coverage checker. ObserveProcess runs a
// packet exactly like Process but additionally records an ObsEvent per
// module invocation, parser state, header extraction, and control
// decision — and, for every decision, where in the *input packet* the
// deciding value came from (a BitLoc), tracked through module-call
// argument binding and deparser write-back splices. With no observer
// attached the hooks reduce to nil checks; the hot path is unchanged.

// BitLoc locates a value in the input packet: the value equals bits
// [Off, Off+Width) of the original packet (big-endian bit order, as
// ReadBits counts them) plus the affine offset Add, truncated to Width
// bits — matching the interpreter, which truncates arithmetic results
// to the expression width on evaluation and storage. Add is 0 for a
// plain copy; the affine extension keeps provenance through `x + 1` /
// `x - 1` style arithmetic, e.g. SRv6's decremented segmentsLeft. OK
// is false when the value's provenance could not be tracked (computed,
// rewritten, or spliced over).
type BitLoc struct {
	Off   int
	Width int
	Add   uint64
	OK    bool
}

// ObsEvent is one step of an observed execution. Kind selects which
// fields are meaningful:
//
//	"enter"   — a module invocation begins (Inst, Prog)
//	"state"   — the parser enters a state (State)
//	"extract" — a header was extracted (Hdr; Loc covers the whole region)
//	"accept"  — this invocation's parser accepted
//	"reject"  — this invocation's parser rejected (Reason: "short",
//	            "no-match", or "explicit")
//	"select"  — a select transition fired (State, Trans, SelVals,
//	            SelLocs, Taken = case index or -1 for no match)
//	"table"   — a table was applied (Table, FQ, Keys, KeyLocs, Outcome,
//	            Action = resolved unprefixed action, "" on a miss)
//	"if"      — an if branched (Stmt, CondVal, Branch 1/0; CondParts
//	            decomposes the condition into conjuncts, located when
//	            possible, so callers can force either branch)
//	"switch"  — a switch branched (Stmt, CondVal, Loc, Branch = matched
//	            case index or -1 for default/fall-through)
//
// Pointer fields (Trans, Table, Stmt) reference the interpreter's
// linked IR and are stable across runs of the same Interp, so callers
// may key on them.
type ObsEvent struct {
	Kind string
	Inst string // module instance path ("" = main)
	Prog string // program name

	State  string
	Reason string

	Hdr string
	Loc BitLoc

	Trans   *ir.Trans
	SelVals []uint64
	SelLocs []BitLoc
	Taken   int

	Table   *ir.Table
	FQ      string
	Keys    []uint64
	KeyLocs []BitLoc
	Outcome LookupOutcome
	Action  string

	Stmt      *ir.Stmt
	CondVal   uint64
	CondParts []CondPart
	Branch    int
}

// CondPart is one conjunct of a decomposed if condition. When OK, the
// conjunct is "<value at Loc> Op Const" and Val holds the located
// subexpression's current value; when !OK the conjunct could not be
// decomposed and Val holds its current truth value (nonzero = true).
// An if condition is the conjunction of its parts.
type CondPart struct {
	Loc   BitLoc
	Op    string // "==", "!=", "<", ">", "<=", ">="
	Const uint64
	Val   uint64
	OK    bool
}

// runObs is the per-Process observation state: the recorded event list
// and the per-byte provenance of the shared packet buffer (input byte
// index, or -1 for synthesized bytes). prov mirrors buf.data through
// every deparser splice.
type runObs struct {
	events []ObsEvent
	buf    *pktBuf
	prov   []int
}

// splice mirrors view.splice on the provenance array (from is always 0
// at the call site, so start is the view base itself).
func (o *runObs) splice(base, oldLen int, repl []int) {
	start, end := base, base+oldLen
	if start > len(o.prov) {
		start = len(o.prov)
	}
	if end > len(o.prov) {
		end = len(o.prov)
	}
	out := make([]int, 0, len(o.prov)-(end-start)+len(repl))
	out = append(out, o.prov[:start]...)
	out = append(out, repl...)
	out = append(out, o.prov[end:]...)
	o.prov = out
}

// frameObs is a frame's observation state: value provenance for scalar
// storage paths, plus the extraction-time provenance needed to give
// deparsed bytes an input location again.
type frameObs struct {
	locs       map[string]BitLoc // storage path -> input location (absent = unknown)
	extLoc     map[string]BitLoc // field path -> location at extraction time
	extProv    map[string][]int  // header path -> per-byte input provenance of its region
	emitProv   []int             // per-byte provenance of the deparsed output, built during runDeparser
	selNoMatch bool              // last select transition fell off the case list
}

// ObserveProcess is Process, additionally returning the recorded
// execution trace. It is intended for testing and verification drivers
// (internal/equiv); observation allocates per event and per extract, so
// it must not be used on a throughput path. The interpreter itself is
// unaffected for concurrent plain Process calls.
func (ip *Interp) ObserveProcess(pkt []byte, meta Metadata) (*ProcResult, []ObsEvent, error) {
	o := &runObs{}
	res, err := ip.process(pkt, meta, o)
	return res, o.events, err
}

// emitObs records one event, stamping the frame's instance and program.
func (f *frame) emitObs(ev ObsEvent) {
	ev.Inst = f.inst
	ev.Prog = f.prog.Name
	f.r.obs.events = append(f.r.obs.events, ev)
}

// resolveLoc maps an expression to the input-packet location of its
// value, when the expression is a (possibly cast or sliced) reference
// whose storage still holds bits traced to the input packet.
func (f *frame) resolveLoc(e *ir.Expr) BitLoc {
	if f.obs == nil || e == nil {
		return BitLoc{}
	}
	switch e.Kind {
	case ir.ERef:
		return f.obs.locs[e.Ref]
	case ir.EUn:
		if e.Op != "cast" {
			return BitLoc{}
		}
		in := f.resolveLoc(e.X)
		if !in.OK {
			return BitLoc{}
		}
		if e.Width > 0 && e.Width < in.Width {
			if in.Add != 0 {
				// An affine offset does not commute with bit selection;
				// give up rather than lie.
				return BitLoc{}
			}
			// Narrowing cast keeps the low (last) e.Width bits.
			return BitLoc{Off: in.Off + in.Width - e.Width, Width: e.Width, OK: true}
		}
		// Widening cast: zero-extension preserves the value, so the
		// source location (including any affine offset) still holds.
		return in
	case ir.ESlice:
		in := f.resolveLoc(e.X)
		if !in.OK || in.Add != 0 || e.Hi >= in.Width || e.Lo < 0 || e.Hi < e.Lo {
			return BitLoc{}
		}
		return BitLoc{Off: in.Off + in.Width - 1 - e.Hi, Width: e.Hi - e.Lo + 1, OK: true}
	case ir.EBin:
		// Affine tracking: x + c and x - c keep x's location with an
		// adjusted offset (c + x likewise; c - x involves a negation and
		// is dropped). Only when the expression width matches the source
		// width — offsets compose with same-width modular arithmetic but
		// not across width changes.
		if e.Op != "+" && e.Op != "-" {
			return BitLoc{}
		}
		fold := func(side *ir.Expr, delta uint64) BitLoc {
			l := f.resolveLoc(side)
			if !l.OK || (e.Width > 0 && e.Width != l.Width) {
				return BitLoc{}
			}
			l.Add += delta
			return l
		}
		if e.Y != nil && e.Y.Kind == ir.EConst {
			delta := e.Y.Value
			if e.Op == "-" {
				delta = -delta
			}
			if l := fold(e.X, delta); l.OK {
				return l
			}
		}
		if e.Op == "+" && e.X != nil && e.X.Kind == ir.EConst {
			if l := fold(e.Y, e.X.Value); l.OK {
				return l
			}
		}
	}
	return BitLoc{}
}

// condParts decomposes an if condition into a conjunction of parts a
// caller can reason about: && recurses, comparisons against a constant
// with a located other side become forceable parts, ! inverts a single
// comparison, and a bare located value is "!= 0". Anything else (||,
// isValid, computed operands) becomes an opaque part carrying only its
// current truth value. The condition holds iff every part holds.
func (f *frame) condParts(e *ir.Expr) []CondPart {
	opaque := func() []CondPart {
		v, err := f.eval(e)
		if err != nil {
			v = 0
		}
		return []CondPart{{Val: v}}
	}
	if e == nil {
		return nil
	}
	switch e.Kind {
	case ir.EBin:
		switch e.Op {
		case "&&":
			return append(f.condParts(e.X), f.condParts(e.Y)...)
		case "==", "!=", "<", ">", "<=", ">=":
			decomp := func(side *ir.Expr, c uint64, op string) []CondPart {
				l := f.resolveLoc(side)
				if !l.OK {
					return nil
				}
				v, err := f.eval(side)
				if err != nil {
					return nil
				}
				return []CondPart{{Loc: l, Op: op, Const: c, Val: v, OK: true}}
			}
			if e.Y.Kind == ir.EConst {
				if p := decomp(e.X, e.Y.Value, e.Op); p != nil {
					return p
				}
			}
			if e.X.Kind == ir.EConst {
				if p := decomp(e.Y, e.X.Value, flipCmp(e.Op)); p != nil {
					return p
				}
			}
			return opaque()
		}
		return opaque()
	case ir.EUn:
		if e.Op == "!" {
			if p := f.condParts(e.X); len(p) == 1 && p[0].OK {
				p[0].Op = negateCmp(p[0].Op)
				return p
			}
		}
		return opaque()
	case ir.ERef, ir.ESlice:
		if l := f.resolveLoc(e); l.OK {
			v, err := f.eval(e)
			if err == nil {
				return []CondPart{{Loc: l, Op: "!=", Const: 0, Val: v, OK: true}}
			}
		}
		return opaque()
	}
	return opaque()
}

// flipCmp mirrors a comparison across its operands (const moved from
// left to right).
func flipCmp(op string) string {
	switch op {
	case "<":
		return ">"
	case ">":
		return "<"
	case "<=":
		return ">="
	case ">=":
		return "<="
	}
	return op
}

// negateCmp returns the complementary comparison.
func negateCmp(op string) string {
	switch op {
	case "==":
		return "!="
	case "!=":
		return "=="
	case "<":
		return ">="
	case ">=":
		return "<"
	case ">":
		return "<="
	case "<=":
		return ">"
	}
	return op
}

// bitLocIn turns a bit range within an extracted region into an input
// location, requiring the region's provenance to be contiguous input
// bytes across the span.
func bitLocIn(prov []int, bitOff, width int) BitLoc {
	if width <= 0 {
		return BitLoc{}
	}
	b0, b1 := bitOff/8, (bitOff+width-1)/8
	if b0 < 0 || b1 >= len(prov) || prov[b0] < 0 {
		return BitLoc{}
	}
	for i := b0; i < b1; i++ {
		if prov[i+1] != prov[i]+1 {
			return BitLoc{}
		}
	}
	return BitLoc{Off: prov[b0]*8 + bitOff%8, Width: width, OK: true}
}

// observeExtract records an extraction: the region's provenance, every
// fixed field's input location, and an "extract" event.
func (f *frame) observeExtract(hdr string, ht *ir.HeaderType, v view, startParsed, size, varBytes int) {
	ro := f.r.obs
	prov := make([]int, size)
	for i := range prov {
		abs := v.base + startParsed + i
		if v.buf == ro.buf && abs >= 0 && abs < len(ro.prov) {
			prov[i] = ro.prov[abs]
		} else {
			prov[i] = -1
		}
	}
	f.obs.extProv[hdr] = prov
	off := 0
	for _, fl := range ht.Fields {
		if fl.Varbit {
			off += varBytes * 8
			continue
		}
		loc := bitLocIn(prov, off, fl.Width)
		path := hdr + "." + fl.Name
		if loc.OK {
			f.obs.locs[path] = loc
		} else {
			delete(f.obs.locs, path)
		}
		f.obs.extLoc[path] = loc
		off += fl.Width
	}
	f.emitObs(ObsEvent{Kind: "extract", Hdr: hdr, Loc: bitLocIn(prov, 0, size*8)})
}

// emitProvOf computes the per-byte input provenance of one emitted
// header: the extraction-time provenance, with every byte covered by a
// field whose value no longer traces to its extracted bits (rewritten,
// or never extracted) marked unknown.
func (f *frame) emitProvOf(hdr string, ht *ir.HeaderType, n int, vb []byte) []int {
	prov := make([]int, n)
	for i := range prov {
		prov[i] = -1
	}
	src, extracted := f.obs.extProv[hdr]
	if !extracted || len(src) != n {
		return prov
	}
	ok := make([]bool, n)
	for i := range ok {
		ok[i] = true
	}
	kill := func(bitOff, width int) {
		for b := bitOff / 8; b <= (bitOff+width-1)/8 && width > 0; b++ {
			if b >= 0 && b < n {
				ok[b] = false
			}
		}
	}
	off := 0
	for _, fl := range ht.Fields {
		if fl.Varbit {
			kill(off, len(vb)*8) // conservative: varbit bytes untracked
			off += len(vb) * 8
			continue
		}
		path := hdr + "." + fl.Name
		cur, orig := f.obs.locs[path], f.obs.extLoc[path]
		if !cur.OK || cur != orig {
			kill(off, fl.Width)
		}
		off += fl.Width
	}
	for i := range prov {
		if ok[i] {
			prov[i] = src[i]
		}
	}
	return prov
}
