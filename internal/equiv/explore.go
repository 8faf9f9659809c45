package equiv

import (
	"fmt"
	"strings"

	"microp4/internal/ir"
	"microp4/internal/sim"
)

// checker is the per-program exploration state.
type checker struct {
	prog string
	eng  *engines

	progs map[string]*ir.Program // linked programs by name

	parserU    []*parserUniverse
	parserCov  map[string]map[string]bool // prog -> covered universe keys
	unknown    map[string]map[string]bool // prog -> observed keys outside the universe
	sites      []*siteState
	siteByStmt map[siteKey]*siteState
	siteByFQ   map[string]*siteState

	stmtIDs map[*ir.Stmt]int

	seen      map[string]bool // trace signatures already checked
	tried     map[string]bool // prefix|alternative forcings already attempted
	queue     []*job
	unreached []unreachedNote
	noted     map[string]bool

	divs      []*Divergence
	totalDivs int

	witnesses int
	probes    int
	capped    bool
}

type job struct {
	w      *Witness
	prefix []string // decision signatures that must replay before the forced one
	note   string   // what this job tries to reach (for unreached reporting)
	covKey string   // site coverage item the job aims at ("" = parser path)
	prog   string   // parser program the job aims at ("" = none)
}

type unreachedNote struct {
	What   string
	Reason string
	covKey string // site coverage item this was aiming at ("" = parser path)
	prog   string // parser program the aim belongs to ("" = none)
}

// alternative is one untaken decision outcome and how to force it.
type alternative struct {
	sig    string // dedup key; unique per distinct forcing attempt
	expect string // decision signature the replay must show ("" = sig)
	desc   string
	covKey string
	prog   string
	force  func(w *Witness) (*Witness, string)
}

func newChecker(prog string, eng *engines) (*checker, error) {
	c := &checker{
		prog: prog, eng: eng,
		progs:     map[string]*ir.Program{eng.linked.Main.Name: eng.linked.Main},
		parserCov: make(map[string]map[string]bool),
		unknown:   make(map[string]map[string]bool),
		stmtIDs:   make(map[*ir.Stmt]int),
		seen:      make(map[string]bool),
		tried:     make(map[string]bool),
		noted:     make(map[string]bool),
		siteByFQ:  make(map[string]*siteState),
	}
	for n, p := range eng.linked.Modules {
		c.progs[n] = p
	}
	var err error
	c.parserU, err = buildParserUniverses(eng.linked)
	if err != nil {
		return nil, err
	}
	for _, u := range c.parserU {
		c.parserCov[u.Prog] = make(map[string]bool)
	}
	c.sites, c.siteByStmt, err = buildSites(eng.linked)
	if err != nil {
		return nil, err
	}
	for _, s := range c.sites {
		if s.Site.Kind == "table" {
			if _, dup := c.siteByFQ[s.Site.FQ]; !dup {
				c.siteByFQ[s.Site.FQ] = s
			}
		}
	}
	return c, nil
}

// ----------------------------------------------------------------------------
// Signatures

func (c *checker) stmtID(s *ir.Stmt) int {
	id, ok := c.stmtIDs[s]
	if !ok {
		id = len(c.stmtIDs) + 1
		c.stmtIDs[s] = id
	}
	return id
}

func outcomeStr(ev *sim.ObsEvent) string {
	switch ev.Outcome {
	case sim.LookupHit:
		return "hit:" + ev.Action
	case sim.LookupDefault:
		return "default:" + ev.Action
	default:
		return "miss"
	}
}

func isDecision(kind string) bool {
	return kind == "select" || kind == "table" || kind == "if" || kind == "switch"
}

func (c *checker) decisionSig(ev *sim.ObsEvent) string {
	switch ev.Kind {
	case "select":
		return fmt.Sprintf("sel:%s:%s=%d", ev.Inst, ev.State, ev.Taken)
	case "table":
		return "tbl:" + ev.FQ + "=" + outcomeStr(ev)
	case "if":
		return fmt.Sprintf("if:%s:%d=%d", ev.Inst, c.stmtID(ev.Stmt), ev.Branch)
	case "switch":
		return fmt.Sprintf("sw:%s:%d=%d", ev.Inst, c.stmtID(ev.Stmt), ev.Branch)
	}
	return ""
}

// traceSig canonically identifies an execution's decision structure.
func (c *checker) traceSig(events []sim.ObsEvent) string {
	var b strings.Builder
	for i := range events {
		ev := &events[i]
		switch ev.Kind {
		case "enter":
			fmt.Fprintf(&b, "E:%s/%s;", ev.Inst, ev.Prog)
		case "state":
			b.WriteString("s:" + ev.State + ";")
		case "accept":
			b.WriteString("A:" + ev.Inst + ";")
		case "reject":
			fmt.Fprintf(&b, "R:%s:%s;", ev.Inst, ev.Reason)
		default:
			if isDecision(ev.Kind) {
				b.WriteString(c.decisionSig(ev) + ";")
			}
		}
	}
	return b.String()
}

// ----------------------------------------------------------------------------
// Coverage marking

// assembleParserKey rebuilds, from the events following an "enter", the
// invocation's parser-path key in ParserPath.Key format. It returns the
// key and the terminal disposition ("accept", "reject", "short", or ""
// when the frame has no parser events).
func assembleParserKey(rest []sim.ObsEvent, inst string) (string, string) {
	var b strings.Builder
	states := 0
	for i := range rest {
		ev := &rest[i]
		if ev.Inst != inst {
			break
		}
		switch ev.Kind {
		case "state":
			if states > 0 {
				b.WriteByte('>')
			}
			states++
			b.WriteString(ev.State)
		case "select":
			fmt.Fprintf(&b, "[%d]", ev.Taken)
		case "accept":
			b.WriteString(":accept")
			return b.String(), "accept"
		case "reject":
			if ev.Reason == "short" {
				return "", "short"
			}
			b.WriteString(":reject")
			return b.String(), "reject"
		case "extract":
			// layout only; not part of the key
		default:
			// First control event: the parser finished without a
			// terminal event (program without a parser).
			return "", ""
		}
	}
	return "", ""
}

func (c *checker) mark(events []sim.ObsEvent) (sawShort bool) {
	for i := range events {
		ev := &events[i]
		switch ev.Kind {
		case "enter":
			key, disp := assembleParserKey(events[i+1:], ev.Inst)
			if disp == "short" {
				sawShort = true
				continue
			}
			if key == "" {
				continue
			}
			if u := c.universeOf(ev.Prog); u != nil {
				if u.Has[key] {
					c.parserCov[ev.Prog][key] = true
				} else {
					if c.unknown[ev.Prog] == nil {
						c.unknown[ev.Prog] = make(map[string]bool)
					}
					c.unknown[ev.Prog][key] = true
				}
			}
		case "table":
			if st := c.siteByFQ[ev.FQ]; st != nil {
				st.Covered[outcomeStr(ev)] = true
			}
		case "if":
			if st := c.siteByStmt[siteKey{ev.Inst, ev.Stmt}]; st != nil {
				if ev.Branch == 1 {
					st.Covered["then"] = true
				} else {
					st.Covered["else"] = true
				}
			}
		case "switch":
			if st := c.siteByStmt[siteKey{ev.Inst, ev.Stmt}]; st != nil {
				if ev.Branch >= 0 {
					st.Covered[fmt.Sprintf("case%d", ev.Branch)] = true
				} else {
					st.Covered["default"] = true
				}
			}
		}
	}
	return sawShort
}

func (c *checker) universeOf(prog string) *parserUniverse {
	for _, u := range c.parserU {
		if u.Prog == prog {
			return u
		}
	}
	return nil
}

// ----------------------------------------------------------------------------
// Alternatives

func (c *checker) alternatives(ev *sim.ObsEvent) []alternative {
	switch ev.Kind {
	case "select":
		return c.selectAlts(ev)
	case "table":
		return c.tableAlts(ev)
	case "if":
		return c.ifAlts(ev)
	case "switch":
		return c.switchAlts(ev)
	}
	return nil
}

func (c *checker) selectAlts(ev *sim.ObsEvent) []alternative {
	tr := ev.Trans
	firstDefault := len(tr.Cases)
	for i, cc := range tr.Cases {
		if cc.Default {
			firstDefault = i
			break
		}
	}
	ws := make([]int, len(tr.Exprs))
	cur := make([]uint64, len(tr.Exprs))
	for j, e := range tr.Exprs {
		ws[j] = exprWidth(e)
		cur[j] = sim.Truncate(ev.SelVals[j], ws[j])
	}
	var targets []int
	for t := 0; t < len(tr.Cases) && t <= firstDefault; t++ {
		if t != ev.Taken {
			targets = append(targets, t)
		}
	}
	if firstDefault == len(tr.Cases) && ev.Taken != -1 {
		targets = append(targets, -1) // implicit no-match reject
	}
	var alts []alternative
	for _, t := range targets {
		t := t
		what := fmt.Sprintf("case %d", t)
		if t == -1 {
			what = "no-match reject"
		} else if tr.Cases[t].Default {
			what = fmt.Sprintf("default (case %d)", t)
		}
		alts = append(alts, alternative{
			sig:  fmt.Sprintf("sel:%s:%s=%d", ev.Inst, ev.State, t),
			desc: fmt.Sprintf("parser %s: state %s -> %s", ev.Prog, ev.State, what),
			prog: ev.Prog,
			force: func(w *Witness) (*Witness, string) {
				vals, reason := chooseCaseValues(tr.Cases, cur, ws, t)
				if reason != "" {
					return nil, reason
				}
				w2 := w.clone()
				for j := range vals {
					if vals[j] == cur[j] {
						continue
					}
					if r := writeLoc(w2.Packet, ev.SelLocs[j], vals[j]); r != "" {
						return nil, fmt.Sprintf("select operand %d: %s", j, r)
					}
				}
				return w2, ""
			},
		})
	}
	return alts
}

func (c *checker) ifAlts(ev *sim.ObsEvent) []alternative {
	st := c.siteByStmt[siteKey{ev.Inst, ev.Stmt}]
	label := "if"
	if st != nil {
		label = st.Label
	}
	target := 1 - ev.Branch
	outcome := "else"
	if target == 1 {
		outcome = "then"
	}
	parts := ev.CondParts
	return []alternative{{
		sig:    fmt.Sprintf("if:%s:%d=%d", ev.Inst, c.stmtID(ev.Stmt), target),
		desc:   fmt.Sprintf("branch %s -> %s", label, outcome),
		covKey: label + "|" + outcome,
		force: func(w *Witness) (*Witness, string) {
			if target == 1 {
				// Force true: every currently-false conjunct must be
				// satisfiable through its input-byte provenance.
				w2 := w.clone()
				for _, p := range parts {
					if partHolds(p) {
						continue
					}
					if !p.OK {
						return nil, "condition part has no input-packet provenance"
					}
					v, reason := satisfyCmp(p.Op, p.Const, p.Loc)
					if reason != "" {
						return nil, reason
					}
					if r := writeLoc(w2.Packet, p.Loc, v); r != "" {
						return nil, r
					}
				}
				return w2, ""
			}
			// Force false: violate any one currently-true conjunct.
			lastReason := "condition has no input-packet provenance"
			for _, p := range parts {
				if !partHolds(p) || !p.OK {
					continue
				}
				v, reason := satisfyCmp(negCmp(p.Op), p.Const, p.Loc)
				if reason != "" {
					lastReason = reason
					continue
				}
				trial := w.clone()
				if r := writeLoc(trial.Packet, p.Loc, v); r != "" {
					lastReason = r
					continue
				}
				return trial, ""
			}
			return nil, lastReason
		},
	}}
}

// partHolds reports a condition part's current truth.
func partHolds(p sim.CondPart) bool {
	if !p.OK {
		return p.Val != 0
	}
	switch p.Op {
	case "==":
		return p.Val == p.Const
	case "!=":
		return p.Val != p.Const
	case "<":
		return p.Val < p.Const
	case ">":
		return p.Val > p.Const
	case "<=":
		return p.Val <= p.Const
	case ">=":
		return p.Val >= p.Const
	}
	return false
}

// negCmp returns the complementary comparison.
func negCmp(op string) string {
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

// satisfyCmp picks an expression value making "x OP const" hold that the
// location can represent. The location's value is sim.Truncate(bits + Add,
// Width), so exactly the values in [0, 2^Width) are representable,
// independent of the affine offset.
func satisfyCmp(op string, c uint64, loc sim.BitLoc) (uint64, string) {
	m := sim.MaskW(loc.Width)
	switch op {
	case "==", ">=":
		if c > m {
			return 0, "compared constant is not representable in the source field"
		}
		return c, ""
	case "!=":
		v := sim.Truncate(c^1, loc.Width)
		if v == c {
			return 0, "no representable value distinct from the compared constant"
		}
		return v, ""
	case ">":
		if c >= m {
			return 0, "no representable value above the compared constant"
		}
		return c + 1, ""
	case "<":
		if c == 0 {
			return 0, "no representable value below the compared constant"
		}
		return 0, ""
	case "<=":
		return 0, ""
	}
	return 0, fmt.Sprintf("unsupported comparison %q", op)
}

func (c *checker) switchAlts(ev *sim.ObsEvent) []alternative {
	st := c.siteByStmt[siteKey{ev.Inst, ev.Stmt}]
	label := "switch"
	if st != nil {
		label = st.Label
	}
	s := ev.Stmt
	condW := s.Cond.Width
	var alts []alternative
	addTarget := func(target int, outcome string, pick func() (uint64, string)) {
		alts = append(alts, alternative{
			sig:    fmt.Sprintf("sw:%s:%d=%d", ev.Inst, c.stmtID(ev.Stmt), target),
			desc:   fmt.Sprintf("branch %s -> %s", label, outcome),
			covKey: label + "|" + outcome,
			force: func(w *Witness) (*Witness, string) {
				if !ev.Loc.OK {
					return nil, "switch value has no input-packet provenance"
				}
				v, reason := pick()
				if reason != "" {
					return nil, reason
				}
				w2 := w.clone()
				if r := writeLoc(w2.Packet, ev.Loc, v); r != "" {
					return nil, r
				}
				return w2, ""
			},
		})
	}
	for i, cs := range s.Cases {
		if cs.Default || i == ev.Branch || len(cs.Values) == 0 {
			continue
		}
		v := cs.Values[0]
		addTarget(i, fmt.Sprintf("case%d", i), func() (uint64, string) {
			if v != sim.Truncate(v, condW) {
				return 0, "case value does not fit the switch width"
			}
			return v, ""
		})
	}
	if ev.Branch >= 0 {
		// One alternative per candidate value avoiding every case: a
		// single pick can fail to replay when the rewritten bits interact
		// with an earlier decision (e.g. affine wrap-around flipping a
		// guarding if), so several concrete values are offered and the
		// first that survives replay covers the default.
		var used []uint64
		for _, cs := range s.Cases {
			if !cs.Default {
				used = append(used, cs.Values...)
			}
		}
		cands := []uint64{0, 1, sim.MaskW(condW)}
		for _, u := range used {
			cands = append(cands, sim.Truncate(u+1, condW), sim.Truncate(u-1, condW), sim.Truncate(u^1, condW))
		}
		seen := make(map[uint64]bool)
		n := 0
		for _, v := range cands {
			if seen[v] || n >= 6 {
				continue
			}
			seen[v] = true
			hit := false
			for _, u := range used {
				if sim.Truncate(u, condW) == v {
					hit = true
					break
				}
			}
			if hit {
				continue
			}
			n++
			v := v
			alts = append(alts, alternative{
				sig:    fmt.Sprintf("sw:%s:%d=-1@%#x", ev.Inst, c.stmtID(ev.Stmt), v),
				expect: fmt.Sprintf("sw:%s:%d=-1", ev.Inst, c.stmtID(ev.Stmt)),
				desc:   fmt.Sprintf("branch %s -> default (value %#x)", label, v),
				covKey: label + "|default",
				force: func(w *Witness) (*Witness, string) {
					if !ev.Loc.OK {
						return nil, "switch value has no input-packet provenance"
					}
					w2 := w.clone()
					if r := writeLoc(w2.Packet, ev.Loc, v); r != "" {
						return nil, r
					}
					return w2, ""
				},
			})
		}
	}
	return alts
}

// entryKeysFor builds the most specific runtime keys matching exactly
// the observed key values.
func entryKeysFor(def *ir.Table, keys []uint64) []sim.RuntimeKey {
	out := make([]sim.RuntimeKey, len(def.Keys))
	for i, k := range def.Keys {
		v := keys[i]
		w := k.Expr.Width
		switch k.MatchKind {
		case "lpm":
			plen := w
			if plen > 64 {
				plen = 64
			}
			out[i] = sim.LPM(v, plen)
		case "ternary":
			out[i] = sim.Ternary(v, sim.MaskW(w))
		case "range":
			out[i] = sim.RuntimeKey{Value: v, Mask: v} // inclusive [v, v]
		default:
			out[i] = sim.Exact(v)
		}
	}
	return out
}

func (c *checker) tableAlts(ev *sim.ObsEvent) []alternative {
	def := ev.Table
	cur := outcomeStr(ev)
	p := c.progs[ev.Prog]
	var outcomes []string
	for _, a := range def.Actions {
		outcomes = append(outcomes, "hit:"+a)
	}
	if def.Default != nil {
		outcomes = append(outcomes, "default:"+def.Default.Name)
	} else {
		outcomes = append(outcomes, "miss")
	}
	var alts []alternative
	for _, out := range outcomes {
		if out == cur {
			continue
		}
		out := out
		alts = append(alts, alternative{
			sig:    "tbl:" + ev.FQ + "=" + out,
			desc:   fmt.Sprintf("table %s -> %s", ev.FQ, out),
			covKey: ev.FQ + "|" + out,
			force: func(w *Witness) (*Witness, string) {
				w2 := w.clone()
				// Remove any op that matches these key values; the new
				// outcome must not be decided by a leftover entry.
				kept := w2.Ops[:0]
				for _, op := range w2.Ops {
					if op.Table == ev.FQ && sim.EntryMatches(def, op.Keys, ev.Keys) {
						continue
					}
					kept = append(kept, op)
				}
				removed := len(w2.Ops) - len(kept)
				w2.Ops = kept
				if strings.HasPrefix(out, "hit:") {
					act := strings.TrimPrefix(out, "hit:")
					a := p.Actions[act]
					if a == nil {
						return nil, "unknown action " + act
					}
					args := make([]uint64, len(a.Params))
					for i, prm := range a.Params {
						args[i] = sim.Truncate(uint64(7+13*i), prm.Width)
					}
					fqAct := act
					if ev.Inst != "" {
						fqAct = ev.Inst + "." + act
					}
					w2.Ops = append(w2.Ops, TableOp{
						Table: ev.FQ, Keys: entryKeysFor(def, ev.Keys),
						Action: fqAct, Args: args,
					})
				} else if removed == 0 && ev.Outcome == sim.LookupHit {
					return nil, "hit comes from a const entry; no runtime entry to remove"
				}
				return w2, ""
			},
		})
	}
	return alts
}

// ----------------------------------------------------------------------------
// Exploration

func (c *checker) note(n unreachedNote) {
	key := n.What + "|" + n.Reason
	if c.noted[key] {
		return
	}
	c.noted[key] = true
	c.unreached = append(c.unreached, n)
}

func (c *checker) run(w *Witness) ([]sim.ObsEvent, error) {
	c.eng.apply(w)
	_, events, err := c.eng.interp.ObserveProcess(w.Packet, sim.Metadata{InPort: w.Port})
	return events, err
}

func (c *checker) processJob(j *job) {
	events, _ := c.run(j.w) // an engine error still yields a partial trace and is differentially compared below
	var decisions []*sim.ObsEvent
	var sigs []string
	for i := range events {
		if isDecision(events[i].Kind) {
			decisions = append(decisions, &events[i])
			sigs = append(sigs, c.decisionSig(&events[i]))
		}
	}
	if len(j.prefix) > 0 {
		ok := len(sigs) >= len(j.prefix)
		for i := 0; ok && i < len(j.prefix); i++ {
			ok = sigs[i] == j.prefix[i]
		}
		if !ok {
			c.note(unreachedNote{What: j.note, Reason: "forced decision did not replay (input rewrite interacts with earlier decisions)",
				covKey: j.covKey, prog: j.prog})
			return
		}
	}
	ts := c.traceSig(events)
	if c.seen[ts] {
		return
	}
	c.seen[ts] = true
	c.witnesses++
	if c.mark(events) {
		c.probes++
	}
	if d := c.eng.runDiff(j.w); d != nil {
		c.totalDivs++
		if len(c.divs) < maxDivergences {
			mw := c.eng.minimize(j.w)
			if d2 := c.eng.runDiff(mw); d2 != nil {
				d = d2
			}
			d.Program = c.prog
			d.Witness = mw
			d.Path = ts
			c.divs = append(c.divs, d)
		}
	}
	if c.witnesses >= maxWitnesses {
		c.capped = true
		return
	}
	for i, ev := range decisions {
		prefix := sigs[:i:i]
		for _, a := range c.alternatives(ev) {
			tk := strings.Join(prefix, ";") + "|" + a.sig
			if c.tried[tk] {
				continue
			}
			c.tried[tk] = true
			w2, reason := a.force(j.w)
			if reason != "" {
				c.note(unreachedNote{What: a.desc, Reason: reason, covKey: a.covKey, prog: a.prog})
				continue
			}
			exp := a.expect
			if exp == "" {
				exp = a.sig
			}
			c.queue = append(c.queue, &job{w: w2, prefix: append(prefix, exp), note: a.desc, covKey: a.covKey, prog: a.prog})
		}
	}
	// Truncation probes: cut the packet one byte short of each observed
	// extraction's end to exercise the parser's "short" reject, which is
	// outside the enumerable path universe.
	for i := range events {
		ev := &events[i]
		if ev.Kind != "extract" || !ev.Loc.OK {
			continue
		}
		cut := (ev.Loc.Off+ev.Loc.Width)/8 - 1
		if cut < 0 || cut >= len(j.w.Packet) {
			continue
		}
		w2 := j.w.clone()
		w2.Packet = w2.Packet[:cut]
		c.queue = append(c.queue, &job{w: w2, note: "truncation probe"})
	}
}

func (c *checker) explore() {
	// One all-zero seed: the composition's extract-length El bounds the
	// bytes parsed across every module on every path (§5.2), so El + pad
	// leaves payload to spare on whichever path forcing steers it down.
	seed := &Witness{Packet: make([]byte, c.eng.el+pad), Port: 1}
	c.queue = append(c.queue, &job{w: seed, note: "seed"})
	for len(c.queue) > 0 && !c.capped {
		j := c.queue[0]
		c.queue = c.queue[1:]
		c.processJob(j)
	}
}
