package equiv

import (
	"fmt"
	"sort"
	"strings"
)

// ParserCoverage summarizes one program's parser-path universe.
type ParserCoverage struct {
	Prog    string
	Total   int // accepting + rejecting (incl. derived no-match) paths
	Accepts int
	Rejects int
	Covered int
	Missing []string // universe keys never observed
	Unknown []string // observed keys outside the universe (should be empty)
}

// SiteCoverage summarizes one control site's outcome alphabet.
type SiteCoverage struct {
	Label   string
	Kind    string
	Total   int
	Covered int
	Missing []string
}

// UnreachedNote documents one alternative the explorer could not force,
// with the reason — unreached outcomes are reported, never silent.
type UnreachedNote struct {
	What   string
	Reason string
}

// Report is the outcome of Check for one program.
type Report struct {
	Program    string
	Engines    int    // 3, or 2 when the program does not compose to a MAT pipeline
	ComposeErr string // why the compiled engine is absent ("" when present)

	Parsers []*ParserCoverage
	Sites   []*SiteCoverage

	Witnesses int // distinct execution paths differentially checked
	Probes    int // of which truncation ("short" reject) probes
	Capped    bool

	Divergences      []*Divergence // minimized, up to maxDivergences
	TotalDivergences int

	Unreached []UnreachedNote
}

// ParserCoverageOK reports whether every enumerated accepting and
// rejecting parser path of every program was checked.
func (r *Report) ParserCoverageOK() bool {
	for _, p := range r.Parsers {
		if p.Covered != p.Total || len(p.Unknown) > 0 {
			return false
		}
	}
	return true
}

// SiteTotals sums control-site outcome coverage.
func (r *Report) SiteTotals() (covered, total int) {
	for _, s := range r.Sites {
		covered += s.Covered
		total += s.Total
	}
	return covered, total
}

// StructurallyUnreachable lists the control-site outcomes the checker
// is allowed to leave uncovered, keyed by program then "label|outcome".
// Every entry has been verified dead by hand; see DESIGN.md
// ("Mechanized equivalence") for the arguments.
//
// P6 (SRv4): sr4_tbl has const entries for both values of its 1-bit key
// (0 -> steer, 1 -> steer_done), and const entries win priority ties
// over runtime entries, so its hit:pass and default:pass outcomes can
// never fire. The if#2/#5/#6/#7 arms come from the midend's pop_front
// unrolling (per-element "if (valid) copy else invalidate" chains);
// their conditions are implied by the parser path that reached them —
// segment k+1's validity is fixed by how many segments were parsed.
var StructurallyUnreachable = map[string]map[string]bool{
	"P6": {
		"sr4_i.sr4_tbl|hit:pass":     true,
		"sr4_i.sr4_tbl|default:pass": true,
		"sr4_i:if#2|else":            true,
		"sr4_i:if#5|then":            true,
		"sr4_i:if#6|then":            true,
		"sr4_i:if#7|then":            true,
	},
}

// UnexpectedMissing returns the missing control-site outcomes that are
// NOT in the documented structurally-unreachable set — coverage the
// gate does not excuse.
func (r *Report) UnexpectedMissing() []string {
	allow := StructurallyUnreachable[r.Program]
	var out []string
	for _, s := range r.Sites {
		for _, o := range s.Missing {
			if !allow[s.Label+"|"+o] {
				out = append(out, s.Label+"|"+o)
			}
		}
	}
	sort.Strings(out)
	return out
}

// OK is the CI gate: full parser-path coverage, zero divergences, and
// no control-site outcome missing beyond the documented
// structurally-unreachable set.
func (r *Report) OK() bool {
	return r.TotalDivergences == 0 && r.ParserCoverageOK() && len(r.UnexpectedMissing()) == 0
}

// String renders the report for terminal output.
func (r *Report) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s: %d engines, %d path witnesses (%d truncation probes)",
		r.Program, r.Engines, r.Witnesses, r.Probes)
	if r.Capped {
		b.WriteString(" [witness cap hit]")
	}
	b.WriteByte('\n')
	if r.ComposeErr != "" {
		fmt.Fprintf(&b, "  compiled engine absent: %s\n", r.ComposeErr)
	}
	pc, pt := 0, 0
	for _, p := range r.Parsers {
		pc += p.Covered
		pt += p.Total
	}
	fmt.Fprintf(&b, "  parser paths: %d/%d covered\n", pc, pt)
	for _, p := range r.Parsers {
		fmt.Fprintf(&b, "    %-12s %d/%d (%d accept, %d reject)\n", p.Prog, p.Covered, p.Total, p.Accepts, p.Rejects)
		for _, k := range p.Missing {
			fmt.Fprintf(&b, "      MISSING %s\n", k)
		}
		for _, k := range p.Unknown {
			fmt.Fprintf(&b, "      UNKNOWN %s\n", k)
		}
	}
	sc, st := r.SiteTotals()
	fmt.Fprintf(&b, "  control sites: %d/%d outcomes covered\n", sc, st)
	for _, s := range r.Sites {
		if len(s.Missing) == 0 {
			continue
		}
		fmt.Fprintf(&b, "    %s %s: missing %s\n", s.Kind, s.Label, strings.Join(s.Missing, ", "))
	}
	if ux := r.UnexpectedMissing(); len(ux) > 0 {
		fmt.Fprintf(&b, "  UNEXPECTED uncovered outcomes (not documented unreachable): %s\n", strings.Join(ux, ", "))
	}
	if len(r.Unreached) > 0 {
		b.WriteString("  unreached (documented):\n")
		for _, u := range r.Unreached {
			fmt.Fprintf(&b, "    %s — %s\n", u.What, u.Reason)
		}
	}
	fmt.Fprintf(&b, "  divergences: %d\n", r.TotalDivergences)
	for _, d := range r.Divergences {
		fmt.Fprintf(&b, "    %s: first difference: %s\n      reference:   %s\n      other:       %s\n      witness pkt: %x (port %d)\n",
			d.Pair, d.Field, d.A, d.B, d.Witness.Packet, d.Witness.Port)
		for _, op := range d.Witness.Ops {
			fmt.Fprintf(&b, "      witness op:  %s\n", op.String())
		}
	}
	return b.String()
}

// report assembles the checker's final state into a Report.
func (c *checker) report() *Report {
	r := &Report{
		Program:          c.prog,
		Engines:          3,
		Witnesses:        c.witnesses,
		Probes:           c.probes,
		Capped:           c.capped,
		Divergences:      c.divs,
		TotalDivergences: c.totalDivs,
	}
	if c.eng.exec == nil {
		r.Engines = 2
		if c.eng.composeErr != nil {
			r.ComposeErr = c.eng.composeErr.Error()
		} else {
			r.ComposeErr = "pipeline not built"
		}
	}
	for _, u := range c.parserU {
		pc := &ParserCoverage{Prog: u.Prog, Total: len(u.Keys), Accepts: u.Accepts, Rejects: u.Rejects}
		cov := c.parserCov[u.Prog]
		for _, k := range u.Keys {
			if cov[k] {
				pc.Covered++
			} else {
				pc.Missing = append(pc.Missing, k)
			}
		}
		for k := range c.unknown[u.Prog] {
			pc.Unknown = append(pc.Unknown, k)
		}
		sort.Strings(pc.Missing)
		sort.Strings(pc.Unknown)
		r.Parsers = append(r.Parsers, pc)
	}
	missingSiteItems := make(map[string]bool)
	for _, s := range c.sites {
		sc := &SiteCoverage{Label: s.Label, Kind: s.Site.Kind, Total: len(s.Site.Outcomes)}
		for _, o := range s.Site.Outcomes {
			if s.Covered[o] {
				sc.Covered++
			} else {
				sc.Missing = append(sc.Missing, o)
				missingSiteItems[s.Label+"|"+o] = true
			}
		}
		r.Sites = append(r.Sites, sc)
	}
	parserMissing := make(map[string]bool)
	for _, p := range r.Parsers {
		if len(p.Missing) > 0 {
			parserMissing[p.Prog] = true
		}
	}
	// Keep only the unreached notes that still explain a gap: notes
	// aiming at a covered item were reached some other way.
	for _, n := range c.unreached {
		switch {
		case n.covKey != "":
			if missingSiteItems[n.covKey] {
				r.Unreached = append(r.Unreached, UnreachedNote{What: n.What, Reason: n.Reason})
			}
		case n.prog != "":
			if parserMissing[n.prog] {
				r.Unreached = append(r.Unreached, UnreachedNote{What: n.What, Reason: n.Reason})
			}
		default:
			if len(missingSiteItems) > 0 || len(parserMissing) > 0 {
				r.Unreached = append(r.Unreached, UnreachedNote{What: n.What, Reason: n.Reason})
			}
		}
	}
	return r
}
