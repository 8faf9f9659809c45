package equiv

import (
	"fmt"
	"sort"
	"strings"

	"microp4/internal/analysis"
	"microp4/internal/ir"
	"microp4/internal/linker"
)

// parserUniverse is the coverage universe of one program's parser: every
// enumerated path key plus the derived implicit no-match reject keys.
type parserUniverse struct {
	Prog    string
	Keys    []string // deterministic order: enumerated first, then derived
	Accepts int
	Rejects int             // explicit + derived no-match
	Has     map[string]bool // membership of Keys
}

// noMatchKey builds the key of the implicit reject path that falls off
// the case list of the select ending steps[k]: the enumerated prefix,
// a "[-1]" marker for the unmatched select, and a reject disposition.
// The format lines up with ParserPath.Key and with the observed-trace
// key assembly (a select event with Taken == -1 prints as "[-1]").
func noMatchKey(steps []analysis.PathStep, k int) string {
	var b strings.Builder
	for i := 0; i <= k; i++ {
		if i > 0 {
			b.WriteByte('>')
		}
		b.WriteString(steps[i].State)
		if i < k && steps[i].Constraint != nil {
			fmt.Fprintf(&b, "[%d]", steps[i].Constraint.CaseIndex)
		}
	}
	b.WriteString("[-1]:reject")
	return b.String()
}

// transHasDefault reports whether a select transition declares a default
// case (in which case no-match reject is impossible).
func transHasDefault(tr *ir.Trans) bool {
	if tr == nil {
		return true
	}
	for _, c := range tr.Cases {
		if c.Default {
			return true
		}
	}
	return false
}

// buildParserUniverses enumerates the parser-path universe of every
// program in the linked composition (main first, then modules sorted by
// name). Programs without a parser are omitted.
func buildParserUniverses(l *linker.Linked) ([]*parserUniverse, error) {
	progs := []*ir.Program{l.Main}
	names := make([]string, 0, len(l.Modules))
	for n := range l.Modules {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		progs = append(progs, l.Modules[n])
	}

	var out []*parserUniverse
	for _, p := range progs {
		if p.Parser == nil {
			continue
		}
		paths, err := analysis.EnumerateParserPaths(p)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", p.Name, err)
		}
		seen := make(map[string]bool)
		u := &parserUniverse{Prog: p.Name, Has: seen}
		for _, pp := range paths {
			k := pp.Key()
			if seen[k] {
				return nil, fmt.Errorf("%s: duplicate parser path key %s", p.Name, k)
			}
			seen[k] = true
			u.Keys = append(u.Keys, k)
			if pp.Rejected {
				u.Rejects++
			} else {
				u.Accepts++
			}
		}
		// Derived no-match rejects: one per selecting prefix whose select
		// has no default case. Prefixes are shared across enumerated
		// paths, so dedup on the key.
		for _, pp := range paths {
			for k, st := range pp.Steps {
				if st.Constraint == nil {
					continue
				}
				state := p.Parser.State(st.State)
				if state == nil || transHasDefault(state.Trans) {
					continue
				}
				key := noMatchKey(pp.Steps, k)
				if !seen[key] {
					seen[key] = true
					u.Keys = append(u.Keys, key)
					u.Rejects++
				}
			}
		}
		out = append(out, u)
	}
	return out, nil
}

// siteState tracks coverage of one control site.
type siteState struct {
	Site    *analysis.ControlSite
	Label   string
	Covered map[string]bool
}

// buildSites enumerates control sites and assigns stable, readable
// labels (the fq table name, or "<prog>:<kind>#<n>" for branches).
func buildSites(l *linker.Linked) ([]*siteState, map[siteKey]*siteState, error) {
	sites, err := analysis.EnumerateControlSites(l)
	if err != nil {
		return nil, nil, err
	}
	byStmt := make(map[siteKey]*siteState, len(sites))
	counts := make(map[string]int)
	out := make([]*siteState, 0, len(sites))
	for _, s := range sites {
		label := s.FQ
		if s.Kind != "table" {
			scope := s.Prog
			if s.Inst != "" {
				scope = s.Inst
			}
			counts[scope+s.Kind]++
			label = fmt.Sprintf("%s:%s#%d", scope, s.Kind, counts[scope+s.Kind])
		}
		st := &siteState{Site: s, Label: label, Covered: make(map[string]bool)}
		out = append(out, st)
		byStmt[siteKey{s.Inst, s.Stmt}] = st
	}
	return out, byStmt, nil
}

// siteKey identifies a control site the way observation events do: the
// deciding statement pointer under a module instance path.
type siteKey struct {
	inst string
	stmt *ir.Stmt
}
