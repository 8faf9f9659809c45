package equiv

import (
	"fmt"

	"microp4/internal/ir"
	"microp4/internal/lib"
	"microp4/internal/linker"
	"microp4/internal/midend"
	"microp4/internal/sim"
)

// TableOp is one control-plane operation of a witness: install an entry.
// Outcomes that need an absent entry (miss, default action) are forced
// by not installing one — witnesses always start from an empty control
// plane, so the op list fully determines table state.
type TableOp struct {
	Table  string // fully qualified table name
	Keys   []sim.RuntimeKey
	Action string // fully qualified action name
	Args   []uint64
}

func (op TableOp) String() string {
	ks := ""
	for i, k := range op.Keys {
		if i > 0 {
			ks += ","
		}
		switch {
		case k.DontCare:
			ks += "*"
		case k.HasMask:
			ks += fmt.Sprintf("%#x&%#x", k.Value, k.Mask)
		case k.PrefixLen > 0:
			ks += fmt.Sprintf("%#x/%d", k.Value, k.PrefixLen)
		default:
			ks += fmt.Sprintf("%#x", k.Value)
		}
	}
	return fmt.Sprintf("%s[%s] -> %s%v", op.Table, ks, op.Action, op.Args)
}

// Witness is one concrete input driving a specific execution path: the
// packet bytes, the ingress port, and the table entries installed over
// an otherwise empty control plane.
type Witness struct {
	Packet []byte
	Port   uint64
	Ops    []TableOp
}

func (w *Witness) clone() *Witness {
	return &Witness{
		Packet: append([]byte(nil), w.Packet...),
		Port:   w.Port,
		Ops:    append([]TableOp(nil), w.Ops...),
	}
}

// engines bundles the three execution paths under test plus their
// control-plane state and empty-state snapshots.
type engines struct {
	linked *linker.Linked
	el     int // composition extract-length (analysis El of main): seed sizing

	tables *sim.Tables // shared by interp and exec
	interp *sim.Interp
	exec   *sim.Exec // nil when the program does not compose to a pipeline

	tables3 *sim.Tables // the re-transformed copy's own control plane
	interp3 *sim.Interp

	base, base3 *sim.TablesSnapshot // empty-state snapshots

	composeErr error
}

// buildProgEngines compiles prog (P1..P11) and constructs the engines.
// tf is the midend transform the third engine applies to an
// independently compiled copy of the sources; the production checker
// passes midend.Transform, mutation tests pass a broken variant.
func buildProgEngines(prog string, tf func(*ir.Program) (*ir.Program, error)) (*engines, error) {
	main, mods, err := lib.CompileProgram(prog)
	if err != nil {
		return nil, fmt.Errorf("%s: compile: %w", prog, err)
	}
	res, err := midend.Build(main, mods...)
	if err != nil {
		return nil, fmt.Errorf("%s: midend: %w", prog, err)
	}
	e := &engines{linked: res.Linked, composeErr: res.ComposeErr}
	if res.Analysis != nil {
		e.el = res.Analysis.Main().El
	}
	e.tables = sim.NewTables()
	e.interp = sim.NewInterp(res.Linked, e.tables)
	if res.Pipeline != nil {
		e.exec = sim.NewExec(res.Pipeline, e.tables)
	}

	// Third engine: a fresh frontend pass, the (injectable) midend
	// transform, and an independent link and control plane.
	main3, mods3, err := lib.CompileProgram(prog)
	if err != nil {
		return nil, fmt.Errorf("%s: recompile: %w", prog, err)
	}
	tmain, err := tf(main3)
	if err != nil {
		return nil, fmt.Errorf("%s: transform: %w", prog, err)
	}
	tmods := make([]*ir.Program, 0, len(mods3))
	for _, m := range mods3 {
		tm, err := tf(m)
		if err != nil {
			return nil, fmt.Errorf("%s: transform %s: %w", prog, m.Name, err)
		}
		tmods = append(tmods, tm)
	}
	l3, err := linker.Link(tmain, tmods...)
	if err != nil {
		return nil, fmt.Errorf("%s: relink: %w", prog, err)
	}
	e.tables3 = sim.NewTables()
	e.interp3 = sim.NewInterp(l3, e.tables3)

	e.base = e.tables.Snapshot()
	e.base3 = e.tables3.Snapshot()
	return e, nil
}

// apply resets both control planes to empty and installs the witness's
// entries in both (the fq naming is identical by construction). Flow
// tables are stateful externs the explorer cannot force, so every
// engine restarts each witness from empty flow state.
func (e *engines) apply(w *Witness) {
	e.tables.Restore(e.base)
	e.tables3.Restore(e.base3)
	e.interp.ResetFlows()
	e.interp3.ResetFlows()
	if e.exec != nil {
		e.exec.ResetFlows()
	}
	for _, op := range w.Ops {
		e.tables.AddEntry(op.Table, op.Keys, op.Action, op.Args...)
		e.tables3.AddEntry(op.Table, op.Keys, op.Action, op.Args...)
	}
}

// Divergence is one witnessed disagreement between engines.
type Divergence struct {
	Program string
	Pair    string // "reference vs compiled" or "reference vs re-transformed"
	Field   string // first difference, in sim.FirstOutcomeDiff's wording
	A, B    string // the two outcome summaries
	Witness *Witness
	Path    string // decision-trace signature of the witness
}

// runDiff executes one witness on all engines and returns the first
// divergence, or nil when every engine agrees.
func (e *engines) runDiff(w *Witness) *Divergence {
	e.apply(w)
	meta := sim.Metadata{InPort: w.Port}
	ref := sim.OutcomeOf(e.interp.Process(w.Packet, meta))
	if e.exec != nil {
		rx, errx := e.exec.Process(w.Packet, meta)
		cmp := sim.OutcomeOf(rx, errx)
		if rx != nil {
			rx.Release()
		}
		if f := sim.FirstOutcomeDiff(ref, cmp); f != "" {
			return &Divergence{Pair: "reference vs compiled", Field: f, A: ref.String(), B: cmp.String(), Witness: w}
		}
	}
	o3 := sim.OutcomeOf(e.interp3.Process(w.Packet, meta))
	if f := sim.FirstOutcomeDiff(ref, o3); f != "" {
		return &Divergence{Pair: "reference vs re-transformed", Field: f, A: ref.String(), B: o3.String(), Witness: w}
	}
	return nil
}

// minimize greedily shrinks a diverging witness: drop table ops that
// are not needed for the divergence, then trim trailing packet bytes.
func (e *engines) minimize(w *Witness) *Witness {
	cur := w.clone()
	for changed := true; changed; {
		changed = false
		for i := 0; i < len(cur.Ops); i++ {
			trial := cur.clone()
			trial.Ops = append(trial.Ops[:i], trial.Ops[i+1:]...)
			if e.runDiff(trial) != nil {
				cur = trial
				changed = true
				break
			}
		}
	}
	for len(cur.Packet) > 0 {
		trial := cur.clone()
		trial.Packet = trial.Packet[:len(trial.Packet)-1]
		if e.runDiff(trial) == nil {
			break
		}
		cur = trial
	}
	return cur
}
