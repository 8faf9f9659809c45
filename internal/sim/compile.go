package sim

import (
	"fmt"

	"microp4/internal/flow"
	"microp4/internal/ir"
	"microp4/internal/mat"
)

// This file is the slot compiler: at NewExec time the pipeline's IR is
// walked once and lowered into trees of closures over *execState, with
// every string-keyed reference (scalar paths, validity bits, registers,
// tables, action parameters) resolved through the pipeline's SlotMap
// into dense slice indexes. The per-packet hot path then runs compiled
// code over flat state — no maps, no IR dispatch, no allocation.
//
// Compilation is total: IR the executor cannot run (unknown statement
// kinds, unmapped references, malformed method calls) compiles into an
// operation that returns the same typed error the interpretive engine
// produced at runtime, so dead unsupported branches cost nothing and
// live ones fail identically.

type evalFn func(st *execState) (uint64, error)
type stmtFn func(st *execState) error
type assignFn func(st *execState, v uint64) error

// cParam is a compiled action parameter: the scalar slot the control
// plane's argument lands in, pre-truncated to the declared width.
type cParam struct {
	slot  int
	width int
}

// cAction is a compiled table action.
type cAction struct {
	name   string
	id     int32 // name, interned for the per-packet record
	params []cParam
	body   []stmtFn
}

type compiler struct {
	e  *Exec
	sm *mat.SlotMap
}

// runList executes a compiled statement list.
func runList(fns []stmtFn, st *execState) error {
	for _, f := range fns {
		if err := f(st); err != nil {
			return err
		}
	}
	return nil
}

// compile lowers the pipeline into e.prog/e.actions. It never panics:
// a compiler panic (malformed IR) degrades to a program that returns a
// typed EngineFault for every packet, mirroring how the interpretive
// executor surfaced the same IR at runtime.
func (e *Exec) compile() {
	defer func() {
		if r := recover(); r != nil {
			fault := &EngineFault{Engine: "compiled",
				Reason: fmt.Sprintf("pipeline compilation failed: %v", r), PanicValue: r}
			e.prog = []stmtFn{func(*execState) error { return fault }}
		}
	}()
	sm := e.pl.Slots()
	e.nScalars = sm.NumScalars()
	e.nValids = sm.NumValids()
	for _, t := range e.pl.Tables {
		if len(t.Keys) > e.maxKeys {
			e.maxKeys = len(t.Keys)
		}
	}
	e.imInPort = mustScalar(sm, "$im.meta.IN_PORT")
	e.imInTS = mustScalar(sm, "$im.meta.IN_TIMESTAMP")
	e.imPktLen = mustScalar(sm, "$im.meta.PKT_LEN")
	e.imQdepth = mustScalar(sm, "$im.meta.QUEUE_DEPTH")
	e.imOutPort = mustScalar(sm, "$im.out_port")
	e.imPerr = mustScalar(sm, "$im.$perr")

	c := &compiler{e: e, sm: sm}
	e.actions = make(map[string]*cAction, len(e.pl.Actions))
	for name, act := range e.pl.Actions {
		ca := &cAction{name: act.Name, id: e.tables.syms.intern(act.Name)}
		for _, p := range act.Params {
			slot, ok := sm.Scalar(act.Name + "#" + p.Name)
			if !ok {
				panic("unmapped action parameter " + act.Name + "#" + p.Name)
			}
			ca.params = append(ca.params, cParam{slot: slot, width: p.Width})
		}
		e.actions[name] = ca
	}
	// Bodies compile once every action exists: binding a table resolves
	// its actions by name.
	for name, act := range e.pl.Actions {
		e.actions[name].body = c.stmts(act.Body)
	}
	e.prog = c.stmts(e.pl.Stmts)
}

// mustScalar resolves an intrinsic path; SlotMap interns all of
// IntrinsicScalars, so a miss is a construction bug (caught by the
// compile recover).
func mustScalar(sm *mat.SlotMap, path string) int {
	slot, ok := sm.Scalar(path)
	if !ok {
		panic("intrinsic scalar not interned: " + path)
	}
	return slot
}

func (c *compiler) faultStmt(reason string) stmtFn {
	err := &EngineFault{Engine: "compiled", Reason: reason}
	return func(*execState) error { return err }
}

func (c *compiler) faultEval(reason string) evalFn {
	err := &EngineFault{Engine: "compiled", Reason: reason}
	return func(*execState) (uint64, error) { return 0, err }
}

// stmts compiles a statement list. Each maximal run of consecutive plain
// moves (moves.go) becomes one closure over a []move; every other
// statement compiles on its own.
func (c *compiler) stmts(ss []*ir.Stmt) []stmtFn {
	out := make([]stmtFn, 0, len(ss))
	for i := 0; i < len(ss); i++ {
		var run []move
		for ; i < len(ss); i++ {
			m, ok := c.move(ss[i])
			if !ok {
				break
			}
			run = append(run, m)
		}
		if len(run) > 0 {
			out = append(out, func(st *execState) error {
				runMoves(run, st)
				return nil
			})
		}
		if i < len(ss) {
			out = append(out, c.stmt(ss[i]))
		}
	}
	return out
}

func (c *compiler) stmt(s *ir.Stmt) stmtFn {
	switch s.Kind {
	case ir.SAssign:
		rhs := c.expr(s.RHS)
		lhs := c.assign(s.LHS)
		return func(st *execState) error {
			v, err := rhs(st)
			if err != nil {
				return err
			}
			return lhs(st, v)
		}
	case ir.SIf:
		cond := c.expr(s.Cond)
		then := c.stmts(s.Then)
		els := c.stmts(s.Else)
		return func(st *execState) error {
			v, err := cond(st)
			if err != nil {
				return err
			}
			if v != 0 {
				return runList(then, st)
			}
			return runList(els, st)
		}
	case ir.SSwitch:
		return c.switchStmt(s)
	case ir.SSetValid, ir.SSetInvalid:
		slot, ok := c.sm.Valid(s.Hdr)
		if !ok {
			return c.faultStmt("unmapped header " + s.Hdr)
		}
		v := s.Kind == ir.SSetValid
		return func(st *execState) error {
			st.valid[slot] = v
			return nil
		}
	case ir.SExit:
		return func(*execState) error { return errExit }
	case ir.SApplyTable:
		return c.applyTable(s.Table)
	case ir.SShift:
		off, amt := s.Off, s.Amt
		return func(st *execState) error {
			st.shift(off, amt)
			return nil
		}
	case ir.SMethod:
		return c.method(s)
	}
	return c.faultStmt("cannot execute " + s.Kind + " statement")
}

func (c *compiler) switchStmt(s *ir.Stmt) stmtFn {
	type cCase struct {
		vals []uint64
		body []stmtFn
	}
	cond := c.expr(s.Cond)
	w := s.Cond.Width
	var cases []cCase
	var deflt []stmtFn
	hasDeflt := false
	for _, cs := range s.Cases {
		if cs.Default {
			deflt = c.stmts(cs.Body)
			hasDeflt = true
			continue
		}
		cases = append(cases, cCase{vals: cs.Values, body: c.stmts(cs.Body)})
	}
	return func(st *execState) error {
		v, err := cond(st)
		if err != nil {
			return err
		}
		v = Truncate(v, w)
		for i := range cases {
			for _, cv := range cases[i].vals {
				if cv == v {
					return runList(cases[i].body, st)
				}
			}
		}
		if hasDeflt {
			return runList(deflt, st)
		}
		return nil
	}
}

func (c *compiler) method(s *ir.Stmt) stmtFn {
	switch s.Method {
	case "recirculate":
		return func(st *execState) error {
			st.res.Recirculate = true
			return nil
		}
	case "mc_engine_set_mc_group":
		if len(s.Args) < 1 {
			return c.faultStmt("mc_engine_set_mc_group without group argument")
		}
		group := c.expr(s.Args[0].Expr)
		slot := mustScalar(c.sm, "$mc.group")
		return func(st *execState) error {
			g, err := group(st)
			if err != nil {
				return err
			}
			st.scalars[slot] = g
			return nil
		}
	case "mc_engine_apply":
		slot := mustScalar(c.sm, "$mc.group")
		var out assignFn
		if len(s.Args) == 2 {
			out = c.assign(s.Args[1].Expr)
		}
		return func(st *execState) error {
			st.res.McastGroup = st.scalars[slot]
			if out != nil {
				return out(st, 0)
			}
			return nil
		}
	case "im_digest":
		if len(s.Args) < 1 {
			return c.faultStmt("im_digest without value argument")
		}
		val := c.expr(s.Args[0].Expr)
		return func(st *execState) error {
			v, err := val(st)
			if err != nil {
				return err
			}
			st.res.Digests = append(st.res.Digests, v)
			return nil
		}
	case "register_read", "register_write":
		return c.registerOp(s)
	case "flow_upsert", "flow_stick":
		return c.flowOp(s)
	}
	return c.faultStmt("cannot execute method " + s.Method)
}

func (c *compiler) registerOp(s *ir.Stmt) stmtFn {
	ri, ok := c.sm.Register(s.Target)
	if !ok {
		err := &TableError{Table: s.Target, Reason: "unknown register in pipeline"}
		return func(*execState) error { return err }
	}
	inst := &c.e.pl.Registers[ri]
	cells := c.e.regs[s.Target]
	size := uint64(inst.Size)
	width := inst.Width
	if len(s.Args) < 2 {
		return c.faultStmt("register op " + s.Method + " needs two arguments")
	}
	if s.Method == "register_read" {
		idx := c.expr(s.Args[1].Expr)
		dst := c.assign(s.Args[0].Expr)
		return func(st *execState) error {
			i, err := idx(st)
			if err != nil {
				return err
			}
			if i >= size {
				i %= size // size 0 panics, recovered as an EngineFault
			}
			return dst(st, Truncate(cells[i], width))
		}
	}
	idx := c.expr(s.Args[0].Expr)
	val := c.expr(s.Args[1].Expr)
	return func(st *execState) error {
		i, err := idx(st)
		if err != nil {
			return err
		}
		if i >= size {
			i %= size
		}
		v, err := val(st)
		if err != nil {
			return err
		}
		cells[i] = Truncate(v, width)
		return nil
	}
}

// flowOp compiles ft.upsert(hit, dir, srcAddr, dstAddr, proto,
// srcPort, dstPort) or ft.stick(hit, val, want, srcAddr, dstAddr,
// proto, srcPort, dstPort) into a closure over the executor's
// flow-table instance. The wheel advances on the IN_TIMESTAMP scalar
// slot, the same virtual clock the interpretive engine uses.
func (c *compiler) flowOp(s *ir.Stmt) stmtFn {
	op := "upsert"
	if s.Method == "flow_stick" {
		op = "stick"
	}
	fi, ok := c.sm.FlowTable(s.Target)
	if !ok {
		err := &FlowError{Table: s.Target, Op: op, Reason: "unknown flowtable in pipeline"}
		return func(*execState) error { return err }
	}
	name := c.e.pl.FlowTables[fi].Name
	tbl := c.e.flows[name]
	id := c.e.tables.syms.intern(name)
	tsSlot := c.e.imInTS
	if op == "stick" {
		if len(s.Args) != 8 {
			return c.faultStmt("flow stick needs eight arguments")
		}
		hitDst := c.assign(s.Args[0].Expr)
		valDst := c.assign(s.Args[1].Expr)
		var args [6]evalFn // want, srcAddr, dstAddr, proto, srcPort, dstPort
		for i := range args {
			args[i] = c.expr(s.Args[i+2].Expr)
		}
		return func(st *execState) error {
			var vals [6]uint64
			for i, fn := range args {
				v, err := fn(st)
				if err != nil {
					return err
				}
				vals[i] = v
			}
			hit, val := tbl.Stick(flow.Key{
				SrcAddr: vals[1], DstAddr: vals[2], Proto: vals[3],
				SrcPort: vals[4], DstPort: vals[5],
			}, vals[0], st.scalars[tsSlot])
			if st.rec.on {
				st.rec.flow(id, tbl)
			}
			if err := hitDst(st, hit); err != nil {
				return err
			}
			return valDst(st, val)
		}
	}
	if len(s.Args) != 7 {
		return c.faultStmt("flow upsert needs seven arguments")
	}
	dst := c.assign(s.Args[0].Expr)
	var args [6]evalFn // dir, srcAddr, dstAddr, proto, srcPort, dstPort
	for i := range args {
		args[i] = c.expr(s.Args[i+1].Expr)
	}
	return func(st *execState) error {
		var vals [6]uint64
		for i, fn := range args {
			v, err := fn(st)
			if err != nil {
				return err
			}
			vals[i] = v
		}
		hit := tbl.Upsert(flow.Key{
			SrcAddr: vals[1], DstAddr: vals[2], Proto: vals[3],
			SrcPort: vals[4], DstPort: vals[5],
		}, vals[0], st.scalars[tsSlot])
		if st.rec.on {
			st.rec.flow(id, tbl)
		}
		return dst(st, hit)
	}
}

func (c *compiler) applyTable(name string) stmtFn {
	def := c.e.pl.Tables[name]
	if def == nil {
		err := &TableError{Table: name, Reason: "unknown table in pipeline"}
		return func(*execState) error { return err }
	}
	nKeys := len(def.Keys)
	keyFns := make([]evalFn, nKeys)
	keyWs := make([]int, nKeys)
	for i, k := range def.Keys {
		keyFns[i] = c.expr(k.Expr)
		keyWs[i] = orW(k.Expr.Width, 64)
	}
	id := c.e.tables.syms.intern(name)
	h := c.e.tables.bind(name, def, c.e.actions)
	return func(st *execState) error {
		kv := st.keys[:nKeys]
		for i, kf := range keyFns {
			v, err := kf(st)
			if err != nil {
				return err
			}
			kv[i] = Truncate(v, keyWs[i])
		}
		call, act, outcome := h.lookup(kv)
		if st.rec.on {
			action := noName // none chosen, or one the program does not have
			if act != nil {
				action = act.id
			}
			st.rec.table(id, action, outcome, kv)
		}
		if call == nil {
			return nil
		}
		if act == nil {
			return &TableError{Table: name, Action: call.Name, Reason: "selected unknown action"}
		}
		if len(call.Args) != len(act.params) {
			return &TableError{Table: name, Action: act.name,
				Reason: fmt.Sprintf("takes %d args, got %d", len(act.params), len(call.Args))}
		}
		for i := range act.params {
			p := &act.params[i]
			st.scalars[p.slot] = Truncate(call.Args[i], p.width)
		}
		return runList(act.body, st)
	}
}

func (c *compiler) expr(e *ir.Expr) evalFn {
	if e == nil {
		return c.faultEval("cannot evaluate <nil> expression")
	}
	switch e.Kind {
	case ir.EConst:
		v := e.Value
		return func(*execState) (uint64, error) { return v, nil }
	case ir.ERef:
		slot, ok := c.sm.Scalar(e.Ref)
		if !ok {
			return c.faultEval("unmapped reference " + e.Ref)
		}
		return func(st *execState) (uint64, error) { return st.scalars[slot], nil }
	case ir.EIsValid:
		slot, ok := c.sm.Valid(e.Ref)
		if !ok {
			return c.faultEval("unmapped header " + e.Ref)
		}
		return func(st *execState) (uint64, error) {
			if st.valid[slot] {
				return 1, nil
			}
			return 0, nil
		}
	case ir.EBSlice:
		off, w := e.Off, e.Width
		return func(st *execState) (uint64, error) { return ReadBits(st.buf, off, w), nil }
	case ir.EBValid:
		off := e.Off
		return func(st *execState) (uint64, error) {
			if off < len(st.buf) {
				return 1, nil
			}
			return 0, nil
		}
	case ir.EUn:
		return c.unary(e)
	case ir.EBin:
		return c.binary(e)
	case ir.ESlice:
		x := c.expr(e.X)
		lo := uint(e.Lo)
		m := MaskW(e.Hi - e.Lo + 1)
		return func(st *execState) (uint64, error) {
			v, err := x(st)
			if err != nil {
				return 0, err
			}
			return v >> lo & m, nil
		}
	}
	return c.faultEval("cannot evaluate " + e.Kind + " expression")
}

func (c *compiler) unary(e *ir.Expr) evalFn {
	x := c.expr(e.X)
	w := e.Width
	switch e.Op {
	case "!":
		return func(st *execState) (uint64, error) {
			v, err := x(st)
			if err != nil {
				return 0, err
			}
			if v == 0 {
				return 1, nil
			}
			return 0, nil
		}
	case "~":
		return func(st *execState) (uint64, error) {
			v, err := x(st)
			if err != nil {
				return 0, err
			}
			return Truncate(^v, w), nil
		}
	case "-":
		return func(st *execState) (uint64, error) {
			v, err := x(st)
			if err != nil {
				return 0, err
			}
			return Truncate(-v, w), nil
		}
	case "cast":
		return func(st *execState) (uint64, error) {
			v, err := x(st)
			if err != nil {
				return 0, err
			}
			return Truncate(v, w), nil
		}
	}
	return c.faultEval(fmt.Sprintf("unknown unary %q", e.Op))
}

func (c *compiler) binary(e *ir.Expr) evalFn {
	x := c.expr(e.X)
	y := c.expr(e.Y)
	if e.Op == "++" {
		xw, yw, w := e.X.Width, e.Y.Width, e.Width
		return func(st *execState) (uint64, error) {
			xv, err := x(st)
			if err != nil {
				return 0, err
			}
			yv, err := y(st)
			if err != nil {
				return 0, err
			}
			return Truncate(Truncate(xv, xw)<<uint(yw)|Truncate(yv, yw), w), nil
		}
	}
	w := e.Width
	if e.Bool {
		w = e.X.Width
	}
	xw := orW(e.X.Width, w)
	yw := orW(e.Y.Width, w)
	op := binOpFn(e.Op, w)
	return func(st *execState) (uint64, error) {
		xv, err := x(st)
		if err != nil {
			return 0, err
		}
		yv, err := y(st)
		if err != nil {
			return 0, err
		}
		return op(Truncate(xv, xw), Truncate(yv, yw))
	}
}

// Shared error values for the arithmetic guards, matching evalBinary's
// messages (these are the taxonomy's only untyped errors; real midend
// output never divides by a runtime value).
var (
	errDivZero = fmt.Errorf("division by zero")
	errModZero = fmt.Errorf("modulo by zero")
)

// binOpFn pre-dispatches a binary operator to a width-closed function,
// mirroring evalBinary (bitops.go) case for case.
func binOpFn(op string, w int) func(x, y uint64) (uint64, error) {
	b := func(cond bool) uint64 {
		if cond {
			return 1
		}
		return 0
	}
	switch op {
	case "+":
		return func(x, y uint64) (uint64, error) { return Truncate(x+y, w), nil }
	case "-":
		return func(x, y uint64) (uint64, error) { return Truncate(x-y, w), nil }
	case "*":
		return func(x, y uint64) (uint64, error) { return Truncate(x*y, w), nil }
	case "/":
		return func(x, y uint64) (uint64, error) {
			if y == 0 {
				return 0, errDivZero
			}
			return x / y, nil
		}
	case "%":
		return func(x, y uint64) (uint64, error) {
			if y == 0 {
				return 0, errModZero
			}
			return x % y, nil
		}
	case "&":
		return func(x, y uint64) (uint64, error) { return x & y, nil }
	case "|":
		return func(x, y uint64) (uint64, error) { return x | y, nil }
	case "^":
		return func(x, y uint64) (uint64, error) { return x ^ y, nil }
	case "<<":
		return func(x, y uint64) (uint64, error) {
			if y >= 64 {
				return 0, nil
			}
			return Truncate(x<<y, w), nil
		}
	case ">>":
		return func(x, y uint64) (uint64, error) {
			if y >= 64 {
				return 0, nil
			}
			return x >> y, nil
		}
	case "==":
		return func(x, y uint64) (uint64, error) { return b(x == y), nil }
	case "!=":
		return func(x, y uint64) (uint64, error) { return b(x != y), nil }
	case "<":
		return func(x, y uint64) (uint64, error) { return b(x < y), nil }
	case ">":
		return func(x, y uint64) (uint64, error) { return b(x > y), nil }
	case "<=":
		return func(x, y uint64) (uint64, error) { return b(x <= y), nil }
	case ">=":
		return func(x, y uint64) (uint64, error) { return b(x >= y), nil }
	case "&&":
		return func(x, y uint64) (uint64, error) { return b(x != 0 && y != 0), nil }
	case "||":
		return func(x, y uint64) (uint64, error) { return b(x != 0 || y != 0), nil }
	}
	err := fmt.Errorf("unknown binary operator %q", op)
	return func(uint64, uint64) (uint64, error) { return 0, err }
}

func (c *compiler) assign(lhs *ir.Expr) assignFn {
	if lhs != nil {
		switch lhs.Kind {
		case ir.ERef:
			slot, ok := c.sm.Scalar(lhs.Ref)
			if !ok {
				break
			}
			w := orW(lhs.Width, 64)
			return func(st *execState, v uint64) error {
				st.scalars[slot] = Truncate(v, w)
				return nil
			}
		case ir.ESlice:
			if lhs.X == nil || lhs.X.Kind != ir.ERef {
				err := &EngineFault{Engine: "compiled", Reason: "assignment to slice of non-reference"}
				return func(*execState, uint64) error { return err }
			}
			slot, ok := c.sm.Scalar(lhs.X.Ref)
			if !ok {
				break
			}
			lo := uint(lhs.Lo)
			m := MaskW(lhs.Hi-lhs.Lo+1) << lo
			return func(st *execState, v uint64) error {
				cur := st.scalars[slot]
				st.scalars[slot] = cur&^m | (v<<lo)&m
				return nil
			}
		case ir.EBSlice:
			off, w := lhs.Off, lhs.Width
			// Writes past the current end of the packet extend it (growth
			// regions are placed by a preceding shift, but a grown packet's
			// final header write may still land at the very end).
			endByte := (off + w + 7) / 8
			return func(st *execState, v uint64) error {
				st.extend(endByte)
				WriteBits(st.buf, off, w, v)
				return nil
			}
		}
	}
	err := &EngineFault{Engine: "compiled", Reason: fmt.Sprintf("assignment to unsupported lvalue %s", lhs)}
	return func(*execState, uint64) error { return err }
}
