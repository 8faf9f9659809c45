package sim

import (
	"fmt"
	"strings"

	"microp4/internal/flow"
	"microp4/internal/ir"
	"microp4/internal/types"
)

// execStmts runs a control statement list in the frame.
func (f *frame) execStmts(ss []*ir.Stmt) error {
	for _, s := range ss {
		if err := f.execStmt(s); err != nil {
			return err
		}
	}
	return nil
}

func (f *frame) execStmt(s *ir.Stmt) error {
	switch s.Kind {
	case ir.SAssign:
		v, err := f.eval(s.RHS)
		if err != nil {
			return err
		}
		// Resolve the RHS provenance before the assign kills the target's:
		// self-referencing updates like x = x - 1 need x's old location.
		var rl BitLoc
		if f.obs != nil && s.LHS.Kind == ir.ERef {
			rl = f.resolveLoc(s.RHS)
		}
		if err := f.assign(s.LHS, v); err != nil {
			return err
		}
		if rl.OK {
			// assign killed the target's provenance; a traceable RHS
			// (copy, cast, slice, or affine step of a located value)
			// restores it.
			f.obs.locs[s.LHS.Ref] = rl
		}
		return nil
	case ir.SIf:
		cond, err := f.eval(s.Cond)
		if err != nil {
			return err
		}
		if f.obs != nil {
			branch := 0
			if cond != 0 {
				branch = 1
			}
			f.emitObs(ObsEvent{Kind: "if", Stmt: s, CondVal: cond, Branch: branch,
				CondParts: f.condParts(s.Cond)})
		}
		if cond != 0 {
			return f.execStmts(s.Then)
		}
		return f.execStmts(s.Else)
	case ir.SSwitch:
		v, err := f.eval(s.Cond)
		if err != nil {
			return err
		}
		v = Truncate(v, s.Cond.Width)
		matched, deflt := -1, -1
		for i, c := range s.Cases {
			if c.Default {
				if deflt < 0 {
					deflt = i
				}
				continue
			}
			for _, cv := range c.Values {
				if cv == v {
					matched = i
					break
				}
			}
			if matched >= 0 {
				break
			}
		}
		if f.obs != nil {
			f.emitObs(ObsEvent{Kind: "switch", Stmt: s, CondVal: v,
				Loc: f.resolveLoc(s.Cond), Branch: matched})
		}
		if matched >= 0 {
			return f.execStmts(s.Cases[matched].Body)
		}
		if deflt >= 0 {
			return f.execStmts(s.Cases[deflt].Body)
		}
		return nil
	case ir.SSetValid:
		f.valid[s.Hdr] = true
		return nil
	case ir.SSetInvalid:
		f.valid[s.Hdr] = false
		return nil
	case ir.SExit:
		return errExit
	case ir.SApplyTable:
		return f.applyTable(s.Table)
	case ir.SCallModule:
		return f.callModule(s)
	case ir.SMethod:
		return f.method(s)
	case ir.SEmit, ir.SExtract:
		return &EngineFault{Engine: "reference",
			Reason: fmt.Sprintf("%s: %s statement outside its block", f.prog.Name, s.Kind)}
	}
	return &EngineFault{Engine: "reference",
		Reason: fmt.Sprintf("%s: unsupported statement %s", f.prog.Name, s.Kind)}
}

// qualify prefixes a module-local name with the frame's instance path,
// the name the control plane and the compiled engine know it by.
func (f *frame) qualify(name string) string {
	if f.inst == "" {
		return name
	}
	return f.inst + "." + name
}

// applyTable looks up and runs a table.
func (f *frame) applyTable(name string) error {
	def := f.prog.Tables[name]
	if def == nil {
		return &TableError{Table: name, Reason: "unknown table in " + f.prog.Name}
	}
	keyVals := make([]uint64, len(def.Keys))
	for i, k := range def.Keys {
		v, err := f.eval(k.Expr)
		if err != nil {
			return err
		}
		keyVals[i] = Truncate(v, k.Expr.Width)
	}
	fq := f.qualify(name)
	call, outcome := f.r.ip.tables.LookupWithOutcome(fq, def, keyVals)
	// Control-plane entries use fully-qualified action names; the
	// module's own action map, and so a default the table declares, is
	// unprefixed. The record gets the qualified name either way, like
	// the compiled engine's.
	actName := ""
	if call != nil {
		actName = call.Name
		if f.inst != "" {
			actName = strings.TrimPrefix(actName, f.inst+".")
		}
	}
	if f.r.rec.on {
		ids := f.r.ip.ids // a miss is noName: no call, or an action the module lacks
		f.r.rec.table(ids[fq], ids[f.qualify(actName)], outcome, keyVals)
	}
	if f.obs != nil {
		locs := make([]BitLoc, len(def.Keys))
		for i, k := range def.Keys {
			locs[i] = f.resolveLoc(k.Expr)
		}
		f.emitObs(ObsEvent{Kind: "table", Table: def, FQ: fq,
			Keys: append([]uint64(nil), keyVals...), KeyLocs: locs,
			Outcome: outcome, Action: actName})
	}
	if call == nil {
		return nil // miss with no default: no-op
	}
	return f.runAction(fq, actName, call.Args)
}

// runAction runs action name of the module on behalf of table (fully
// qualified, for the error text).
func (f *frame) runAction(table, name string, args []uint64) error {
	act := f.prog.Actions[name]
	if act == nil {
		return &TableError{Table: table, Action: name, Reason: "unknown action in " + f.prog.Name}
	}
	if len(args) != len(act.Params) {
		return &TableError{Table: table, Action: name,
			Reason: fmt.Sprintf("takes %d args, got %d", len(act.Params), len(args))}
	}
	for i, p := range act.Params {
		if f.obs != nil {
			delete(f.obs.locs, name+"#"+p.Name)
		}
		f.store[name+"#"+p.Name] = Truncate(args[i], p.Width)
	}
	return f.execStmts(act.Body)
}

// callModule invokes a callee module at its apply() site.
func (f *frame) callModule(s *ir.Stmt) error {
	callee := f.r.ip.linked.Modules[s.Module]
	if callee == nil {
		return &EngineFault{Engine: "reference",
			Reason: fmt.Sprintf("%s: call of unlinked module %s", f.prog.Name, s.Module)}
	}
	// Resolve the packet view the callee receives.
	pktName := s.PktArg
	if pktName == "" {
		pktName = "$pkt"
	}
	pv, ok := f.pkts[pktName]
	if !ok {
		return &EngineFault{Engine: "reference",
			Reason: fmt.Sprintf("%s: call passes unknown pkt %s", f.prog.Name, pktName)}
	}
	base := pv.base
	if pktName == "$pkt" {
		base += f.parsed
	}
	childView := view{buf: pv.buf, base: base}
	var bindings []argBinding
	for i, a := range s.Args {
		if i >= len(callee.Params) {
			return &EngineFault{Engine: "reference",
				Reason: fmt.Sprintf("%s: too many args to %s", f.prog.Name, s.Module)}
		}
		b := argBinding{param: callee.Params[i]}
		if b.param.Dir != "out" {
			v, err := f.eval(a.Expr)
			if err != nil {
				return err
			}
			b.value = Truncate(v, b.param.Width)
			if f.obs != nil {
				b.loc = f.resolveLoc(a.Expr)
			}
		}
		bindings = append(bindings, b)
	}
	childInst := f.qualify(s.Instance)
	if f.r.rec.bus != nil {
		f.r.rec.mark(stepModule, f.r.ip.ids[childInst], f.r.ip.ids[s.Module])
	}
	// Bind the callee's $im: inherit ours for "$im", or route to a
	// local im_t copy living in this frame's store.
	imb := imBinding{get: f.imGet, set: f.imSet, isGlobal: f.imIsGlobal}
	if s.ImArg != "" && s.ImArg != "$im" {
		prefix := s.ImArg + "."
		imb = imBinding{
			get: func(field string) uint64 { return f.store[prefix+field] },
			set: func(field string, v uint64) { f.store[prefix+field] = v },
		}
	}
	// Run the callee; out/inout results are read back from its frame.
	cf, err := f.r.runModuleFrame(callee, childInst, childView, bindings, imb)
	if err != nil {
		return err
	}
	for i, a := range s.Args {
		mp := callee.Params[i]
		if mp.Dir == "out" || mp.Dir == "inout" {
			if err := f.assign(a.Expr, cf.store[mp.Name]); err != nil {
				return err
			}
			if f.obs != nil && a.Expr.Kind == ir.ERef {
				if l := cf.obs.locs[mp.Name]; l.OK {
					f.obs.locs[a.Expr.Ref] = l
				}
			}
		}
	}
	return nil
}

// method executes extern method statements.
func (f *frame) method(s *ir.Stmt) error {
	switch s.Method {
	case "pkt_copy_from":
		src, err := f.viewOfArg(s.Args[0].Expr)
		if err != nil {
			return err
		}
		f.pkts[s.Target] = view{buf: &pktBuf{data: append([]byte(nil), src.bytes()...)}}
		return nil
	case "im_copy_from":
		srcPrefix, err := f.imPrefixOfArg(s.Args[0].Expr)
		if err != nil {
			return err
		}
		f.copyIm(s.Target, srcPrefix)
		return nil
	case "mc_engine_set_mc_group":
		g, err := f.eval(s.Args[0].Expr)
		if err != nil {
			return err
		}
		f.mcGroup = g
		return nil
	case "mc_engine_apply":
		// PRE-style replication: record the group; the architecture
		// replicates at end of pipeline. A packet-instance id out-param
		// (2-arg form) is set to zero here.
		f.r.result.McastGroup = f.mcGroup
		if len(s.Args) == 2 {
			return f.assign(s.Args[1].Expr, 0)
		}
		return nil
	case "mc_engine_set_buf", "mc_buf_enqueue", "out_buf_merge", "out_buf_to_in_buf":
		return nil // joins/merges: outputs are already accumulated
	case "out_buf_enqueue":
		pv, err := f.viewOfArg(s.Args[0].Expr)
		if err != nil {
			return err
		}
		port := f.imGet("out_port")
		if prefix, err := f.imPrefixOfArg(s.Args[1].Expr); err == nil && prefix != "$im" {
			port = f.store[prefix+".out_port"]
		}
		f.r.result.Out = append(f.r.result.Out, OutPkt{
			Data: append([]byte(nil), pv.bytes()...),
			Port: port,
		})
		return nil
	case "recirculate":
		f.r.result.Recirculate = true
		return nil
	case "im_digest":
		v, err := f.eval(s.Args[0].Expr)
		if err != nil {
			return err
		}
		f.r.result.Digests = append(f.r.result.Digests, v)
		return nil
	case "register_read", "register_write":
		return f.registerOp(s)
	case "flow_upsert", "flow_stick":
		return f.flowOp(s)
	case "push_front", "pop_front":
		return &EngineFault{Engine: "reference",
			Reason: fmt.Sprintf("%s: header stack op %s reached the interpreter (run midend.Transform first)", f.prog.Name, s.Method)}
	}
	return &EngineFault{Engine: "reference",
		Reason: fmt.Sprintf("%s: unsupported method %s", f.prog.Name, s.Method)}
}

// registerOp executes a register read or write against the persistent
// register state (the §8.2 stateful extension). Register instances are
// keyed by fully qualified path so the interpreter and the compiled
// executor agree on naming.
func (f *frame) registerOp(s *ir.Stmt) error {
	var inst *ir.Instance
	for i := range f.prog.Instances {
		if f.prog.Instances[i].Name == s.Target && f.prog.Instances[i].Extern == "register" {
			inst = &f.prog.Instances[i]
		}
	}
	if inst == nil {
		return &TableError{Table: s.Target, Reason: "unknown register in " + f.prog.Name}
	}
	fq := f.qualify(s.Target)
	cells := f.r.ip.Register(fq, inst.Size)
	idxArg := 1
	if s.Method == "register_write" {
		idxArg = 0
	}
	idx, err := f.eval(s.Args[idxArg].Expr)
	if err != nil {
		return err
	}
	if idx >= uint64(inst.Size) {
		idx %= uint64(inst.Size) // wrap, like hardware index truncation
	}
	if s.Method == "register_read" {
		return f.assign(s.Args[0].Expr, Truncate(cells[idx], inst.Width))
	}
	v, err := f.eval(s.Args[1].Expr)
	if err != nil {
		return err
	}
	cells[idx] = Truncate(v, inst.Width)
	return nil
}

// flowOp executes ft.upsert(hit, dir, srcAddr, dstAddr, proto,
// srcPort, dstPort) or ft.stick(hit, val, want, srcAddr, dstAddr,
// proto, srcPort, dstPort) against the persistent flow-table state
// (the flow-state extension). Like registers, instances are keyed by
// fully qualified path so the interpreter and the compiled executor
// agree. The wheel advances on the packet's IN_TIMESTAMP intrinsic, so
// aging follows the same virtual clock the netsim drives.
func (f *frame) flowOp(s *ir.Stmt) error {
	op := "upsert"
	if s.Method == "flow_stick" {
		op = "stick"
	}
	var inst *ir.Instance
	for i := range f.prog.Instances {
		if f.prog.Instances[i].Name == s.Target && f.prog.Instances[i].Extern == "flowtable" {
			inst = &f.prog.Instances[i]
		}
	}
	if inst == nil {
		return &FlowError{Table: s.Target, Op: op, Reason: "unknown flowtable in " + f.prog.Name}
	}
	fq := f.qualify(s.Target)
	tbl := f.r.ip.FlowTable(fq, inst.Size, inst.IdleTTL, inst.EstTTL)
	now := f.imGet("meta.IN_TIMESTAMP")
	if op == "stick" {
		var vals [6]uint64 // want, srcAddr, dstAddr, proto, srcPort, dstPort
		for i := range vals {
			v, err := f.eval(s.Args[i+2].Expr)
			if err != nil {
				return err
			}
			vals[i] = v
		}
		hit, val := tbl.Stick(flow.Key{
			SrcAddr: vals[1], DstAddr: vals[2], Proto: vals[3],
			SrcPort: vals[4], DstPort: vals[5],
		}, vals[0], now)
		if f.r.rec.on {
			f.r.rec.flow(f.r.ip.ids[fq], tbl)
		}
		if err := f.assign(s.Args[0].Expr, hit); err != nil {
			return err
		}
		return f.assign(s.Args[1].Expr, val)
	}
	var vals [6]uint64 // dir, srcAddr, dstAddr, proto, srcPort, dstPort
	for i := range vals {
		v, err := f.eval(s.Args[i+1].Expr)
		if err != nil {
			return err
		}
		vals[i] = v
	}
	hit := tbl.Upsert(flow.Key{
		SrcAddr: vals[1], DstAddr: vals[2], Proto: vals[3],
		SrcPort: vals[4], DstPort: vals[5],
	}, vals[0], now)
	if f.r.rec.on {
		f.r.rec.flow(f.r.ip.ids[fq], tbl)
	}
	return f.assign(s.Args[0].Expr, hit)
}

// viewOfArg resolves a pkt-typed argument expression to its view.
func (f *frame) viewOfArg(e *ir.Expr) (view, error) {
	if e.Kind != ir.ERef {
		return view{}, &EngineFault{Engine: "reference", Reason: "pkt argument is not a reference"}
	}
	v, ok := f.pkts[e.Ref]
	if !ok {
		return view{}, &EngineFault{Engine: "reference", Reason: "unknown pkt instance " + e.Ref}
	}
	return v, nil
}

// imPrefixOfArg resolves an im_t-typed argument to its storage prefix.
func (f *frame) imPrefixOfArg(e *ir.Expr) (string, error) {
	if e.Kind != ir.ERef {
		return "", &EngineFault{Engine: "reference", Reason: "im argument is not a reference"}
	}
	if e.Ref == "$im" || strings.HasPrefix(e.Ref, "$im.") {
		return "$im", nil
	}
	return e.Ref, nil
}

// copyIm copies the well-known im fields from one instance to another.
func (f *frame) copyIm(dst, srcPrefix string) {
	fields := []string{"out_port", "meta.IN_PORT", "meta.IN_TIMESTAMP", "meta.PKT_LEN",
		"meta.OUT_TIMESTAMP", "meta.INSTANCE_ID", "meta.QUEUE_DEPTH",
		"meta.DEQ_TIMESTAMP", "meta.ENQ_TIMESTAMP"}
	for _, fl := range fields {
		var v uint64
		if srcPrefix == "$im" {
			v = f.imGet(fl)
		} else {
			v = f.store[srcPrefix+"."+fl]
		}
		if dst == "$im" {
			f.imSet(fl, v)
		} else {
			f.store[dst+"."+fl] = v
		}
	}
}

// imBinding carries a module invocation's intrinsic-metadata view.
type imBinding struct {
	get      func(field string) uint64
	set      func(field string, v uint64)
	isGlobal bool
}

// globalIM binds a frame to the run's shared intrinsic metadata.
func (r *run) globalIM() imBinding {
	return imBinding{
		get:      func(field string) uint64 { return r.im[field] },
		set:      func(field string, v uint64) { r.im[field] = v },
		isGlobal: true,
	}
}

// runModuleFrame is runModule but returns the callee frame so the caller
// can read out-parameters.
func (r *run) runModuleFrame(prog *ir.Program, inst string, v view, args []argBinding, im imBinding) (*frame, error) {
	f := &frame{
		r: r, prog: prog, inst: inst,
		store:      make(map[string]uint64),
		valid:      make(map[string]bool),
		varbits:    make(map[string][]byte),
		pkts:       map[string]view{"$pkt": v},
		ims:        make(map[string]bool),
		imGet:      im.get,
		imSet:      im.set,
		imIsGlobal: im.isGlobal,
	}
	if r.obs != nil {
		f.obs = &frameObs{
			locs:    make(map[string]BitLoc),
			extLoc:  make(map[string]BitLoc),
			extProv: make(map[string][]int),
		}
		f.emitObs(ObsEvent{Kind: "enter"})
	}
	for _, in := range prog.Instances {
		switch in.Extern {
		case "pkt":
			f.pkts[in.Name] = view{buf: &pktBuf{}}
		case "im_t":
			f.ims[in.Name] = true
		}
	}
	for _, a := range args {
		if a.param.Dir != "out" {
			f.store[a.param.Name] = a.value
			if f.obs != nil && a.loc.OK {
				f.obs.locs[a.param.Name] = a.loc
			}
		}
	}
	if prog.Parser != nil {
		r.rec.enter(stageParse)
		ok, err := f.runParser()
		r.rec.enter(stageExec)
		if err != nil {
			return nil, err
		}
		if !ok {
			// Parser reject: drop via this invocation's im; when that is
			// the shared intrinsic metadata, the error is sticky so a
			// later module in the composition cannot overwrite the drop
			// decision — matching the monolithic program, whose single
			// parser rejects outright. A reject inside a module running
			// on a private copy (orchestration) drops only that copy.
			f.imSet("out_port", types.DropPort)
			if f.imIsGlobal {
				r.im["$perr"] = 1
				r.result.ParserReject = true
			}
			return f, nil
		}
	}
	if err := f.execStmts(prog.Apply); err != nil && err != errExit {
		return nil, err
	}
	if prog.Parser != nil || len(prog.Deparser) > 0 {
		// Deparse failures surface as *DeparseError and are counted
		// centrally, by the record's metrics reader.
		r.rec.enter(stageDeparse)
		emitted, err := f.runDeparser()
		r.rec.enter(stageExec)
		if err != nil {
			return nil, err
		}
		if r.obs != nil && v.buf == r.obs.buf {
			r.obs.splice(v.base, f.parsed, f.obs.emitProv)
		}
		v.splice(0, f.parsed, emitted)
	}
	return f, nil
}
