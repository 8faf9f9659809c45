package sim

import (
	"errors"
	"fmt"
	"maps"
	"strings"
	"sync"

	"microp4/internal/flow"
	"microp4/internal/ir"
	"microp4/internal/linker"
	"microp4/internal/types"
)

// Metadata carries a packet's intrinsic metadata into the dataplane
// (im_t, paper Fig. 6). Field names follow the meta_t enum.
type Metadata struct {
	InPort      uint64
	InTimestamp uint64
	PktLen      uint64
	// Qdepth is the QUEUE_DEPTH intrinsic: in the netsim it carries the
	// packet's queueing delay in virtual ticks, so in-band telemetry
	// derived from it is deterministic for a fixed seed.
	Qdepth uint64

	// M overrides the engine's attached metrics for this packet — the
	// per-worker telemetry shard hook. Nil uses the engine default.
	M *Metrics
	// Span, when non-nil, receives this packet's hop-level view (table
	// lookups, timings, disposition) when the engine's pass is over. Nil
	// (the default) records nothing.
	Span *HopSpan
}

// OutPkt is one output packet.
type OutPkt struct {
	Data []byte
	Port uint64
}

// ProcResult is the outcome of processing one packet.
type ProcResult struct {
	Out          []OutPkt // enqueued packets first, the final packet last (absent if dropped)
	Dropped      bool
	Recirculate  bool
	McastGroup   uint64   // nonzero when the program requested replication
	Digests      []uint64 // values sent to the control plane (im.digest)
	ParserReject bool

	// owner links a compiled-engine result to its pooled execution
	// state; Release (exec.go) recycles it. Nil for interpreter results.
	owner *execState
}

// maxParserSteps bounds parser FSM execution (defense against cyclic
// parse graphs reaching the interpreter).
const maxParserSteps = 4096

// errExit unwinds an exit statement to the current control boundary.
var errExit = errors.New("exit")

// Interp executes linked µP4-IR modules with source-level semantics.
type Interp struct {
	linked *linker.Linked
	tables *Tables
	regsMu sync.Mutex             // guards the regs and flows maps (lazy allocation)
	regs   map[string][]uint64    // register state, persistent across packets
	flows  map[string]*flow.Table // flowtable state, persistent across packets
	ids    map[string]int32       // record ids by qualified name, fixed by NewInterp; a miss is noName
	observers
}

// NewInterp returns an interpreter over a linked program sharing the
// given control-plane state.
func NewInterp(l *linker.Linked, t *Tables) *Interp { return NewInterpWithFlows(l, t, nil) }

// NewInterpWithFlows is NewInterp starting from the given flowtable
// instances by path; the interpreter copies the map and allocates any
// flowtable it lacks on first access, as NewInterp's does.
func NewInterpWithFlows(l *linker.Linked, t *Tables, flows map[string]*flow.Table) *Interp {
	ip := &Interp{linked: l, tables: t, observers: observers{bus: NewBus()},
		regs: make(map[string][]uint64), flows: make(map[string]*flow.Table), ids: make(map[string]int32)}
	maps.Copy(ip.flows, flows)
	ip.internNames(l.Main, "")
	return ip
}

// internNames gives an id to every name a record of this interpreter
// can hold: walking the instance tree from prog at inst, the tables,
// actions and extern instances by the qualified names the compiled
// engine knows them by, parser states, and the module instances.
func (ip *Interp) internNames(prog *ir.Program, inst string) {
	f := &frame{inst: inst}
	add := func(name string) { ip.ids[name] = ip.tables.syms.intern(name) }
	add(prog.Name)
	for name := range prog.Tables {
		add(f.qualify(name))
	}
	for name := range prog.Actions {
		add(f.qualify(name))
	}
	if prog.Parser != nil {
		for _, st := range prog.Parser.States {
			add(prog.Name + "." + st.Name)
		}
	}
	for _, in := range prog.Instances {
		add(f.qualify(in.Name))
		if callee := ip.linked.Modules[in.Module]; callee != nil {
			ip.internNames(callee, f.qualify(in.Name))
		}
	}
}

// Register returns a register array's cells (allocated on first access),
// keyed by fully qualified instance path. The map itself is safe for
// concurrent Process calls; cell reads and writes are word-sized and
// unsynchronized, like the hardware they model.
func (ip *Interp) Register(path string, size int) []uint64 {
	ip.regsMu.Lock()
	defer ip.regsMu.Unlock()
	r, ok := ip.regs[path]
	if !ok || len(r) < size {
		nr := make([]uint64, size)
		copy(nr, r)
		ip.regs[path] = nr
		r = nr
	}
	return r
}

// FlowTable returns a flowtable instance's state (allocated on first
// access), keyed by fully qualified instance path like Register.
func (ip *Interp) FlowTable(path string, size int, idleTTL, estTTL uint64) *flow.Table {
	ip.regsMu.Lock()
	defer ip.regsMu.Unlock()
	t, ok := ip.flows[path]
	if !ok {
		t = flow.New(size, idleTTL, estTTL)
		ip.flows[path] = t
	}
	return t
}

// FlowTables returns the live flowtable instances by fully qualified
// path. Tables appear after the first packet touches them.
func (ip *Interp) FlowTables() map[string]*flow.Table {
	ip.regsMu.Lock()
	defer ip.regsMu.Unlock()
	out := make(map[string]*flow.Table, len(ip.flows))
	for k, v := range ip.flows {
		out[k] = v
	}
	return out
}

// ResetFlows clears every flowtable. The equivalence harness calls this
// before each witness run so all engines start from identical (empty)
// flow state.
func (ip *Interp) ResetFlows() {
	ip.regsMu.Lock()
	defer ip.regsMu.Unlock()
	for _, t := range ip.flows {
		t.Reset()
	}
}

// pktBuf is a mutable packet buffer shared across module frames.
type pktBuf struct {
	data []byte
}

// view is one module's window into a packet buffer.
type view struct {
	buf  *pktBuf
	base int
}

func (v view) bytes() []byte { return v.buf.data[min(v.base, len(v.buf.data)):] }

func min(a, b int) int {
	if a < b {
		return a
	}
	return b
}

// splice replaces the region [v.base+from, v.base+from+oldLen) with repl.
func (v view) splice(from, oldLen int, repl []byte) {
	start := v.base + from
	end := start + oldLen
	if start > len(v.buf.data) {
		start = len(v.buf.data)
	}
	if end > len(v.buf.data) {
		end = len(v.buf.data)
	}
	out := make([]byte, 0, len(v.buf.data)-(end-start)+len(repl))
	out = append(out, v.buf.data[:start]...)
	out = append(out, repl...)
	out = append(out, v.buf.data[end:]...)
	v.buf.data = out
}

// run is the shared mutable state of one Process call.
type run struct {
	ip     *Interp
	im     map[string]uint64 // shared intrinsic metadata ("out_port", "meta.IN_PORT", ...)
	result *ProcResult
	obs    *runObs // non-nil only under ObserveProcess
	rec    record  // what this packet did, for whoever watches (record.go)
}

// frame is one module invocation.
type frame struct {
	r       *run
	prog    *ir.Program
	inst    string // instance path for table naming ("" = main)
	store   map[string]uint64
	valid   map[string]bool
	varbits map[string][]byte // varbit payloads by header instance path
	pkts    map[string]view   // "$pkt" plus local pkt instances
	ims     map[string]bool   // names of local im_t instances (stored in store)
	parsed  int               // bytes consumed by this module's parser
	mcGroup uint64
	// im indirection: a module's "$im" may be bound to the shared
	// intrinsic metadata or to a caller's local im_t copy (e.g. the
	// test copy's metadata in Fig. 13).
	imGet      func(field string) uint64
	imSet      func(field string, v uint64)
	imIsGlobal bool
	obs        *frameObs // non-nil only under ObserveProcess
}

// Process runs the linked program on one packet. It never panics:
// interpreter panics are recovered into an *EngineFault, and every
// failure it returns belongs to the typed taxonomy (errors.go).
func (ip *Interp) Process(pkt []byte, meta Metadata) (*ProcResult, error) {
	return ip.process(pkt, meta, nil)
}

func (ip *Interp) process(pkt []byte, meta Metadata, obs *runObs) (res *ProcResult, err error) {
	r := &run{
		ip: ip,
		im: map[string]uint64{
			"out_port":           0,
			"meta.IN_PORT":       meta.InPort,
			"meta.IN_TIMESTAMP":  meta.InTimestamp,
			"meta.PKT_LEN":       uint64(len(pkt)),
			"meta.OUT_TIMESTAMP": 0,
			"meta.INSTANCE_ID":   0,
			"meta.QUEUE_DEPTH":   meta.Qdepth,
			"meta.DEQ_TIMESTAMP": 0,
			"meta.ENQ_TIMESTAMP": 0,
		},
		result: &ProcResult{},
		obs:    obs,
	}
	r.rec.begin(&ip.observers, ip.tables, meta, len(pkt))
	defer func() { r.rec.finish(res, err) }()
	defer recoverFault("reference", &res, &err)
	buf := &pktBuf{data: append([]byte(nil), pkt...)}
	if obs != nil {
		obs.buf = buf
		obs.prov = make([]int, len(pkt))
		for i := range obs.prov {
			obs.prov[i] = i
		}
	}
	if _, err := r.runModuleFrame(ip.linked.Main, "", view{buf: buf}, nil, r.globalIM()); err != nil {
		return nil, err
	}
	res = r.result
	switch {
	case ip.linked.Main.Interface == "Orchestration":
		// An orchestration pipeline's outputs come solely from its
		// out_buf enqueues (§4.1); there is no implicit final packet.
		// Enqueues addressed to the drop port are filtered here, in the
		// architecture.
		kept := res.Out[:0]
		for _, o := range res.Out {
			if o.Port != types.DropPort {
				kept = append(kept, o)
			}
		}
		res.Out = kept
		if r.im["$perr"] != 0 {
			res.Dropped = true
			res.Out = nil
		}
	case r.im["out_port"] == types.DropPort || r.im["$perr"] != 0:
		res.Dropped = true
	default:
		res.Out = append(res.Out, OutPkt{Data: append([]byte(nil), buf.data...), Port: r.im["out_port"]})
	}
	return res, nil
}

// argBinding passes a module call's data arguments.
type argBinding struct {
	param ir.ModParam
	value uint64 // in/inout input value
	loc   BitLoc // input-packet provenance of value (observation mode)
}

// ----------------------------------------------------------------------------
// Parser

func (f *frame) runParser() (accepted bool, err error) {
	state := f.prog.Parser.State("start")
	if state == nil {
		return false, &ParseError{Program: f.prog.Name, Reason: "no start state"}
	}
	for steps := 0; ; steps++ {
		if steps > maxParserSteps {
			return false, &ParseError{Program: f.prog.Name, State: state.Name,
				Reason: fmt.Sprintf("did not terminate within %d steps", maxParserSteps)}
		}
		if f.r.rec.bus != nil {
			f.r.rec.mark(stepState, f.r.ip.ids[f.prog.Name+"."+state.Name], f.r.ip.ids[f.inst])
		}
		if f.obs != nil {
			f.emitObs(ObsEvent{Kind: "state", State: state.Name})
		}
		for _, s := range state.Stmts {
			if s.Kind == ir.SExtract {
				ok, err := f.extract(s)
				if err != nil {
					return false, err
				}
				if !ok {
					if f.obs != nil {
						f.emitObs(ObsEvent{Kind: "reject", State: state.Name, Reason: "short"})
					}
					return false, nil // truncated packet rejects
				}
				continue
			}
			if err := f.execStmt(s); err != nil {
				return false, err
			}
		}
		target, err := f.transition(state)
		if err != nil {
			return false, err
		}
		switch target {
		case "accept":
			if f.obs != nil {
				f.emitObs(ObsEvent{Kind: "accept"})
			}
			return true, nil
		case "reject":
			if f.obs != nil {
				reason := "explicit"
				if f.obs.selNoMatch {
					reason = "no-match"
				}
				f.emitObs(ObsEvent{Kind: "reject", State: state.Name, Reason: reason})
			}
			return false, nil
		}
		state = f.prog.Parser.State(target)
		if state == nil {
			return false, &ParseError{Program: f.prog.Name, Reason: "transition to unknown state " + target}
		}
	}
}

func (f *frame) transition(st *ir.State) (string, error) {
	tr := st.Trans
	if tr == nil {
		return "reject", nil
	}
	if tr.Kind == "direct" {
		return tr.Target, nil
	}
	vals := make([]uint64, len(tr.Exprs))
	for i, e := range tr.Exprs {
		v, err := f.eval(e)
		if err != nil {
			return "", err
		}
		vals[i] = v
	}
	taken, target := -1, "reject"
	for i, c := range tr.Cases {
		if c.Default {
			taken, target = i, c.Target
			break
		}
		match := true
		for j := range c.Values {
			if c.DontCare[j] {
				continue
			}
			w := tr.Exprs[j].Width
			v := Truncate(vals[j], w)
			if c.HasMask[j] {
				if v&c.Masks[j] != c.Values[j]&c.Masks[j] {
					match = false
					break
				}
			} else if v != c.Values[j] {
				match = false
				break
			}
		}
		if match {
			taken, target = i, c.Target
			break
		}
	}
	if f.obs != nil {
		locs := make([]BitLoc, len(tr.Exprs))
		for i, e := range tr.Exprs {
			locs[i] = f.resolveLoc(e)
		}
		f.obs.selNoMatch = taken < 0
		f.emitObs(ObsEvent{Kind: "select", State: st.Name, Trans: tr,
			SelVals: append([]uint64(nil), vals...), SelLocs: locs, Taken: taken})
	}
	return target, nil
}

// extract reads a header from the packet view at the current cursor.
// Returns false if the packet is too short.
func (f *frame) extract(s *ir.Stmt) (bool, error) {
	ht := f.headerType(s.Hdr)
	if ht == nil {
		return false, &ParseError{Program: f.prog.Name, Reason: "extract of unknown header " + s.Hdr}
	}
	v := f.pkts["$pkt"]
	data := v.bytes()
	fixedBits := 0
	for _, fl := range ht.Fields {
		if !fl.Varbit {
			fixedBits += fl.Width
		}
	}
	varBytes := 0
	if ht.HasVarbit {
		if s.VarSize == nil {
			return false, &ParseError{Program: f.prog.Name, Reason: "extract of varbit header " + s.Hdr + " without a size"}
		}
		bits, err := f.eval(s.VarSize)
		if err != nil {
			return false, err
		}
		if bits%8 != 0 {
			return false, &ParseError{Program: f.prog.Name,
				Reason: fmt.Sprintf("varbit size %d is not a whole number of bytes", bits)}
		}
		varBytes = int(bits / 8)
		if varBytes*8 > ht.BitWidth-fixedBits {
			return false, nil // oversized varbit rejects
		}
	}
	size := fixedBits/8 + varBytes
	if f.parsed+size > len(data) {
		return false, nil
	}
	startParsed := f.parsed
	off := f.parsed * 8
	varOff := -1
	for _, fl := range ht.Fields {
		if fl.Varbit {
			varOff = off
			off += varBytes * 8
			continue
		}
		f.store[s.Hdr+"."+fl.Name] = ReadBits(data, off, fl.Width)
		off += fl.Width
	}
	if varOff >= 0 {
		f.varbits[s.Hdr] = append([]byte(nil), data[varOff/8:varOff/8+varBytes]...)
	}
	f.valid[s.Hdr] = true
	f.parsed += size
	if f.obs != nil {
		f.observeExtract(s.Hdr, ht, v, startParsed, size, varBytes)
	}
	return true, nil
}

// ----------------------------------------------------------------------------
// Deparser

func (f *frame) runDeparser() ([]byte, error) {
	var out []byte
	var walk func(ss []*ir.Stmt) error
	walk = func(ss []*ir.Stmt) error {
		for _, s := range ss {
			switch s.Kind {
			case ir.SEmit:
				out = append(out, f.emitBytes(s.Hdr)...)
			case ir.SIf:
				cond, err := f.eval(s.Cond)
				if err != nil {
					return err
				}
				if cond != 0 {
					if err := walk(s.Then); err != nil {
						return err
					}
				} else if err := walk(s.Else); err != nil {
					return err
				}
			default:
				return &DeparseError{Program: f.prog.Name, Reason: "unsupported deparser statement " + s.Kind}
			}
		}
		return nil
	}
	if err := walk(f.prog.Deparser); err != nil {
		return nil, err
	}
	return out, nil
}

func (f *frame) emitBytes(hdr string) []byte {
	if !f.valid[hdr] {
		return nil
	}
	ht := f.headerType(hdr)
	if ht == nil {
		return nil
	}
	if f.obs != nil {
		vb := f.varbits[hdr]
		fixed := 0
		for _, fl := range ht.Fields {
			if !fl.Varbit {
				fixed += fl.Width
			}
		}
		f.obs.emitProv = append(f.obs.emitProv, f.emitProvOf(hdr, ht, fixed/8+len(vb), vb)...)
	}
	vb := f.varbits[hdr]
	fixedBits := 0
	for _, fl := range ht.Fields {
		if !fl.Varbit {
			fixedBits += fl.Width
		}
	}
	out := make([]byte, fixedBits/8+len(vb))
	off := 0
	for _, fl := range ht.Fields {
		if fl.Varbit {
			copy(out[off/8:], vb)
			off += len(vb) * 8
			continue
		}
		WriteBits(out, off, fl.Width, f.store[hdr+"."+fl.Name])
		off += fl.Width
	}
	return out
}

func (f *frame) headerType(path string) *ir.HeaderType {
	d := f.prog.DeclByPath(path)
	if d == nil {
		return nil
	}
	return f.prog.Headers[d.TypeName]
}

// ----------------------------------------------------------------------------
// Expressions

func (f *frame) eval(e *ir.Expr) (uint64, error) {
	switch e.Kind {
	case ir.EConst:
		return e.Value, nil
	case ir.ERef:
		return f.load(e.Ref), nil
	case ir.EIsValid:
		if f.valid[e.Ref] {
			return 1, nil
		}
		return 0, nil
	case ir.EUn:
		x, err := f.eval(e.X)
		if err != nil {
			return 0, err
		}
		switch e.Op {
		case "!":
			if x == 0 {
				return 1, nil
			}
			return 0, nil
		case "~":
			return Truncate(^x, e.Width), nil
		case "-":
			return Truncate(-x, e.Width), nil
		case "cast":
			return Truncate(x, e.Width), nil
		}
		return 0, &EngineFault{Engine: "reference", Reason: fmt.Sprintf("unknown unary %q", e.Op)}
	case ir.EBin:
		x, err := f.eval(e.X)
		if err != nil {
			return 0, err
		}
		y, err := f.eval(e.Y)
		if err != nil {
			return 0, err
		}
		if e.Op == "++" {
			return Truncate(Truncate(x, e.X.Width)<<uint(e.Y.Width)|Truncate(y, e.Y.Width), e.Width), nil
		}
		w := e.Width
		if e.Bool {
			w = e.X.Width
		}
		return evalBinary(e.Op, Truncate(x, orW(e.X.Width, w)), Truncate(y, orW(e.Y.Width, w)), w)
	case ir.ESlice:
		x, err := f.eval(e.X)
		if err != nil {
			return 0, err
		}
		return x >> uint(e.Lo) & MaskW(e.Hi-e.Lo+1), nil
	}
	return 0, &EngineFault{Engine: "reference", Reason: "cannot evaluate " + e.Kind + " expression"}
}

func orW(a, b int) int {
	if a > 0 {
		return a
	}
	return b
}

// load reads a storage path; "$im.*" routes to the shared metadata.
func (f *frame) load(ref string) uint64 {
	if strings.HasPrefix(ref, "$im.") {
		return f.imGet(ref[len("$im."):])
	}
	return f.store[ref]
}

func (f *frame) storeRef(ref string, v uint64) {
	if strings.HasPrefix(ref, "$im.") {
		f.imSet(ref[len("$im."):], v)
		return
	}
	if f.obs != nil {
		delete(f.obs.locs, ref) // provenance is re-established by SAssign when traceable
	}
	f.store[ref] = v
}

// assign writes v to an lvalue (plain ref or bit-slice of a ref).
func (f *frame) assign(lhs *ir.Expr, v uint64) error {
	switch lhs.Kind {
	case ir.ERef:
		f.storeRef(lhs.Ref, Truncate(v, orW(lhs.Width, 64)))
		return nil
	case ir.ESlice:
		if lhs.X.Kind != ir.ERef {
			return &EngineFault{Engine: "reference", Reason: "assignment to slice of non-reference"}
		}
		cur := f.load(lhs.X.Ref)
		m := MaskW(lhs.Hi-lhs.Lo+1) << uint(lhs.Lo)
		f.storeRef(lhs.X.Ref, cur&^m|(v<<uint(lhs.Lo))&m)
		return nil
	}
	return &EngineFault{Engine: "reference", Reason: fmt.Sprintf("assignment to unsupported lvalue %s", lhs)}
}
