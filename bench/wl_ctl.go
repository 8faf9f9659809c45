package main

import (
	"fmt"
	"runtime"
	"time"

	"microp4"
	"microp4/internal/ctrlplane"
	"microp4/internal/lib"
	"microp4/internal/netsim"
	"microp4/internal/obs"
)

// ctl_ops: the control side. Three phases share every round, each on a
// fresh topology built off the clock:
//
//	A  closed-loop 2PC transactions over lossy control links on the
//	   three-hop line, each followed by a probe that must cross the line
//	   via the rule just committed;
//	B  P9 generation swaps with 2048 established flows: StageGeneration
//	   off the clock, then CutOver + the first return-path packet;
//	C  active/standby P9 pairs: learn 1024 flows while the Replicator
//	   syncs them over the same lossy link model, kill the active, then
//	   Promote + the first established-flow return packet on the standby.
//
// The packet engine does little here; codec, dedup, retry/backoff, 2PC
// and snapshot/restore do the work.

const (
	ctrlPort     = 9
	syncPort     = 7
	ctlRoutes    = 4096 // distinct /24s phase A can commit per round
	cutoverFlows = 2048
	syncFlows    = 1024

	// Shares of a round's length given to each phase.
	shareA = 0.4
	shareB = 0.3
	shareC = 0.3

	// ctlAttempts raises the client's per-request send budget from its
	// default of 8: at 10 % drop each way a request fails all 8 tries
	// about twice in a million, which over the ~10^5 requests of a run
	// would abort a transaction every few runs. The workload measures
	// retries, not give-ups.
	ctlAttempts = 16
)

// lossy is the control-link fault model of phases A and C.
var lossy = netsim.FaultModel{Drop: 0.10, Duplicate: 0.05, Reorder: 0.05}

// ctlPrograms are the dataplanes ctl_ops needs, compiled once per
// set-up.
type ctlPrograms struct {
	p4, p9, p9v2 *microp4.Dataplane
}

func buildCtlPrograms(sp *spans) (*ctlPrograms, error) {
	var c ctlPrograms
	var err error
	if c.p4, err = buildProgram(sp, "P4", ""); err != nil {
		return nil, err
	}
	if c.p9, err = buildProgram(sp, "P9", ""); err != nil {
		return nil, err
	}
	if c.p9v2, err = buildProgram(sp, "P9", p9v2File); err != nil {
		return nil, err
	}
	return &c, nil
}

// newMetrics returns a live ctrlplane.Metrics. Config.Metrics is
// documented optional, but Client.onTimeout dereferences it, so a nil
// one panics on the first retry; every config here gets a real one.
func newMetrics() *ctrlplane.Metrics { return ctrlplane.NewMetrics(obs.NewRegistry()) }

// txnLine is phase A's system: the three-hop line with an agent on
// every switch and a controller wired to each over control links.
type txnLine struct {
	n       *netsim.Network
	client  *ctrlplane.Client
	metrics *ctrlplane.Metrics
	routes  []route
	next    int
	seen    int
}

func newTxnLine(sp *spans, dp *microp4.Dataplane, engine microp4.Engine, seed uint64, ctl netsim.FaultModel, routes []route) (*txnLine, error) {
	sws, err := newLineSwitches(sp, dp, engine)
	if err != nil {
		return nil, err
	}
	defer sp.begin("netsim.new")()
	m := newMetrics()
	var hops [3]netsim.Processor
	for i, sw := range sws {
		hops[i] = ctrlplane.NewAgent(sw, ctrlplane.AgentConfig{Name: lineNodes[i], CtrlPort: ctrlPort, Metrics: m})
	}
	n, err := newLine(seed, hops)
	if err != nil {
		return nil, err
	}
	client, err := ctrlplane.NewClient(n, "ctrl", ctrlplane.Config{Seed: seed, MaxAttempts: ctlAttempts, Metrics: m})
	if err != nil {
		return nil, err
	}
	for i, name := range lineNodes {
		local := uint64(i + 1)
		if err := client.AddPeer(name, local); err != nil {
			return nil, err
		}
		if err := n.Connect("ctrl", local, name, ctrlPort, ctl); err != nil {
			return nil, err
		}
	}
	return &txnLine{n: n, client: client, metrics: m, routes: routes}, nil
}

// commit runs one transaction — the next fresh /24 added on all three
// switches — to completion and reports whether it committed cleanly.
func (l *txnLine) commit(sp *spans) (rt route, ok bool) {
	rt = l.routes[l.next%len(l.routes)]
	l.next++
	ops := make([]ctrlplane.TxnOp, 0, len(lineNodes))
	for _, name := range lineNodes {
		ops = append(ops, ctrlplane.TxnOp{Peer: name, Op: ctrlplane.AddEntry(v4Table,
			[]ctrlplane.CtrlKey{ctrlplane.LPM(uint64(rt.Prefix), 24)}, v4Action, lib.NhA)})
	}
	var res *ctrlplane.TxnResult
	id := sp.open("ctrlplane.transaction")
	err := l.client.Transaction(ops, func(r ctrlplane.TxnResult) { res = &r })
	sp.close(id)
	if err != nil {
		return rt, false
	}
	id = sp.open("netsim.run")
	_, err = l.n.Run(0)
	sp.close(id)
	return rt, err == nil && res != nil && res.Err() == nil
}

// probe sends one packet for rt through the line and returns what left
// s3 since the last probe.
func (l *txnLine) probe(sp *spans, rt route) ([]byte, []netsim.Delivery) {
	p := probeFor(rt)
	id := sp.open("probe")
	defer sp.close(id)
	if l.n.Inject("s1", 0, p) != nil {
		return p, nil
	}
	if _, err := l.n.Run(0); err != nil {
		return p, nil
	}
	out := l.n.Egress("s3")[l.seen:]
	l.seen += len(out)
	return p, out
}

func probeFor(rt route) []byte {
	return p4Probe(rt.Prefix | firstMixHost)
}

// cycle is one timed phase-A iteration: Transaction call to probe
// egress at s3.
func (l *txnLine) cycle(sp *spans) (d time.Duration, ok bool) {
	t0 := time.Now()
	rt, committed := l.commit(sp)
	p, out := l.probe(sp, rt)
	d = time.Since(t0)
	return d, committed && len(out) == 1 && crossedLine(out[0], p)
}

// cutoverSys is phase B's system: a P9 switch with established flows
// and the two program versions to swap between.
type cutoverSys struct {
	sw     *microp4.Switch
	progs  *ctlPrograms
	base   uint32
	cycles int
}

func newP9Switch(sp *spans, dp *microp4.Dataplane, engine microp4.Engine) (*microp4.Switch, error) {
	end := sp.begin("switch.new")
	sw := dp.NewSwitchWith(engine)
	end()
	defer sp.begin("rules.install")()
	return sw, installStdRules(sw, "P9")
}

// establish learns flows [0,n) on a P9 switch: forward packet in on
// PortA, return packet in on PortB. Every packet must be forwarded.
func establish(sw *microp4.Switch, base uint32, n int) error {
	for i := 0; i < n; i++ {
		for _, hop := range []struct {
			p    []byte
			port uint64
		}{{p9Fwd(base, i), lib.PortA}, {p9Rev(base, i), lib.PortB}} {
			if outs, err := sw.Process(hop.p, hop.port); err != nil || len(outs) != 1 {
				return fmt.Errorf("establishing flow %d: outputs %v, err %v", i, ports(outs), err)
			}
		}
	}
	return nil
}

func newCutoverSys(sp *spans, progs *ctlPrograms, engine microp4.Engine, base uint32, flows int) (*cutoverSys, error) {
	sw, err := newP9Switch(sp, progs.p9, engine)
	if err != nil {
		return nil, err
	}
	return &cutoverSys{sw: sw, progs: progs, base: base}, establish(sw, base, flows)
}

// cycle stages the other program version off the clock, then times
// CutOver plus the first return-path packet on the new generation,
// which the carried flow state must let through.
func (c *cutoverSys) cycle(sp *spans, flows int) (d time.Duration, outs []microp4.Output, ok bool) {
	next := c.progs.p9v2
	if c.cycles%2 == 1 {
		next = c.progs.p9
	}
	p := p9Rev(c.base, c.cycles%flows)
	c.cycles++
	id := sp.open("switch.stage")
	_, err := c.sw.StageGeneration(next)
	sp.close(id)
	if err != nil {
		return 0, nil, false
	}
	id = sp.open("switch.cutover")
	t0 := time.Now()
	_, cerr := c.sw.CutOver()
	outs, perr := c.sw.Process(p, lib.PortB)
	d = time.Since(t0)
	sp.close(id)
	return d, outs, cerr == nil && perr == nil && matches(outs, lib.PortA)
}

// haPair is phase C's system: an active P9 switch replicating its flow
// table to a warm standby over a lossy sync link.
type haPair struct {
	n    *netsim.Network
	act  *ctrlplane.Replicator
	sby  *ctrlplane.StandbyAgent
	base uint32
}

func newHAPair(sp *spans, dp *microp4.Dataplane, engine microp4.Engine, seed uint64, link netsim.FaultModel, base uint32) (*haPair, error) {
	actSw, err := newP9Switch(sp, dp, engine)
	if err != nil {
		return nil, err
	}
	end := sp.begin("switch.new")
	sbySw := dp.NewSwitchWith(engine)
	end()
	defer sp.begin("netsim.new")()
	n := netsim.New(seed)
	m := newMetrics()
	act := ctrlplane.NewReplicator(n, actSw, ctrlplane.ReplicaConfig{Name: "act", SyncPort: syncPort, Seed: seed, Metrics: m})
	act.Bootstrap(sbySw)
	sby := ctrlplane.NewStandbyAgent(n, sbySw, ctrlplane.ReplicaConfig{Name: "sby", SyncPort: syncPort, Metrics: m})
	if err := n.AddSwitch("act", act); err != nil {
		return nil, err
	}
	if err := n.AddSwitch("sby", sby); err != nil {
		return nil, err
	}
	if err := n.Connect("act", syncPort, "sby", syncPort, link); err != nil {
		return nil, err
	}
	return &haPair{n: n, act: act, sby: sby, base: base}, nil
}

// sync learns flows on the active through the network and runs it until
// quiet, timed: the Replicator batches, retransmits and resyncs until
// the standby has acknowledged everything.
func (h *haPair) sync(sp *spans, flows int) (d time.Duration, ok bool) {
	id := sp.open("replica.sync")
	defer sp.close(id)
	t0 := time.Now()
	h.act.Start()
	ok = true
	for i := 0; i < flows; i++ {
		if h.n.Inject("act", lib.PortA, p9Fwd(h.base, i)) != nil || h.n.Inject("act", lib.PortB, p9Rev(h.base, i)) != nil {
			ok = false
		}
	}
	st, err := h.n.Run(0)
	// A replicator whose acks were lost three rounds running parks with
	// entries still unacknowledged, and only dataplane traffic re-arms
	// it. The number is time until everything is acknowledged, so keep
	// the first flow's traffic coming until the lag is gone.
	for tries := 0; err == nil && h.act.Lag() > 0 && tries < 16; tries++ {
		if h.n.Inject("act", lib.PortA, p9Fwd(h.base, 0)) != nil {
			ok = false
		}
		st, err = h.n.Run(0)
	}
	d = time.Since(t0)
	return d, ok && err == nil && st.ProcErrors == 0 && h.act.Lag() == 0
}

// failover kills the active, then times Promote plus the first
// established-flow return packet out of the standby. Detection delay is
// virtual time and not part of the number.
func (h *haPair) failover(sp *spans) (d time.Duration, outs []microp4.Output, ok bool) {
	h.act.Stop()
	if h.n.SetLinkDown("act", syncPort, true) != nil {
		return 0, nil, false
	}
	p := p9Rev(h.base, 0)
	id := sp.open("standby.promote")
	t0 := time.Now()
	h.sby.Promote()
	outs, err := h.sby.Switch().Process(p, lib.PortB)
	d = time.Since(t0)
	sp.close(id)
	return d, outs, err == nil && matches(outs, lib.PortA)
}

// lost counts the synced flows whose return packet the promoted
// standby drops.
func (h *haPair) lost(flows int) (lost int64) {
	sw := h.sby.Switch()
	for i := 0; i < flows; i++ {
		if outs, err := sw.Process(p9Rev(h.base, i), lib.PortB); err != nil || !matches(outs, lib.PortA) {
			lost++
		}
	}
	return lost
}

type ctlEnv struct {
	seed   uint64
	routes []route
	base   uint32
	fresh  uint64 // topologies built so far: each gets its own network seed
}

func newCtlEnv(seed uint64) *ctlEnv {
	r := newRNG(seed, "ctl")
	return &ctlEnv{seed: seed, routes: routeSet(seed, ctlRoutes), base: uint32(r.next()) & 0x00FF0000}
}

func (e *ctlEnv) netSeed() uint64 {
	e.fresh++
	return e.seed*0x9E3779B97F4A7C15 + e.fresh
}

func (e *ctlEnv) newLine(sp *spans, p *ctlPrograms) (*txnLine, error) {
	return newTxnLine(sp, p.p4, microp4.EngineCompiled, e.netSeed(), lossy, e.routes)
}

func (e *ctlEnv) newCutover(sp *spans, p *ctlPrograms) (*cutoverSys, error) {
	return newCutoverSys(sp, p, microp4.EngineCompiled, e.base, cutoverFlows)
}

func (e *ctlEnv) newPair(sp *spans, p *ctlPrograms) (*haPair, error) {
	return newHAPair(sp, p.p9, microp4.EngineCompiled, e.netSeed(), lossy, e.base)
}

// setup is one full ctl_ops set-up: the three programs compiled, and
// one topology of each phase built (every round builds its own again,
// off the clock, so only the programs are kept).
func (e *ctlEnv) setup(sp *spans) (*ctlPrograms, error) {
	progs, err := buildCtlPrograms(sp)
	if err != nil {
		return nil, err
	}
	if _, err = e.newLine(sp, progs); err != nil {
		return nil, err
	}
	if _, err = e.newCutover(sp, progs); err != nil {
		return nil, err
	}
	if _, err = e.newPair(sp, progs); err != nil {
		return nil, err
	}
	return progs, nil
}

// ctlRec accumulates the three phases' measurements.
type ctlRec struct {
	commit, cutover, failover, syncNs timing
	txnRates, allocs                  []float64
	ops                               oracleCount // control operations attempted and failed
}

func (c *ctlRec) startRound() {
	c.commit.startRound()
	c.cutover.startRound()
	c.failover.startRound()
	c.syncNs.startRound()
}

func (c *ctlRec) op(ok bool, what string) {
	c.ops.Attempted++
	if !ok {
		c.ops.fail("%s failed (cycle %d)", what, c.ops.Attempted)
	}
}

// round runs the three phases once, each for its share of dur on a
// fresh topology. rec is nil for the warm-up round.
func (e *ctlEnv) round(sp *spans, progs *ctlPrograms, dur time.Duration, rec *ctlRec) error {
	if rec == nil {
		rec = &ctlRec{}
	}
	rec.startRound()
	slice := func(share float64) time.Duration { return time.Duration(float64(dur) * share) }

	line, err := e.newLine(sp, progs)
	if err != nil {
		return err
	}
	var ms0, ms1 runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&ms0)
	committed := 0
	start := time.Now()
	for time.Since(start) < slice(shareA) && line.next < len(line.routes) {
		d, ok := line.cycle(sp)
		rec.commit.add(float64(d))
		rec.op(ok, "transaction or its probe")
		if ok {
			committed++
		}
	}
	elapsed := time.Since(start)
	runtime.ReadMemStats(&ms1)
	rec.txnRates = append(rec.txnRates, float64(committed)/elapsed.Seconds())
	rec.allocs = append(rec.allocs, float64(ms1.Mallocs-ms0.Mallocs)/float64(line.next))

	cut, err := e.newCutover(sp, progs)
	if err != nil {
		return err
	}
	for start := time.Now(); time.Since(start) < slice(shareB); {
		d, _, ok := cut.cycle(sp, cutoverFlows)
		rec.cutover.add(float64(d))
		rec.op(ok, "cutover or its return packet")
	}

	for start := time.Now(); time.Since(start) < slice(shareC); {
		pair, err := e.newPair(sp, progs)
		if err != nil {
			return err
		}
		d, ok := pair.sync(sp, syncFlows)
		rec.syncNs.add(float64(d))
		rec.op(ok, "flow sync to quiescence")
		d, _, ok = pair.failover(sp)
		rec.failover.add(float64(d))
		rec.op(ok, "failover first packet")
		rec.ops.Attempted += syncFlows
		if lost := pair.lost(syncFlows); lost > 0 {
			rec.ops.failN(lost, "promoted standby dropped %d of %d synced flows", lost, syncFlows)
		}
	}
	return nil
}

func runCtlOps(w *workload, cfg *config) (*result, error) {
	res := newResult(w.def.Name)
	sp := cfg.Spans
	env := newCtlEnv(cfg.Seed)

	progs, setupS, err := timedSetups(w, cfg, func() (*ctlPrograms, error) { return env.setup(sp) })
	if err != nil {
		return nil, err
	}
	res.set("setup_s", median(setupS), len(setupS), setupS)
	if err := res.verify(cfg, func() (oracleCount, error) { return verifyCtlOps(cfg, progs) }); err != nil {
		return nil, err
	}

	if err := env.round(nil, progs, cfg.RoundDur, nil); err != nil {
		return nil, err
	}
	rec := &ctlRec{}
	for r := 0; r < cfg.Rounds; r++ {
		sp.setRound(r)
		id := sp.open("round")
		err := env.round(sp, progs, cfg.RoundDur, rec)
		sp.close(id)
		if err != nil {
			return nil, err
		}
	}
	sp.setRound(-1)
	res.Attempted += rec.ops.Attempted
	res.Failed += rec.ops.Failed
	if rec.ops.First != "" {
		cfg.logf("%s: %s", w.def.Name, rec.ops.First)
	}

	commit, cut, fo := rec.commit.summarize(), rec.cutover.summarize(), rec.failover.summarize()
	res.set("txn_per_s", median(rec.txnRates), len(rec.txnRates), rec.txnRates)
	res.set("commit_visible_us_p50", commit.P50/1e3, commit.N, scale(commit.RoundP50, 1e-3))
	res.set("cutover_stall_us_p50", cut.P50/1e3, cut.N, scale(cut.RoundP50, 1e-3))
	res.set("cutover_stall_us_p90", cut.P90/1e3, cut.N, scale(cut.RoundP90, 1e-3))
	res.set("failover_first_pkt_us_p50", fo.P50/1e3, fo.N, scale(fo.RoundP50, 1e-3))
	// The median pair's rate, and each round's, from the sync times.
	sy := rec.syncNs.summarize()
	roundRates := make([]float64, len(sy.RoundP50))
	for i, ns := range sy.RoundP50 {
		roundRates[i] = syncFlows * 1e9 / ns
	}
	res.set("sync_flows_per_s", syncFlows*1e9/sy.P50, sy.N, roundRates)
	res.set("fail_ratio", res.failRatio(), int(res.Attempted), nil)

	// Phase A's p90 backs the driver-contract view (see contractMetrics).
	res.Aux["commit_visible_us_p90"] = metricValue{Value: commit.P90 / 1e3, Unit: "us", N: commit.N, Samples: scale(commit.RoundP90, 1e-3)}
	res.Aux["allocs_per_txn"] = metricValue{Value: median(rec.allocs), Unit: "allocs", N: len(rec.allocs), Samples: rec.allocs}
	return res, nil
}

// verifyCtlOps is ctl_ops' oracle pass: a short run of every phase on
// the compiled engine and on a reference-interpreter twin, from the
// same seeds, comparing every probe and return packet byte for byte.
func verifyCtlOps(cfg *config, progs *ctlPrograms) (oracleCount, error) {
	const (
		txns     = 12
		cutovers = 8
		flows    = 64
	)
	env := newCtlEnv(cfg.Seed)
	o := &oracle{tamper: cfg.tamper}
	engines := []microp4.Engine{microp4.EngineCompiled, microp4.EngineReference}

	var lines [2]*txnLine
	for k, eng := range engines {
		l, err := newTxnLine(nil, progs.p4, eng, cfg.Seed, lossy, env.routes)
		if err != nil {
			return oracleCount{}, err
		}
		lines[k] = l
	}
	for i := 0; i < txns; i++ {
		var outs [2][]microp4.Output
		okAll := true
		for k, l := range lines {
			rt, committed := l.commit(nil)
			p, out := l.probe(nil, rt)
			okAll = okAll && committed && len(out) == 1 && crossedLine(out[0], p)
			for _, d := range out {
				outs[k] = append(outs[k], microp4.Output{Port: d.Port, Data: d.Data})
			}
		}
		before := o.Failed
		o.same("txn-probe", i, outs[0], nil, outs[1], nil)
		if o.Failed == before && !okAll {
			o.fail("transaction %d: aborted, or its probe did not cross the line", i)
		}
	}

	var cuts [2]*cutoverSys
	for k, eng := range engines {
		c, err := newCutoverSys(nil, progs, eng, env.base, flows)
		if err != nil {
			return oracleCount{}, err
		}
		cuts[k] = c
	}
	for i := 0; i < cutovers; i++ {
		_, got, ok1 := cuts[0].cycle(nil, flows)
		_, want, ok2 := cuts[1].cycle(nil, flows)
		before := o.Failed
		o.same("cutover", i, got, nil, want, nil)
		if o.Failed == before && !(ok1 && ok2) {
			o.fail("cutover %d: failed, or the return packet was not forwarded", i)
		}
	}

	var pairs [2]*haPair
	for k, eng := range engines {
		p, err := newHAPair(nil, progs.p9, eng, cfg.Seed, lossy, env.base)
		if err != nil {
			return oracleCount{}, err
		}
		pairs[k] = p
	}
	_, s1 := pairs[0].sync(nil, flows)
	_, s2 := pairs[1].sync(nil, flows)
	_, got, f1 := pairs[0].failover(nil)
	_, want, f2 := pairs[1].failover(nil)
	before := o.Failed
	o.same("failover", 0, got, nil, want, nil)
	if o.Failed == before && !(s1 && s2 && f1 && f2) {
		o.fail("failover: sync incomplete, or the first return packet was not forwarded")
	}
	o.Attempted += flows
	if lost := pairs[0].lost(flows); lost > 0 {
		o.failN(lost, "failover: promoted standby dropped %d of %d synced flows", lost, flows)
	}
	return o.oracleCount, nil
}
