package main

import (
	"fmt"
	"io"
	"math"
	"os"
	"runtime"
	"time"

	"microp4"
	"microp4/internal/flow"
	"microp4/internal/lib"
	"microp4/internal/netsim"
)

// The traced run. Per-layer metrics are taken from outside: each one
// times a public entry point of a layer in a loop of its own (median of
// at least nine rounds), or is a difference or ratio of two such
// numbers. The packet path inside Switch.Process — parser MAT, key
// build, lookup, action, deparser MAT — cannot be separated from
// outside; the difference cells below approximate it (README.md, "Known
// limits").

const probeRounds = 9

// layerRun is one pass over the probe suite.
type layerRun struct {
	cfg      config
	roundDur time.Duration // length of one probe round
	mini     config        // settings for workloads re-run as probes
	p50      map[string]float64
	out      map[string]metricValue
	defs     map[string]layerDef
}

func newLayerRun(cfg config) *layerRun {
	l := &layerRun{cfg: cfg, p50: map[string]float64{}, out: map[string]metricValue{}, defs: map[string]layerDef{}}
	l.roundDur = cfg.RoundDur / 64
	if l.roundDur < 2*time.Millisecond {
		l.roundDur = 2 * time.Millisecond
	}
	if l.roundDur > 15*time.Millisecond {
		l.roundDur = 15 * time.Millisecond
	}
	l.mini = miniConfig(cfg)
	for _, d := range layerDefs() {
		l.defs[d.Name] = d
	}
	return l
}

// miniConfig is how a workload is re-run inside the traced run: one
// set-up, no oracle pass, rounds a quarter as long.
func miniConfig(cfg config) config {
	return config{Seed: cfg.Seed, Rounds: cfg.Rounds, RoundDur: cfg.RoundDur / 4, Setups: 1, NoVerify: true, Log: cfg.Log}
}

func (l *layerRun) set(name string, v float64) {
	d, ok := l.defs[name]
	if !ok {
		panic("bench: uncatalogued layer metric " + name)
	}
	l.out[name] = metricValue{Value: v, Unit: d.Unit}
}

// workloadP50 is a workload's untraced pkt_ns_p50 from a mini run
// (ctl_ops: commit-visible time in ns), measured once per layer run.
func (l *layerRun) workloadP50(name string) (float64, error) {
	if v, ok := l.p50[name]; ok {
		return v, nil
	}
	cfg := l.mini
	res, err := runWorkload(workloadByName(name), &cfg)
	if err != nil {
		return 0, err
	}
	if res.Failed > 0 {
		return 0, fmt.Errorf("%s: %d failures in the probe run", name, res.Failed)
	}
	v := primaryP50(res)
	l.p50[name] = v
	return v, nil
}

func primaryP50(r *result) float64 {
	if m, ok := r.Metrics["pkt_ns_p50"]; ok {
		return m.Value
	}
	return r.Metrics["commit_visible_us_p50"].Value * 1e3
}

// perUnit runs fn — which does n units of work per call — for
// probeRounds rounds and returns the median ns per unit and allocations
// per unit. Like the workloads' measured loop it cycles the stack depth
// (see atDepth), which adds about 0.25 us to the average call.
func (l *layerRun) perUnit(n int, fn func()) (ns, allocs float64) {
	fn() // settle pools and lazy state
	var nss, als []float64
	var m0, m1 runtime.MemStats
	calls := 0
	for r := 0; r < probeRounds; r++ {
		runtime.ReadMemStats(&m0)
		units := 0
		start := time.Now()
		for ; time.Since(start) < l.roundDur; calls++ {
			atDepth(calls%stackLevels, fn)
			units += n
		}
		el := time.Since(start)
		runtime.ReadMemStats(&m1)
		nss = append(nss, float64(el)/float64(units))
		als = append(als, float64(m1.Mallocs-m0.Mallocs)/float64(units))
	}
	return median(nss), median(als)
}

// perCall times fn once per round, with prep run off the clock before
// each call, and returns the median ns per call.
func perCall(rounds int, prep, fn func()) float64 {
	var nss []float64
	for r := 0; r < rounds; r++ {
		if prep != nil {
			prep()
		}
		t0 := time.Now()
		fn()
		nss = append(nss, float64(time.Since(t0)))
	}
	return median(nss)
}

// serial returns a loop body sending every packet through Process.
func serial(sw *microp4.Switch, pkts [][]byte, inPort uint64, fails *int64) func() {
	return func() {
		for _, p := range pkts {
			if _, err := sw.Process(p, inPort); err != nil {
				*fails++
			}
		}
	}
}

// stdSwitch builds one program's switch with its standard rules.
func stdSwitch(prog string, engine microp4.Engine) (*microp4.Dataplane, *microp4.Switch, error) {
	dp, err := buildProgram(nil, prog, "")
	if err != nil {
		return nil, nil, err
	}
	sw := dp.NewSwitchWith(engine)
	return dp, sw, installStdRules(sw, prog)
}

// run executes every probe group.
func (l *layerRun) run() error {
	for _, group := range []func() error{
		l.compiler, l.engine, l.tables, l.flowTable, l.switchLayer, l.observation, l.network, l.control,
	} {
		if err := group(); err != nil {
			return err
		}
	}
	return nil
}

// compiler: frontend, midend, mat and the TNA backend.
func (l *layerRun) compiler() error {
	var compAll, compP10, buildAll, buildP10 []float64
	dps := map[string]*microp4.Dataplane{}
	for r := 0; r < probeRounds; r++ {
		var cAll, bAll time.Duration
		for _, p := range allPrograms {
			t0 := time.Now()
			main, mods, err := compileProgram(p, "")
			c := time.Since(t0)
			if err != nil {
				return err
			}
			t0 = time.Now()
			dp, err := microp4.Build(main, mods...)
			b := time.Since(t0)
			if err != nil {
				return err
			}
			dps[p] = dp
			cAll, bAll = cAll+c, bAll+b
			if p == "P10" {
				compP10 = append(compP10, c.Seconds()*1e3)
				buildP10 = append(buildP10, b.Seconds()*1e3)
			}
		}
		compAll = append(compAll, cAll.Seconds()*1e3)
		buildAll = append(buildAll, bAll.Seconds()*1e3)
	}
	l.set("frontend.compile_ms.all", median(compAll))
	l.set("frontend.compile_ms.P10", median(compP10))
	l.set("midend.build_ms.all", median(buildAll))
	l.set("midend.build_ms.P10", median(buildP10))
	for _, p := range []string{"P4", "P10"} {
		api := dps[p].ControlAPI()
		consts := 0
		for _, t := range api.Tables {
			consts += t.ConstEntries
		}
		l.set("mat.tables."+p, float64(len(api.Tables)))
		l.set("mat.const_entries."+p, float64(consts))
	}
	var terr error
	l.set("tna.report_ms.P4", perCall(probeRounds, nil, func() {
		if _, err := dps["P4"].Tofino(); err != nil {
			terr = err
		}
	})/1e6)
	l.set("sim.newswitch_ms.P10", perCall(probeRounds, nil, func() { dps["P10"].NewSwitch() })/1e6)
	return terr
}

// engine: the sim engines through Switch.Process, program by program.
func (l *layerRun) engine() error {
	var fails int64
	for _, p := range allPrograms {
		_, sw, err := stdSwitch(p, microp4.EngineCompiled)
		if err != nil {
			return err
		}
		pkts := programTraffic(l.cfg.Seed, p)
		ns, _ := l.perUnit(len(pkts), serial(sw, pkts, lib.PortA, &fails))
		l.set("sim.exec.ns_per_pkt."+p, ns)
	}
	for _, p := range []string{"P4", "P10"} {
		_, sw, err := stdSwitch(p, microp4.EngineReference)
		if err != nil {
			return err
		}
		pkts := programTraffic(l.cfg.Seed, p)
		ns, _ := l.perUnit(len(pkts), serial(sw, pkts, lib.PortA, &fails))
		l.set("sim.interp.ns_per_pkt."+p, ns)
	}
	_, sw, err := stdSwitch("P4", microp4.EngineCompiled)
	if err != nil {
		return err
	}
	mix := stdMix(l.cfg.Seed)
	for _, c := range []struct {
		name string
		keep func(mixPkt) bool
	}{
		{"size64", func(m mixPkt) bool { return m.Kind == kindV4 && m.Size == 64 }},
		{"size1500", func(m mixPkt) bool { return m.Kind == kindV4 && m.Size == 1500 }},
		{"reject", func(m mixPkt) bool { return m.Kind == kindTruncated }},
	} {
		var pkts [][]byte
		for _, m := range mix {
			if c.keep(m) {
				pkts = append(pkts, m.Data)
			}
		}
		ns, _ := l.perUnit(len(pkts), serial(sw, pkts, 0, &fails))
		l.set("sim.exec.ns_per_pkt."+c.name, ns)
	}
	if fails > 0 {
		return fmt.Errorf("engine probes: %d packets returned errors", fails)
	}
	return nil
}

// routedV4 and missV4 are the table probes' packets: IPv4 frames the
// standard rules route (so extra entries are pure occupancy and the
// packet takes the same path at every table size), and frames no entry
// matches.
func routedV4(seed uint64) [][]byte {
	var out [][]byte
	for _, m := range stdMix(seed) {
		if m.Kind == kindV4 && m.Size == 64 && len(out) < 16 {
			out = append(out, m.Data)
		}
	}
	return out
}

func missV4(seed uint64) [][]byte {
	r := newRNG(seed, "miss")
	out := make([][]byte, 64)
	for i := range out {
		out[i] = p4Probe(unroutedNet | uint32(r.next()&0xFFFFFF))
	}
	return out
}

// tables: sim.Tables through a P4 (and, for ternary, P1) switch.
func (l *layerRun) tables() error {
	var fails int64
	routes := routeSet(l.cfg.Seed, fibRoutes)
	hit, miss := routedV4(l.cfg.Seed), missV4(l.cfg.Seed)
	at := func(n int, pkts [][]byte) (float64, *microp4.Switch, error) {
		_, sw, err := stdSwitch("P4", microp4.EngineCompiled)
		if err != nil {
			return 0, nil, err
		}
		if err := installRoutes(sw, routes[:n]); err != nil {
			return 0, nil, err
		}
		ns, _ := l.perUnit(len(pkts), serial(sw, pkts, 0, &fails))
		return ns, sw, nil
	}
	base, _, err := at(0, hit)
	if err != nil {
		return err
	}
	var big *microp4.Switch
	for _, c := range []struct {
		name string
		n    int
	}{{"lpm_e16", 16}, {"lpm_e1k", 1024}, {"lpm_e64k", fibRoutes}} {
		ns, sw, err := at(c.n, hit)
		if err != nil {
			return err
		}
		l.set("tables.lookup_ns."+c.name, ns-base)
		big = sw
	}
	missBase, _, err := at(0, miss)
	if err != nil {
		return err
	}
	missNs, _, err := at(1024, miss)
	if err != nil {
		return err
	}
	l.set("tables.lookup_ns.miss_e1k", missNs-missBase)

	// Exact match: forward_tbl with 1024 next hops nothing routes to.
	_, sw, err := stdSwitch("P4", microp4.EngineCompiled)
	if err != nil {
		return err
	}
	for nh := uint64(1000); nh < 1000+1024; nh++ {
		if err := sw.TryAddEntry("forward_tbl", exact(nh), "forward", lib.DmacA, lib.SmacA, lib.PortA); err != nil {
			return err
		}
	}
	ns, _ := l.perUnit(len(hit), serial(sw, hit, 0, &fails))
	l.set("tables.lookup_ns.exact_e1k", ns-base)

	// Ternary: P1's ACL with 1024 deny rules for ports no packet uses.
	basic := basicTraffic()
	_, p1, err := stdSwitch("P1", microp4.EngineCompiled)
	if err != nil {
		return err
	}
	p1Base, _ := l.perUnit(len(basic), serial(p1, basic, lib.PortA, &fails))
	for port := uint64(10000); port < 10000+1024; port++ {
		keys := []microp4.Key{microp4.Any(), microp4.Any(), microp4.Ternary(6, 0xFF), microp4.Ternary(port, 0xFFFF)}
		if err := p1.TryAddEntry(aclTable, keys, "acl_i.deny"); err != nil {
			return err
		}
	}
	ns, _ = l.perUnit(len(basic), serial(p1, basic, lib.PortA, &fails))
	l.set("tables.lookup_ns.ternary_e1k", ns-p1Base)

	// Writes and snapshots.
	var ierr error
	fresh := func() *microp4.Switch {
		_, sw, err := stdSwitch("P4", microp4.EngineCompiled)
		if err != nil {
			ierr = err
		}
		return sw
	}
	install := func(sw *microp4.Switch, n int) {
		if err := installRoutes(sw, routes[:n]); err != nil {
			ierr = err
		}
	}
	var target *microp4.Switch
	l.set("tables.add_entry_ns.e1k", perCall(probeRounds, func() { target = fresh() }, func() { install(target, 1024) })/1024)
	// One e64k round is 65536 installs; five of them say enough.
	l.set("tables.add_entry_ns.e64k", perCall(5, func() { target = fresh() }, func() { install(target, fibRoutes) })/fibRoutes)
	l.set("tables.clear_us.e64k", perCall(5,
		func() { target = fresh(); install(target, fibRoutes) },
		func() {
			if err := target.TryClearTable(v4Table); err != nil {
				ierr = err
			}
		})/1e3)
	var cp *microp4.Checkpoint
	l.set("tables.checkpoint_us.e64k", perCall(probeRounds, nil, func() { cp = big.Checkpoint() })/1e3)
	l.set("tables.restore_us.e64k", perCall(probeRounds, nil, func() { big.Restore(cp) })/1e3)
	if ierr != nil {
		return ierr
	}
	if fails > 0 {
		return fmt.Errorf("table probes: %d packets returned errors", fails)
	}

	fwd, err := l.workloadP50("fwd_std")
	if err != nil {
		return err
	}
	fib, err := l.workloadP50("fib_64k")
	if err != nil {
		return err
	}
	l.set("tables.lookup_share.fib_64k", 1-fwd/fib)
	return nil
}

// flowTable: the flow package's Table, called directly.
func (l *layerRun) flowTable() error {
	key := func(i int) flow.Key {
		return flow.Key{SrcAddr: lib.NetA | uint64(i), DstAddr: lib.VipAddr, Proto: 6, SrcPort: uint64(1000 + i%50000), DstPort: 80}
	}
	var now uint64
	t := flow.New(8192, 256, 65536)
	for i := 0; i < hotFlows; i++ {
		now++
		t.Upsert(key(i), 0, now)
	}
	ns, _ := l.perUnit(hotFlows, func() {
		for i := 0; i < hotFlows; i++ {
			now++
			t.Upsert(key(i), 0, now)
		}
	})
	l.set("flow.upsert_hit_ns", ns)
	for _, c := range []struct {
		name string
		size int
	}{{"4k", 4096}, {"64k", 65536}} {
		// Every key is new and the table is full: each upsert misses,
		// evicts the oldest entry and inserts.
		ct := flow.New(c.size, 1<<30, 1<<30)
		next := 0
		for ; next < c.size; next++ {
			ct.Upsert(key(next), 0, 1)
		}
		ns, _ := l.perUnit(256, func() {
			for i := 0; i < 256; i++ {
				next++
				ct.Upsert(key(next), 0, 1)
			}
		})
		l.set("flow.upsert_churn_ns."+c.name, ns)
	}
	ns, _ = l.perUnit(hotFlows, func() {
		for i := 0; i < hotFlows; i++ {
			now++
			t.Stick(key(i), 1, now)
		}
	})
	l.set("flow.stick_ns", ns)
	ns, _ = l.perUnit(hotFlows, func() {
		for i := 0; i < hotFlows; i++ {
			t.Lookup(key(i))
		}
	})
	l.set("flow.lookup_ns", ns)

	full := flow.New(4096, 1<<40, 1<<40)
	for i := 0; i < 4096; i++ {
		full.Upsert(key(i), 0, 1)
	}
	tick := uint64(1)
	ns, _ = l.perUnit(64, func() {
		for i := 0; i < 64; i++ {
			tick++
			full.Advance(tick)
		}
	})
	l.set("flow.advance_ns", ns)
	l.set("flow.snapshot_us.4k", perCall(probeRounds, nil, func() { full.Snapshot() })/1e3)
	var buf []flow.Entry
	l.set("flow.unsynced_us.4k", perCall(probeRounds, nil, func() { buf = full.Unsynced(buf[:0]) })/1e3)

	// Exact at one worker: the flow plan's hit ratio over 32 batches.
	sw, err := newFlowSwitch(&config{}, 1)
	if err != nil {
		return err
	}
	sys := newFlowSys(sw, newFlowPlan(l.cfg.Seed))
	var fails int64
	for b := 0; b < 32; b++ {
		fails += sys.runBatch()
	}
	if fails > 0 {
		return fmt.Errorf("flow probes: %d packets misforwarded", fails)
	}
	st := sw.FlowTable(flowTablePath).Stats()
	l.set("flow.hit_ratio.flow_batch", float64(st.Hits)/float64(st.Hits+st.Misses))
	return nil
}

// switchLayer: batches and the worker pool, generations, checkpoints.
func (l *layerRun) switchLayer() error {
	plan := newFlowPlan(l.cfg.Seed)
	batchNs := func(workers int) (float64, error) {
		sw, err := newFlowSwitch(&config{}, workers)
		if err != nil {
			return 0, err
		}
		sys := newFlowSys(sw, plan)
		var fails int64
		ns, _ := l.perUnit(batchSize, func() { fails += sys.runBatch() })
		if fails > 0 {
			return 0, fmt.Errorf("batch probe: %d packets misforwarded", fails)
		}
		return ns, nil
	}
	w1, err := batchNs(1)
	if err != nil {
		return err
	}
	w2, err := batchNs(batchWorkers)
	if err != nil {
		return err
	}
	l.set("switch.batch.ns_per_pkt.w1", w1)
	l.set("switch.batch.ns_per_pkt.w2", w2)
	l.set("switch.batch.scaling_w2", w1/w2)

	// The same packets through serial Process: batch minus serial is
	// what batch dispatch itself costs (it can be negative — the batch
	// path reuses output buffers that Process must copy out of).
	sw, err := newFlowSwitch(&config{}, 1)
	if err != nil {
		return err
	}
	sys := newFlowSys(sw, plan)
	var fails int64
	ser, _ := l.perUnit(batchSize, func() {
		sys.fill()
		for _, p := range sys.pkts {
			if _, err := sw.Process(p, lib.PortA); err != nil {
				fails++
			}
		}
	})
	l.set("switch.batch.dispatch_ns", w1-ser)

	// p99 of fwd_std bursts: reported, never gated. 2048 bursts put
	// twenty samples beyond it.
	_, p4, err := stdSwitch("P4", microp4.EngineCompiled)
	if err != nil {
		return err
	}
	rs := newRouterSys(p4, stdMix(l.cfg.Seed))
	warm, rec := &recorder{}, &recorder{}
	warm.startRound()
	rec.startRound()
	for i := 0; i < 64; i++ { // the first bursts warm pools
		rs.burst(warm)
	}
	for i := 0; i < 2048; i++ {
		rs.burst(rec)
	}
	fails += rec.fails
	l.set("switch.pkt_ns_p99.fwd_std", rec.pkt.summarize().P99)

	// Generations on P9 with established flows.
	progs, err := buildCtlPrograms(nil)
	if err != nil {
		return err
	}
	cut, err := newCutoverSys(nil, progs, microp4.EngineCompiled, 0, cutoverFlows)
	if err != nil {
		return err
	}
	var stage, swap []float64
	for r := 0; r < 4*probeRounds; r++ {
		next := progs.p9v2
		if r%2 == 1 {
			next = progs.p9
		}
		t0 := time.Now()
		_, err := cut.sw.StageGeneration(next)
		stage = append(stage, float64(time.Since(t0)))
		if err != nil {
			return err
		}
		t0 = time.Now()
		_, err = cut.sw.CutOver()
		swap = append(swap, float64(time.Since(t0)))
		if err != nil {
			return err
		}
	}
	l.set("switch.stage_generation_us", median(stage)/1e3)
	l.set("switch.cutover_us", median(swap)/1e3)

	// Canary: the same return packets with and without a shadow mirror.
	rev := make([][]byte, 64)
	for i := range rev {
		rev[i] = p9Rev(0, i)
	}
	off, _ := l.perUnit(len(rev), serial(cut.sw, rev, lib.PortB, &fails))
	if _, err := cut.sw.StageGeneration(progs.p9v2); err != nil {
		return err
	}
	if err := cut.sw.StartCanary(1 << 40); err != nil {
		return err
	}
	on, _ := l.perUnit(len(rev), serial(cut.sw, rev, lib.PortB, &fails))
	if st := cut.sw.StopCanary(); st.Diverged {
		return fmt.Errorf("canary probe: benign upgrade diverged: %s", st.Reason)
	}
	l.set("switch.canary_mirror_ns", on-off)

	// Checkpoint/Restore at rule_churn's occupancy.
	_, c4, err := stdSwitch("P4", microp4.EngineCompiled)
	if err != nil {
		return err
	}
	if err := installRoutes(c4, routeSet(l.cfg.Seed, churnRoutes)); err != nil {
		return err
	}
	var cp *microp4.Checkpoint
	l.set("switch.checkpoint_us.4k", perCall(4*probeRounds, nil, func() { cp = c4.Checkpoint() })/1e3)
	l.set("switch.restore_us.4k", perCall(4*probeRounds, nil, func() { c4.Restore(cp) })/1e3)
	if fails > 0 {
		return fmt.Errorf("switch probes: %d packets failed", fails)
	}
	return nil
}

// observation: each mechanism alone against everything off.
func (l *layerRun) observation() error {
	pkts := frames(stdMix(l.cfg.Seed))
	var fails int64
	measure := func(metrics, bus, hop bool) (ns, allocs float64, sw *microp4.Switch, err error) {
		_, sw, err = stdSwitch("P4", microp4.EngineCompiled)
		if err != nil {
			return 0, 0, nil, err
		}
		send := observe(sw, metrics, bus, hop)
		ns, allocs = l.perUnit(len(pkts), func() {
			for _, p := range pkts {
				if _, err := send(p); err != nil {
					fails++
				}
			}
		})
		return ns, allocs, sw, nil
	}
	off, offAllocs, _, err := measure(false, false, false)
	if err != nil {
		return err
	}
	for _, c := range []struct {
		ns, allocs        string
		metrics, bus, hop bool
	}{
		{"obs.metrics_overhead_ns", "obs.allocs_per_pkt.metrics", true, false, false},
		{"obs.bus_overhead_ns", "obs.allocs_per_pkt.bus", false, true, false},
		{"trace.hop_overhead_ns", "trace.allocs_per_pkt.hop", false, false, true},
	} {
		ns, allocs, sw, err := measure(c.metrics, c.bus, c.hop)
		if err != nil {
			return err
		}
		l.set(c.ns, ns-off)
		l.set(c.allocs, allocs-offAllocs)
		if c.metrics {
			reg := sw.EnableMetrics()
			var werr error
			l.set("obs.scrape_ms", perCall(probeRounds, nil, func() {
				if err := reg.WritePrometheus(io.Discard); err != nil {
					werr = err
				}
			})/1e6)
			if werr != nil {
				return werr
			}
		}
	}
	if fails > 0 {
		return fmt.Errorf("observation probes: %d packets returned errors", fails)
	}
	fwd, err := l.workloadP50("fwd_std")
	if err != nil {
		return err
	}
	on, err := l.workloadP50("obs_on")
	if err != nil {
		return err
	}
	l.set("obs.overhead_ratio", on/fwd)
	return nil
}

// relay is a no-op netsim node: whatever arrives leaves on port 1.
type relay struct{}

func (relay) Process(p []byte, _ uint64) ([]microp4.Output, error) {
	return []microp4.Output{{Port: 1, Data: p}}, nil
}

// network: netsim's event loop with the switches taken out.
func (l *layerRun) network() error {
	pkts := frames(lineMix(l.cfg.Seed))[:burstSize]
	perHop := func(m netsim.FaultModel) (ns, allocs float64, err error) {
		var nss, als []float64
		var m0, m1 runtime.MemStats
		for r := 0; r < probeRounds; r++ {
			// A fresh network per round, as in net_3hop.
			n := netsim.New(l.cfg.Seed + uint64(r))
			for _, name := range lineNodes {
				if err := n.AddSwitch(name, relay{}); err != nil {
					return 0, 0, err
				}
			}
			if err := n.Connect("s1", 1, "s2", 0, m); err != nil {
				return 0, 0, err
			}
			if err := n.Connect("s2", 1, "s3", 0, m); err != nil {
				return 0, 0, err
			}
			runtime.ReadMemStats(&m0)
			before := n.Stats().Steps
			start := time.Now()
			for time.Since(start) < l.roundDur {
				for _, p := range pkts {
					if err := n.Inject("s1", 0, p); err != nil {
						return 0, 0, err
					}
				}
				if _, err := n.Run(0); err != nil {
					return 0, 0, err
				}
			}
			el := time.Since(start)
			runtime.ReadMemStats(&m1)
			hops := float64(n.Stats().Steps - before)
			nss = append(nss, float64(el)/hops)
			als = append(als, float64(m1.Mallocs-m0.Mallocs)/hops)
		}
		return median(nss), median(als), nil
	}
	ns, allocs, err := perHop(netsim.FaultModel{})
	if err != nil {
		return err
	}
	l.set("netsim.run.ns_per_hop.noop", ns)
	l.set("netsim.allocs_per_hop", allocs)
	ns, _, err = perHop(lossy)
	if err != nil {
		return err
	}
	l.set("netsim.run.ns_per_hop.lossy", ns)

	line, err := l.workloadP50("net_3hop")
	if err != nil {
		return err
	}
	l.set("netsim.share.net_3hop", 1-3*l.out["sim.exec.ns_per_pkt.P4"].Value/line)
	return nil
}

// control: ctrlplane transactions and replication, timed over lossless
// links and counted over lossy ones. The counts depend on the seed only
// and double as a behaviour signature.
func (l *layerRun) control() error {
	progs, err := buildCtlPrograms(nil)
	if err != nil {
		return err
	}
	env := newCtlEnv(l.cfg.Seed)

	clean, err := newTxnLine(nil, progs.p4, microp4.EngineCompiled, l.cfg.Seed, netsim.FaultModel{}, env.routes)
	if err != nil {
		return err
	}
	var aborted int
	ns, _ := l.perUnit(1, func() {
		if clean.next == len(clean.routes) {
			return
		}
		if _, ok := clean.commit(nil); !ok {
			aborted++
		}
	})
	l.set("ctrlplane.txn_us.lossless", ns/1e3)

	const txns = 128
	noisy, err := newTxnLine(nil, progs.p4, microp4.EngineCompiled, l.cfg.Seed, lossy, env.routes)
	if err != nil {
		return err
	}
	var steps []float64
	for i := 0; i < txns; i++ {
		before := noisy.n.Stats().Steps
		if _, ok := noisy.commit(nil); !ok {
			aborted++
		}
		steps = append(steps, float64(noisy.n.Stats().Steps-before))
	}
	if aborted > 0 {
		return fmt.Errorf("control probes: %d transactions aborted", aborted)
	}
	st := noisy.n.Stats()
	l.set("ctrlplane.txn.ticks_p50", median(steps))
	l.set("ctrlplane.txn.frames_per_txn", float64(st.Steps+st.Faults[netsim.FaultDrop])/txns)
	l.set("ctrlplane.txn.retries_per_txn", float64(noisy.metrics.Retries.Value())/txns)
	l.set("ctrlplane.txn.timeouts_per_txn", float64(noisy.metrics.Timeouts.Value())/txns)

	var syncNs []float64
	for r := 0; r < probeRounds; r++ {
		pair, err := newHAPair(nil, progs.p9, microp4.EngineCompiled, l.cfg.Seed, netsim.FaultModel{}, env.base)
		if err != nil {
			return err
		}
		d, ok := pair.sync(nil, syncFlows)
		if !ok {
			return fmt.Errorf("control probes: lossless sync left flows unacknowledged")
		}
		syncNs = append(syncNs, float64(d))
	}
	l.set("ctrlplane.sync_us_per_flow.lossless", median(syncNs)/1e3/syncFlows)

	pair, err := newHAPair(nil, progs.p9, microp4.EngineCompiled, l.cfg.Seed, lossy, env.base)
	if err != nil {
		return err
	}
	if _, ok := pair.sync(nil, syncFlows); !ok {
		return fmt.Errorf("control probes: lossy sync left flows unacknowledged")
	}
	rounds, resyncs := pair.act.Rounds()
	applied, _ := pair.sby.Applied()
	l.set("ctrlplane.replica.rounds", float64(rounds))
	l.set("ctrlplane.replica.resyncs", float64(resyncs))
	l.set("ctrlplane.standby.applied", float64(applied))
	return nil
}

// maxTraceOverhead is how much the span recorder may slow a workload
// before the traced run's numbers stop being trusted, and fullRound is
// the round length (the driver contract's) from which that is enforced:
// over shorter rounds — the smoke test's 50 ms — the ratio of two runs
// says more about the machine than about the recorder.
const (
	maxTraceOverhead = 1.10
	fullRound        = time.Second
)

// traceOverhead re-runs a workload with the span recorder on and
// returns traced over untraced primary p50, the recorder, and how many
// operations the traced run attempted (none may fail). A ratio above
// maxTraceOverhead is measured again, both sides fresh, up to three
// times in all: a disturbance passes, a distorting recorder does not.
// If the lowest ratio is still above it, a full-length run fails.
func (l *layerRun) traceOverhead(w *workload) (ratio float64, sp *spans, attempted int64, err error) {
	name := w.def.Name
	for try := 0; try < 3; try++ {
		if try > 0 {
			delete(l.p50, name)
		}
		untraced, err := l.workloadP50(name)
		if err != nil {
			return 0, nil, 0, err
		}
		cfg := l.mini
		cfg.Spans = newSpans(name)
		res, err := runWorkload(w, &cfg)
		if err != nil {
			return 0, nil, 0, err
		}
		if res.Failed > 0 {
			return 0, nil, 0, fmt.Errorf("%s: %d failures in the traced run", name, res.Failed)
		}
		if r := primaryP50(res) / untraced; try == 0 || r < ratio {
			ratio, sp, attempted = r, cfg.Spans, res.Attempted
		}
		if ratio <= maxTraceOverhead {
			break
		}
	}
	if ratio > maxTraceOverhead && l.cfg.RoundDur >= fullRound {
		return 0, nil, 0, fmt.Errorf("%s: tracing slows it %.2fx, over %.2fx: the traced numbers are not trusted", name, ratio, maxTraceOverhead)
	}
	return ratio, sp, attempted, nil
}

// relation is one of the sanity relations: at the commit that added the
// benchmark, each workload demonstrably loads the layer it was chosen
// for.
type relation struct {
	Claim string
	Holds bool
}

// sanityRelations evaluates the relations on a traced run's metrics.
// They are reported with the per-layer metrics and not enforced: the
// changes this benchmark exists to measure are meant to break them (an
// indexed table ends the linear scan, a cheaper observation path ends
// the 2x), and a change that claims a gain may not edit the benchmark.
func sanityRelations(layers map[string]metricValue, cpus int) []relation {
	v := func(name string) float64 { return layers[name].Value }
	rs := []relation{
		{fmt.Sprintf("table lookup does >= 95%% of fib_64k's work (tables.lookup_share.fib_64k = %.3f)", v("tables.lookup_share.fib_64k")),
			v("tables.lookup_share.fib_64k") >= 0.95},
		{fmt.Sprintf("LPM lookup is a linear scan (lpm_e64k = %.0f x lpm_e1k, >= 30)", v("tables.lookup_ns.lpm_e64k")/v("tables.lookup_ns.lpm_e1k")),
			v("tables.lookup_ns.lpm_e64k") >= 30*v("tables.lookup_ns.lpm_e1k")},
		{fmt.Sprintf("observation at least doubles the packet cost (obs.overhead_ratio = %.2f)", v("obs.overhead_ratio")),
			v("obs.overhead_ratio") >= 2},
	}
	if cpus >= 2 {
		rs = append(rs, relation{fmt.Sprintf("two workers beat one (switch.batch.scaling_w2 = %.2f)", v("switch.batch.scaling_w2")),
			v("switch.batch.scaling_w2") > 1})
	}
	return rs
}

func printRelations(w io.Writer, rs []relation) {
	fmt.Fprintln(w, "sanity relations (reported, not enforced)")
	for _, r := range rs {
		verdict := "holds"
		if !r.Holds {
			verdict = "DOES NOT HOLD"
		}
		fmt.Fprintf(w, "  %-14s %s\n", verdict, r.Claim)
	}
}

func writeSpans(path string, all []*spans) error {
	if path == "" {
		return nil
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	merged := &spans{}
	for _, s := range all {
		base := len(merged.all)
		for _, sp := range s.all {
			if sp.Parent >= 0 {
				sp.Parent += base
			}
			merged.all = append(merged.all, sp)
		}
	}
	if err := merged.write(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// checkLayers verifies a layer run produced every catalogued metric,
// each finite.
func checkLayers(out map[string]metricValue, want []string) error {
	for _, name := range want {
		m, ok := out[name]
		if !ok {
			return fmt.Errorf("layer metric %s was not produced", name)
		}
		if math.IsNaN(m.Value) || math.IsInf(m.Value, 0) {
			return fmt.Errorf("layer metric %s is %v", name, m.Value)
		}
	}
	if len(out) != len(want) {
		return fmt.Errorf("%d layer metrics produced, %d catalogued", len(out), len(want))
	}
	return nil
}

// tracedSuite is the suite's traced run: every workload re-run with the
// span recorder on (one overhead ratio each), then the probe suite.
func tracedSuite(stdout io.Writer, cfg config, spansOut string) (map[string]metricValue, error) {
	l := newLayerRun(cfg)
	var recorded []*spans
	var want []string
	for _, d := range layerDefs() {
		if d.Name != traceOverheadMetric {
			want = append(want, d.Name)
		}
	}
	for _, w := range workloads() {
		ratio, sp, _, err := l.traceOverhead(w)
		if err != nil {
			return nil, err
		}
		name := traceOverheadMetric + "." + w.def.Name
		l.out[name] = metricValue{Value: ratio, Unit: "ratio"}
		want = append(want, name)
		recorded = append(recorded, sp)
		printSelfTimes(stdout, w.def.Name, sp.selfTimes())
	}
	if err := l.run(); err != nil {
		return nil, err
	}
	if err := checkLayers(l.out, want); err != nil {
		return nil, err
	}
	return l.out, writeSpans(spansOut, recorded)
}

// contractTraced is `-workload W -trace 1`: W re-run traced, the probe
// suite, and every declared per-layer metric on the last line.
func contractTraced(stdout io.Writer, w *workload, cfg config, spansOut string, fail func(error) int) int {
	l := newLayerRun(cfg)
	ratio, sp, attempted, err := l.traceOverhead(w)
	if err != nil {
		return fail(err)
	}
	l.set(traceOverheadMetric, ratio)
	printSelfTimes(stdout, w.def.Name, sp.selfTimes())
	if err := l.run(); err != nil {
		return fail(err)
	}
	var want []string
	for _, d := range layerDefs() {
		want = append(want, d.Name)
	}
	if err := checkLayers(l.out, want); err != nil {
		return fail(err)
	}
	if err := writeSpans(spansOut, []*spans{sp}); err != nil {
		return fail(err)
	}
	printLayers(stdout, l.out)
	printRelations(stdout, sanityRelations(l.out, runtime.NumCPU()))
	return printContractLine(stdout, attempted, 0, l.out)
}
