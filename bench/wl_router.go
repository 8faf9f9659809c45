package main

import (
	"time"

	"microp4"
	"microp4/internal/lib"
	"microp4/internal/trace"
)

// The P4 (modular router) workloads: fwd_std, fib_64k, rule_churn and
// obs_on. All four send the 256-packet router mix through one switch in
// bursts of 32; they differ in what the IPv4 table holds, whether it is
// written while read, and whether the observation mechanisms are on.

const (
	fibRoutes   = 65536
	churnRoutes = 4096
	churnClear  = 256 // adds between a clear + bulk reinstall
	fibMissEach = 10  // every 10th IPv4 destination misses all routes
)

// routerSys is a P4 switch fed the router mix.
type routerSys struct {
	sw   *microp4.Switch
	pkts [][]byte
	want []int
	next int
	send func(p []byte) ([]microp4.Output, error)
}

// newRouter compiles P4, builds a switch and installs the standard
// rules plus routes — the set-up every router workload times.
func newRouter(cfg *config, routes []route) (*microp4.Switch, error) {
	sp := cfg.Spans
	dp, err := buildProgram(sp, "P4", "")
	if err != nil {
		return nil, err
	}
	end := sp.begin("switch.new")
	sw := dp.NewSwitch()
	end()
	end = sp.begin("rules.install")
	defer end()
	if err := installStdRules(sw, "P4"); err != nil {
		return nil, err
	}
	return sw, installRoutes(sw, routes)
}

func newRouterSys(sw *microp4.Switch, mix []mixPkt) *routerSys {
	return &routerSys{sw: sw, pkts: frames(mix), want: wantPorts(mix),
		send: func(p []byte) ([]microp4.Output, error) { return sw.Process(p, 0) }}
}

func (s *routerSys) newRound(*spans) error { return nil }

// burst sends the next 32 packets of the mix, one timed span for all.
func (s *routerSys) burst(rec *recorder) {
	lo := s.next
	s.next = (s.next + burstSize) % len(s.pkts)
	id := rec.sp.open("switch.process")
	t0 := time.Now()
	var bad int64
	for i := lo; i < lo+burstSize; i++ {
		outs, err := s.send(s.pkts[i])
		if err != nil || !matches(outs, s.want[i]) {
			bad++
		}
	}
	d := time.Since(t0)
	rec.sp.close(id)
	rec.burst(d, burstSize)
	rec.fails += bad
}

func (s *routerSys) step(rec *recorder) { s.burst(rec) }

// matches is the in-loop check: the outcome has the shape the generator
// meant (full bytes are compared in the verification pass).
func matches(outs []microp4.Output, port int) bool {
	if port == noPort {
		return len(outs) == 0
	}
	return len(outs) == 1 && outs[0].Port == uint64(port)
}

func stdMix(seed uint64) []mixPkt { return buildMix(seed, "std", stdSpec, 2, nil) }

func setupFwdStd(cfg *config) (pktSystem, error) {
	sw, err := newRouter(cfg, nil)
	if err != nil {
		return nil, err
	}
	return newRouterSys(sw, stdMix(cfg.Seed)), nil
}

// verifyRouter is the oracle pass shared by the stateless router
// workloads: the whole mix, compiled engine against reference twin.
func verifyRouter(cfg *config, routes []route, mix []mixPkt) (oracleCount, error) {
	sw, ref, err := routerTwin(routes)
	if err != nil {
		return oracleCount{}, err
	}
	o := &oracle{tamper: cfg.tamper}
	o.lockstep("mix", sw, ref, frames(mix), 0, wantPorts(mix))
	return o.oracleCount, nil
}

// routerTwin builds a compiled P4 switch and its reference twin, both
// with the standard rules and routes.
func routerTwin(routes []route) (sw, ref *microp4.Switch, err error) {
	dp, err := buildProgram(nil, "P4", "")
	if err != nil {
		return nil, nil, err
	}
	return twin(dp, func(s *microp4.Switch) error {
		if err := installStdRules(s, "P4"); err != nil {
			return err
		}
		return installRoutes(s, routes)
	})
}

func verifyFwdStd(cfg *config) (oracleCount, error) {
	return verifyRouter(cfg, nil, stdMix(cfg.Seed))
}

func fibMix(seed uint64, routes []route) []mixPkt {
	return buildMix(seed, "fib", stdSpec, 2, fibDst(routes, fibMissEach))
}

func setupFib64k(cfg *config) (pktSystem, error) {
	routes := routeSet(cfg.Seed, fibRoutes)
	sw, err := newRouter(cfg, routes)
	if err != nil {
		return nil, err
	}
	return newRouterSys(sw, fibMix(cfg.Seed, routes)), nil
}

func verifyFib64k(cfg *config) (oracleCount, error) {
	routes := routeSet(cfg.Seed, fibRoutes)
	return verifyRouter(cfg, routes, fibMix(cfg.Seed, routes))
}

// setupObsOn is fwd_std with every observation mechanism attached:
// metrics with per-packet latency sampling, one trace-bus subscriber, a
// span recorder, and packets sent through ProcessHop.
func setupObsOn(cfg *config) (pktSystem, error) {
	sw, err := newRouter(cfg, nil)
	if err != nil {
		return nil, err
	}
	s := newRouterSys(sw, stdMix(cfg.Seed))
	s.send = observe(sw, true, true, true)
	return s, nil
}

// observe turns on the chosen observation mechanisms of a switch and
// returns how packets are to be sent to it: through ProcessHop with a
// fresh trace per packet when hop spans are on — the way a traced
// network hands packets to a switch — and through Process otherwise.
func observe(sw *microp4.Switch, metrics, bus, hop bool) func([]byte) ([]microp4.Output, error) {
	if metrics {
		sw.EnableMetrics()
		sw.SetLatencySampleEvery(1)
	}
	if bus {
		var events uint64
		sw.Subscribe(func(microp4.TraceEvent) { events++ })
	}
	if !hop {
		return func(p []byte) ([]microp4.Output, error) { return sw.Process(p, 0) }
	}
	sw.SetTracing(trace.NewRecorder(8192))
	var tick uint64
	return func(p []byte) ([]microp4.Output, error) {
		tick++
		outs, _, err := sw.ProcessHop(p, 0, trace.HopContext{TraceID: tick, Node: "s1", Tick: tick})
		return outs, err
	}
}

// churnSys is rule_churn: the router mix over 4096 base routes, with a
// write after every burst.
type churnSys struct {
	routerSys
	base  []route
	ops   []churnOp
	nextO int // writes so far
}

func churnMix(seed uint64, base []route) []mixPkt {
	return buildMix(seed, "churn-mix", stdSpec, 2, fibDst(base, fibMissEach))
}

// churnOps sizes the write stream so hosts stay fresh between clears:
// one pass over the base routes per host byte, far more than a clear
// period consumes.
func churnOps(seed uint64, base []route) []churnOp { return churnStream(seed, base, 4*len(base)) }

func setupRuleChurn(cfg *config) (pktSystem, error) {
	base := routeSet(cfg.Seed, churnRoutes)
	sw, err := newRouter(cfg, base)
	if err != nil {
		return nil, err
	}
	return &churnSys{routerSys: *newRouterSys(sw, churnMix(cfg.Seed, base)), base: base, ops: churnOps(cfg.Seed, base)}, nil
}

// step is one burst of reads, then one write: a fresh /32 pointing at
// the other next hop and a probe that must take it (longest prefix
// wins). Every churnClear writes the table is cleared and the base
// routes reinstalled — there is no delete-entry API — so occupancy is a
// stationary sawtooth between 4096 and 4352 entries.
func (s *churnSys) step(rec *recorder) {
	s.burst(rec)
	op := s.ops[s.nextO%len(s.ops)]
	s.nextO++
	id := rec.sp.open("rules.update")
	t0 := time.Now()
	err := s.sw.TryAddEntry(v4Table, lpm(uint64(op.Host), 32), v4Action, op.NH)
	outs, perr := s.sw.Process(op.Probe, 0)
	d := time.Since(t0)
	rec.sp.close(id)
	rec.upd.add(float64(d))
	rec.packets++
	if err != nil || perr != nil || !matches(outs, portOf(op.NH)) {
		rec.fails++
	}
	if s.nextO%churnClear == 0 {
		id := rec.sp.open("rules.install")
		if err := reinstall(s.sw, s.base); err != nil {
			rec.fails++
		}
		rec.sp.close(id)
		rec.period()
	}
}

func reinstall(sw *microp4.Switch, base []route) error {
	if err := sw.TryClearTable(v4Table); err != nil {
		return err
	}
	r := &rules{sw: sw}
	r.add(v4Table, lpm(lib.NetA, 8), v4Action, lib.NhA)
	r.add(v4Table, lpm(lib.NetB, 8), v4Action, lib.NhB)
	if r.err != nil {
		return r.err
	}
	return installRoutes(sw, base)
}

// verifyRuleChurn walks the same read/write state machine on both
// engines for one full clear period and a bit, so the oracle sees the
// table before, across and after a clear + reinstall.
func verifyRuleChurn(cfg *config) (oracleCount, error) {
	base := routeSet(cfg.Seed, churnRoutes)
	sw, ref, err := routerTwin(base)
	if err != nil {
		return oracleCount{}, err
	}
	mix := churnMix(cfg.Seed, base)
	pkts, want := frames(mix), wantPorts(mix)
	ops := churnOps(cfg.Seed, base)
	o := &oracle{tamper: cfg.tamper}
	for step := 0; step < churnClear+8; step++ {
		lo := (step * burstSize) % len(pkts)
		o.lockstep("churn-mix", sw, ref, pkts[lo:lo+burstSize], 0, want[lo:lo+burstSize])
		op := ops[step]
		for _, s := range []*microp4.Switch{sw, ref} {
			if err := s.TryAddEntry(v4Table, lpm(uint64(op.Host), 32), v4Action, op.NH); err != nil {
				return oracleCount{}, err
			}
		}
		o.lockstep("churn-probe", sw, ref, [][]byte{op.Probe}, 0, []int{portOf(op.NH)})
		if (step+1)%churnClear == 0 {
			for _, s := range []*microp4.Switch{sw, ref} {
				if err := reinstall(s, base); err != nil {
					return oracleCount{}, err
				}
			}
		}
	}
	return o.oracleCount, nil
}
