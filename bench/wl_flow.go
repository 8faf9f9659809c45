package main

import (
	"time"

	"microp4"
	"microp4/internal/lib"
	"microp4/internal/pkt"
)

// flow_batch: P11 (ACL + L4 balancer with a flowtable extern) driven
// through ProcessBatchInto with 256-packet batches on two workers.

const (
	flowTablePath = "bal_i.conn"
	batchWorkers  = 2
)

type flowSys struct {
	sw      *microp4.Switch
	plan    *flowPlan
	batchNo int
	cold    int
	pkts    [][]byte
	who     []int
	results []microp4.BatchResult
	backend []uint32 // backend address first seen per client's VIP flow (0 = none yet)
}

func newFlowSwitch(cfg *config, workers int) (*microp4.Switch, error) {
	sp := cfg.Spans
	dp, err := buildProgram(sp, "P11", "")
	if err != nil {
		return nil, err
	}
	end := sp.begin("switch.new")
	sw := dp.NewSwitch()
	sw.SetWorkers(workers)
	end()
	end = sp.begin("rules.install")
	defer end()
	return sw, installStdRules(sw, "P11")
}

func newFlowSys(sw *microp4.Switch, plan *flowPlan) *flowSys {
	return &flowSys{sw: sw, plan: plan, pkts: make([][]byte, batchSize), who: make([]int, batchSize),
		backend: make([]uint32, hotFlows+coldFlows)}
}

func setupFlowBatch(cfg *config) (pktSystem, error) {
	sw, err := newFlowSwitch(cfg, batchWorkers)
	if err != nil {
		return nil, err
	}
	return newFlowSys(sw, newFlowPlan(cfg.Seed)), nil
}

func (s *flowSys) newRound(*spans) error { return nil }

// step runs one batch: assemble it (pointer copies, off the clock),
// time the ProcessBatchInto call, then consume the results: every packet
// must be forwarded, VIP packets to the backend fabric port with the
// destination rewritten to a backend — the same backend every time the
// flow is seen, however the two workers interleave.
//
// The pool hands a 256-packet batch to two workers in four chunks, so a
// batch costs two chunk times or — when one worker wakes late — three: a
// two-valued distribution whose upper mode holds 5 to 15 % of the
// batches, which leaves a per-batch p90 flipping between the modes from
// run to run. A timing sample is therefore one pass over the plan's
// batches (see recorder.burst), which turns the flips into a count of
// late wake-ups.
func (s *flowSys) step(rec *recorder) {
	s.fill()
	id := rec.sp.open("switch.batch")
	t0 := time.Now()
	s.results = s.sw.ProcessBatchInto(s.pkts, lib.PortA, s.results)
	d := time.Since(t0)
	rec.sp.close(id)
	rec.fails += s.consume()
	rec.burst(d, batchSize)
}

// fill assembles the plan's next batch into s.pkts and s.who.
func (s *flowSys) fill() {
	s.plan.batch(s.batchNo, &s.cold, s.pkts, s.who)
	s.batchNo++
}

// runBatch sends the plan's next batch untimed and returns how many of
// its packets went wrong.
func (s *flowSys) runBatch() (fails int64) {
	s.fill()
	s.results = s.sw.ProcessBatchInto(s.pkts, lib.PortA, s.results)
	return s.consume()
}

func (s *flowSys) consume() (fails int64) {
	for i := range s.results {
		r := &s.results[i]
		if !s.ok(r, s.who[i]) {
			fails++
		}
		r.Release()
	}
	s.sw.Digests() // drain so the slice cannot grow without bound
	return fails
}

func (s *flowSys) ok(r *microp4.BatchResult, who int) bool {
	if r.Err != nil || len(r.Out) != 1 {
		return false
	}
	if who < 0 { // pass-through: upstream port, untouched destination
		return r.Out[0].Port == lib.PortA
	}
	dst := pkt.IPv4Dst(r.Out[0].Data, 14)
	if r.Out[0].Port != lib.PortB || dst <= lib.NetB || dst > lib.NetB+lib.NumBackends {
		return false
	}
	if s.backend[who] == 0 {
		s.backend[who] = dst
	}
	return s.backend[who] == dst
}

func (s *flowSys) aux(m map[string]metricValue) {
	st := s.sw.FlowTable(flowTablePath).Stats()
	if n := st.Hits + st.Misses; n > 0 {
		m["flow_hit_ratio"] = metricValue{Value: float64(st.Hits) / float64(n), Unit: "ratio", N: int(n)}
	}
}

// verifyFlowBatch checks the stateful program in lockstep — compiled
// engine and reference twin fed the same packets serially from the same
// fresh state, flow tables compared at the end — and then repeats the
// sequence on a two-worker switch asserting same-flow → same-backend.
func verifyFlowBatch(cfg *config) (oracleCount, error) {
	dp, err := buildProgram(nil, "P11", "")
	if err != nil {
		return oracleCount{}, err
	}
	sw, ref, err := twin(dp, func(s *microp4.Switch) error { return installStdRules(s, "P11") })
	if err != nil {
		return oracleCount{}, err
	}
	plan := newFlowPlan(cfg.Seed)
	o := &oracle{tamper: cfg.tamper}
	const batches = 8
	probe := newFlowSys(sw, plan)
	for b := 0; b < batches; b++ {
		probe.fill()
		o.lockstep("flows", sw, ref, probe.pkts, lib.PortA, nil)
	}
	a, b := sw.FlowTable(flowTablePath).Entries(), ref.FlowTable(flowTablePath).Entries()
	o.Attempted++
	if len(a) != len(b) {
		o.fail("flow table holds %d entries, reference %d", len(a), len(b))
	} else {
		for i := range a {
			if a[i].Key != b[i].Key || a[i].State != b[i].State || a[i].Val != b[i].Val || a[i].Expire != b[i].Expire {
				o.fail("flow table entry %d: %+v, reference %+v", i, a[i], b[i])
				break
			}
		}
	}

	par, err := newFlowSwitch(&config{}, batchWorkers)
	if err != nil {
		return oracleCount{}, err
	}
	sticky := newFlowSys(par, plan)
	for b := 0; b < batches; b++ {
		o.Attempted += batchSize
		if f := sticky.runBatch(); f > 0 {
			o.failN(f, "two-worker batch %d: %d packets misforwarded or moved backend", b, f)
		}
	}
	return o.oracleCount, nil
}
