package main

import (
	"bytes"
	"fmt"
	"time"

	"microp4"
	"microp4/internal/lib"
	"microp4/internal/netsim"
	"microp4/internal/pkt"
)

// net_3hop: three P4 switches in a line on netsim, lossless links.
// s1:0 is the ingress, s1:1-s2:0 and s2:1-s3:0 the links, s3:1 the
// egress. Network.Egress is append-only with no drain call, and a
// reused network's rate drifts as the log grows, so the network is
// rebuilt off the clock before every round.

var lineNodes = [3]string{"s1", "s2", "s3"}

// newLine wires three processors into the line topology.
func newLine(seed uint64, hops [3]netsim.Processor) (*netsim.Network, error) {
	n := netsim.New(seed)
	for i, h := range hops {
		if err := n.AddSwitch(lineNodes[i], h); err != nil {
			return nil, err
		}
	}
	if err := n.Connect("s1", 1, "s2", 0, netsim.FaultModel{}); err != nil {
		return nil, err
	}
	if err := n.Connect("s2", 1, "s3", 0, netsim.FaultModel{}); err != nil {
		return nil, err
	}
	return n, nil
}

// newLineSwitches builds the three hop switches from one dataplane.
func newLineSwitches(sp *spans, dp *microp4.Dataplane, engine microp4.Engine) ([3]*microp4.Switch, error) {
	var sws [3]*microp4.Switch
	for i := range sws {
		end := sp.begin("switch.new")
		sws[i] = dp.NewSwitchWith(engine)
		end()
		end = sp.begin("rules.install")
		err := installLineHop(sws[i], i+1)
		end()
		if err != nil {
			return sws, err
		}
	}
	return sws, nil
}

func asProcessors(sws [3]*microp4.Switch) [3]netsim.Processor {
	return [3]netsim.Processor{sws[0], sws[1], sws[2]}
}

type netSys struct {
	seed uint64
	sws  [3]*microp4.Switch
	n    *netsim.Network
	pkts [][]byte
	next int
	seen int // egress records already checked
}

// lineMix is the three-hop traffic: hop limits of at least 4 and IPv4
// destinations inside NetA, the one IPv4 prefix the line routes.
func lineMix(seed uint64) []mixPkt {
	return buildMix(seed, "line", lineSpec, 4, func(r *rng) (uint32, int) {
		return lib.NetA | uint32(r.next()&0xFFFFFE) + 1, 1
	})
}

func setupNet3Hop(cfg *config) (pktSystem, error) {
	dp, err := buildProgram(cfg.Spans, "P4", "")
	if err != nil {
		return nil, err
	}
	sws, err := newLineSwitches(cfg.Spans, dp, microp4.EngineCompiled)
	if err != nil {
		return nil, err
	}
	s := &netSys{seed: cfg.Seed, sws: sws, pkts: frames(lineMix(cfg.Seed))}
	return s, s.newRound(cfg.Spans)
}

func (s *netSys) newRound(sp *spans) error {
	defer sp.begin("netsim.new")()
	n, err := newLine(s.seed, asProcessors(s.sws))
	s.n, s.seen = n, 0
	return err
}

// step injects 32 packets at s1:0 and runs the network to quiescence,
// timed as one burst; then every packet must have left s3:1 with its
// TTL down by three and the third hop's MACs.
func (s *netSys) step(rec *recorder) {
	lo := s.next
	s.next = (s.next + burstSize) % len(s.pkts)
	id := rec.sp.open("netsim.run")
	t0 := time.Now()
	var bad int64
	for i := lo; i < lo+burstSize; i++ {
		if s.n.Inject("s1", 0, s.pkts[i]) != nil {
			bad++
		}
	}
	_, err := s.n.Run(0)
	d := time.Since(t0)
	rec.sp.close(id)
	rec.burst(d, burstSize)
	if err != nil {
		bad++
	}
	out := s.n.Egress("s3")[s.seen:]
	s.seen += len(out)
	bad += checkLineEgress(out, s.pkts[lo:lo+burstSize])
	rec.fails += bad
}

// checkLineEgress counts the sent packets that did not come out of
// s3:1 as the line should have left them (order is preserved on
// lossless links).
func checkLineEgress(out []netsim.Delivery, sent [][]byte) (bad int64) {
	for i, p := range sent {
		if i >= len(out) || !crossedLine(out[i], p) {
			bad++
		}
	}
	return bad
}

func crossedLine(d netsim.Delivery, sent []byte) bool {
	got := d.Data
	if d.Port != 1 || len(got) != len(sent) ||
		pkt.EthDst(got) != lineDmac(3) || pkt.EthSrc(got) != lineSmac(3) {
		return false
	}
	if pkt.EthType(sent) == pkt.EtherTypeIPv4 {
		return pkt.IPv4TTL(got, 14) == pkt.IPv4TTL(sent, 14)-3 && bytes.Equal(got[23:], sent[23:])
	}
	return pkt.IPv6HopLimit(got, 14) == pkt.IPv6HopLimit(sent, 14)-3 && bytes.Equal(got[22:], sent[22:])
}

// verifyNet3Hop runs the whole mix through a compiled-engine line and a
// reference-interpreter line and compares the egress byte for byte.
func verifyNet3Hop(cfg *config) (oracleCount, error) {
	dp, err := buildProgram(nil, "P4", "")
	if err != nil {
		return oracleCount{}, err
	}
	pkts := frames(lineMix(cfg.Seed))
	var eg [2][]netsim.Delivery
	for k, engine := range []microp4.Engine{microp4.EngineCompiled, microp4.EngineReference} {
		sws, err := newLineSwitches(nil, dp, engine)
		if err != nil {
			return oracleCount{}, err
		}
		n, err := newLine(cfg.Seed, asProcessors(sws))
		if err != nil {
			return oracleCount{}, err
		}
		for _, p := range pkts {
			if err := n.Inject("s1", 0, p); err != nil {
				return oracleCount{}, err
			}
		}
		if _, err := n.Run(0); err != nil {
			return oracleCount{}, fmt.Errorf("line run: %w", err)
		}
		eg[k] = n.Egress("s3")
	}
	o := &oracle{tamper: cfg.tamper}
	for i, p := range pkts {
		var got, want []microp4.Output
		if i < len(eg[0]) {
			got = []microp4.Output{{Port: eg[0][i].Port, Data: eg[0][i].Data}}
		}
		if i < len(eg[1]) {
			want = []microp4.Output{{Port: eg[1][i].Port, Data: eg[1][i].Data}}
		}
		before := o.Failed
		o.same("line", i, got, nil, want, nil)
		if o.Failed == before && (len(got) != 1 || !crossedLine(eg[0][i], p)) {
			o.fail("line packet %d: did not leave s3:1 with TTL-3 and the third hop's MACs", i)
		}
	}
	return o.oracleCount, nil
}
