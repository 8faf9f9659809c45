package main

import (
	"bytes"
	"math"
	"testing"

	"microp4/internal/lib"
	"microp4/internal/pkt"
)

func sameFrames(a, b [][]byte) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if !bytes.Equal(a[i], b[i]) {
			return false
		}
	}
	return true
}

// TestGeneratorsAreSeeded: the same seed gives byte-identical packets
// and rule sequences, another seed gives different ones.
func TestGeneratorsAreSeeded(t *testing.T) {
	gens := map[string]func(seed uint64) [][]byte{
		"stdMix":  func(s uint64) [][]byte { return frames(stdMix(s)) },
		"fibMix":  func(s uint64) [][]byte { return frames(fibMix(s, routeSet(s, 512))) },
		"lineMix": func(s uint64) [][]byte { return frames(lineMix(s)) },
		"churn": func(s uint64) [][]byte {
			var out [][]byte
			for _, op := range churnStream(s, routeSet(s, 64), 256) {
				out = append(out, op.Probe, []byte{byte(op.Host >> 24), byte(op.Host >> 16), byte(op.Host >> 8), byte(op.Host), byte(op.NH)})
			}
			return out
		},
		"flowPlan": func(s uint64) [][]byte {
			p := newFlowPlan(s)
			out := append(append([][]byte{}, p.VIP...), p.Plain...)
			pkts, who := make([][]byte, batchSize), make([]int, batchSize)
			cold := 0
			for b := 0; b < 4; b++ {
				p.batch(b, &cold, pkts, who)
				out = append(out, pkts...)
			}
			return out
		},
		"routes": func(s uint64) [][]byte {
			var out [][]byte
			for _, r := range routeSet(s, 256) {
				out = append(out, []byte{byte(r.Prefix >> 24), byte(r.Prefix >> 16), byte(r.Prefix >> 8), byte(r.NH)})
			}
			return out
		},
	}
	for name, gen := range gens {
		if !sameFrames(gen(7), gen(7)) {
			t.Errorf("%s: seed 7 twice gave different output", name)
		}
		if sameFrames(gen(7), gen(8)) {
			t.Errorf("%s: seeds 7 and 8 gave identical output", name)
		}
	}
}

func share(n, of int) float64 { return float64(n) / float64(of) }

func within(got, want, tol float64) bool { return math.Abs(got-want) <= tol }

// TestMixProportions: frame sizes 64/576/1500 at 7:4:1 and 5 % of the
// router mix off the fast path, each within one point.
func TestMixProportions(t *testing.T) {
	for seed := uint64(1); seed <= 5; seed++ {
		for name, mix := range map[string][]mixPkt{"std": stdMix(seed), "line": lineMix(seed),
			"fib": fibMix(seed, routeSet(seed, 1024))} {
			sizes := map[int]int{}
			off, intact := 0, 0
			for _, m := range mix {
				if m.Kind.offFastPath() {
					off++
				}
				if m.Kind == kindTruncated {
					if len(m.Data) != truncatedLen {
						t.Errorf("%s seed %d: truncated frame of %d bytes", name, seed, len(m.Data))
					}
					continue
				}
				intact++
				sizes[len(m.Data)]++
				if len(m.Data) != m.Size {
					t.Errorf("%s seed %d: frame of %d bytes labelled %d", name, seed, len(m.Data), m.Size)
				}
			}
			if len(mix) != 256 {
				t.Errorf("%s seed %d: %d frames, want 256", name, seed, len(mix))
			}
			for i, sz := range frameSizes {
				want := float64(frameWeights[i]) / 12
				if got := share(sizes[sz], intact); !within(got, want, 0.01) {
					t.Errorf("%s seed %d: %d-byte frames are %.3f of the mix, want %.3f", name, seed, sz, got, want)
				}
			}
			wantOff := 0.05
			if name == "line" {
				wantOff = 0
			}
			if got := share(off, len(mix)); !within(got, wantOff, 0.01) {
				t.Errorf("%s seed %d: %.3f off the fast path, want %.2f", name, seed, got, wantOff)
			}
		}
	}
}

// TestFibMixTargets: IPv4 destinations fall inside installed prefixes,
// except one in ten that misses everything; mix hosts stay clear of the
// host range the churn stream writes /32s for.
func TestFibMixTargets(t *testing.T) {
	routes := routeSet(3, 1024)
	installed := map[uint32]route{}
	for _, r := range routes {
		if _, dup := installed[r.Prefix]; dup {
			t.Fatalf("route %#x generated twice", r.Prefix)
		}
		if top := r.Prefix >> 24; top == lib.NetA>>24 || top == lib.NetB>>24 || top >= 224 || r.Prefix&0xFF != 0 {
			t.Errorf("route %#x falls in a reserved range", r.Prefix)
		}
		installed[r.Prefix] = r
	}
	v4, miss := 0, 0
	for _, m := range fibMix(3, routes) {
		if m.Kind != kindV4 {
			continue
		}
		v4++
		dst := pkt.IPv4Dst(m.Data, 14)
		r, ok := installed[dst&^0xFF]
		switch {
		case !ok && m.Port == noPort:
			miss++
		case !ok:
			t.Errorf("destination %#x matches no route but expects port %d", dst, m.Port)
		case m.Port != portOf(r.NH):
			t.Errorf("destination %#x expects port %d, its route says %d", dst, m.Port, portOf(r.NH))
		case dst&0xFF < firstMixHost:
			t.Errorf("destination %#x uses a host the churn stream owns", dst)
		}
	}
	if got := share(miss, v4); !within(got, 0.10, 0.01) {
		t.Errorf("%.3f of IPv4 destinations miss, want 0.10", got)
	}
}

// TestChurnStream: every write is a fresh /32 inside a base route that
// points at the other next hop, and its probe addresses exactly it.
func TestChurnStream(t *testing.T) {
	base := routeSet(5, churnRoutes)
	nh := map[uint32]uint64{}
	for _, r := range base {
		nh[r.Prefix] = r.NH
	}
	seen := map[uint32]bool{}
	for i, op := range churnOps(5, base) {
		if seen[op.Host] {
			t.Fatalf("write %d repeats host %#x", i, op.Host)
		}
		seen[op.Host] = true
		was, ok := nh[op.Host&^0xFF]
		if !ok || was == op.NH {
			t.Fatalf("write %d: host %#x next hop %d, base route has %d (present %v)", i, op.Host, op.NH, was, ok)
		}
		if h := op.Host & 0xFF; h == 0 || h > churnHosts {
			t.Fatalf("write %d: host byte %d outside 1..%d", i, h, churnHosts)
		}
		if pkt.IPv4Dst(op.Probe, 14) != op.Host {
			t.Fatalf("write %d: probe addresses %#x, not %#x", i, pkt.IPv4Dst(op.Probe, 14), op.Host)
		}
	}
}

// TestFlowPlanShape: 80 % of slots go to the 256 hot clients, the cold
// tail is walked round-robin, and every fourth slot is pass-through.
func TestFlowPlanShape(t *testing.T) {
	p := newFlowPlan(11)
	pkts, who := make([][]byte, batchSize), make([]int, batchSize)
	cold, hot, plain, total := 0, 0, 0, 0
	lastCold := -1
	for b := 0; b < 2*planBatches; b++ {
		p.batch(b, &cold, pkts, who)
		for i, w := range who {
			total++
			c := w
			if w < 0 {
				plain++
				c = -1 - w
				if !bytes.Equal(pkts[i], p.Plain[c]) {
					t.Fatalf("batch %d slot %d: pass-through slot carries another frame", b, i)
				}
			} else if !bytes.Equal(pkts[i], p.VIP[c]) {
				t.Fatalf("batch %d slot %d: VIP slot carries another frame", b, i)
			}
			if c < hotFlows {
				hot++
				continue
			}
			if want := hotFlows + (lastCold+1)%coldFlows; c != want {
				t.Fatalf("batch %d slot %d: cold client %d, want %d (round-robin)", b, i, c, want)
			}
			lastCold = c - hotFlows
		}
	}
	if got := share(hot, total); !within(got, 0.80, 0.01) {
		t.Errorf("%.3f of slots are hot, want 0.80", got)
	}
	if got := share(plain, total); !within(got, 1.0/plainEvery, 0.01) {
		t.Errorf("%.3f of slots are pass-through, want %.2f", got, 1.0/plainEvery)
	}
}

func TestApportion(t *testing.T) {
	for _, n := range []int{0, 1, 12, 252, 256, 1000} {
		got := apportion(n, frameWeights[:])
		if got[0]+got[1]+got[2] != n {
			t.Errorf("apportion(%d) = %v does not sum to %d", n, got, n)
		}
	}
	if got := apportion(252, frameWeights[:]); got[0] != 147 || got[1] != 84 || got[2] != 21 {
		t.Errorf("apportion(252) = %v, want [147 84 21]", got)
	}
}
