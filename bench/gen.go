package main

import (
	"microp4/internal/lib"
	"microp4/internal/pkt"
)

// Seeded generators for everything the workloads feed the system under
// test: traffic mixes, route sets, the churn stream and the flow plan.
// The same seed yields byte-identical packets and rule sequences; the
// proportions the workloads are defined by (sizes 7:4:1, 5 % off the
// fast path, 80/20 hot/cold) are exact counts, shuffled, not draws — so
// two seeds differ in content, never in shape, and run-to-run spread is
// the machine's, not the generator's.

// rng is splitmix64: small, fast, and independent of math/rand's
// algorithm across Go releases.
type rng struct{ s uint64 }

// newRNG derives an independent stream from a seed and a stream name,
// so adding a generator never perturbs the others.
func newRNG(seed uint64, stream string) *rng {
	h := uint64(1469598103934665603)
	for i := 0; i < len(stream); i++ {
		h ^= uint64(stream[i])
		h *= 1099511628211
	}
	r := &rng{s: seed ^ h}
	r.next()
	return r
}

func (r *rng) next() uint64 {
	r.s += 0x9E3779B97F4A7C15
	x := r.s
	x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9
	x = (x ^ (x >> 27)) * 0x94D049BB133111EB
	return x ^ (x >> 31)
}

func (r *rng) intn(n int) int { return int(r.next() % uint64(n)) }

// perm returns a seeded permutation of 0..n-1 (Fisher-Yates).
func (r *rng) perm(n int) []int {
	idx := make([]int, n)
	for i := range idx {
		idx[i] = i
	}
	for i := n - 1; i > 0; i-- {
		j := r.intn(i + 1)
		idx[i], idx[j] = idx[j], idx[i]
	}
	return idx
}

// Packet kinds of the router mixes.
type pktKind uint8

const (
	kindV4         pktKind = iota // routable IPv4/TCP
	kindV6                        // routable IPv6
	kindTTLExpired                // IPv4 with TTL 0: dropped by the IPv4 module
	kindUnroutable                // IPv4 to a prefix no table holds: default route, dropped
	kindTruncated                 // cut inside the IPv4 header: parser reject
)

func (k pktKind) offFastPath() bool { return k >= kindTTLExpired }

// Frame sizes of the mixes, in the ratio 7:4:1.
var (
	frameSizes   = [3]int{64, 576, 1500}
	frameWeights = [3]int{7, 4, 1}
)

const (
	truncatedLen = 24         // Ethernet + 10 bytes of IPv4
	missNet      = 0xF0000000 // 240.0.0.0/4: never installed by any route set
	unroutedNet  = 0x1E000000 // 30.0.0.0/8: likewise
)

// mixPkt is one generated frame with what the generator meant it to be.
type mixPkt struct {
	Data []byte
	Kind pktKind
	Size int // intended frame size (before truncation)
	Port int // egress port the rules should send it to, noPort when it must be dropped
}

const noPort = -1

// mixSpec fixes a mix's shape: how many frames of each kind.
type mixSpec struct {
	V4, V6, TTLExpired, Unroutable, Truncated int
}

// stdSpec is the 256-packet router mix: 243 routable frames split
// between IPv4/TCP and IPv6, and 13 (5 %) off the fast path.
var stdSpec = mixSpec{V4: 122, V6: 121, TTLExpired: 5, Unroutable: 4, Truncated: 4}

// lineSpec is the three-hop mix: every frame must cross all three hops.
var lineSpec = mixSpec{V4: 128, V6: 128}

func (s mixSpec) total() int { return s.V4 + s.V6 + s.TTLExpired + s.Unroutable + s.Truncated }

// apportion splits n into parts proportional to weights by largest
// remainder, so the parts sum to n exactly.
func apportion(n int, weights []int) []int {
	sum := 0
	for _, w := range weights {
		sum += w
	}
	out := make([]int, len(weights))
	rem := make([]int, len(weights))
	left := n
	for i, w := range weights {
		out[i] = n * w / sum
		rem[i] = n * w % sum
		left -= out[i]
	}
	for ; left > 0; left-- {
		best := 0
		for i := range rem {
			if rem[i] > rem[best] {
				best = i
			}
		}
		out[best]++
		rem[best] = -1
	}
	return out
}

// buildMix generates a router mix of the given shape. dst4 picks the
// IPv4 destination of routable IPv4 frames and says which port the
// installed routes send it to (nil: a host in NetA or NetB); minTTL is
// the smallest TTL/hop limit a routable frame carries. Sizes are
// apportioned 7:4:1 over the intact frames. The mix is a whole number
// of bursts.
func buildMix(seed uint64, stream string, spec mixSpec, minTTL int, dst4 func(*rng) (uint32, int)) []mixPkt {
	r := newRNG(seed, stream)
	n := spec.total()
	kinds := make([]pktKind, 0, n)
	for k, c := range []int{spec.V4, spec.V6, spec.TTLExpired, spec.Unroutable, spec.Truncated} {
		for i := 0; i < c; i++ {
			kinds = append(kinds, pktKind(k))
		}
	}
	intact := n - spec.Truncated
	sizes := make([]int, 0, intact)
	for c, cnt := range apportion(intact, frameWeights[:]) {
		for i := 0; i < cnt; i++ {
			sizes = append(sizes, frameSizes[c])
		}
	}

	// Deal kinds and sizes to the bursts like cards, so every burst of
	// the mix has the same composition to within one frame; only the
	// order inside a burst, and which size meets which kind, is seeded.
	bursts := n / burstSize
	slotKind, slotSize := make([]pktKind, n), make([]int, n)
	for b := 0; b < bursts; b++ {
		var hand []pktKind
		for i := b; i < n; i += bursts {
			hand = append(hand, kinds[i])
		}
		for i, j := range r.perm(burstSize) {
			slotKind[b*burstSize+i] = hand[j]
		}
	}
	nextSize := 0
	for i := 0; i < burstSize; i++ {
		for b := 0; b < bursts; b++ {
			if s := b*burstSize + i; slotKind[s] != kindTruncated {
				slotSize[s] = sizes[nextSize]
				nextSize++
			} else {
				slotSize[s] = frameSizes[0]
			}
		}
	}
	order := make([]int, 0, n) // final position -> dealt slot
	for b := 0; b < bursts; b++ {
		for _, j := range r.perm(burstSize) {
			order = append(order, b*burstSize+j)
		}
	}

	if dst4 == nil {
		dst4 = func(r *rng) (uint32, int) {
			host := uint32(r.next()&0xFFFFFE) + 1
			if r.next()&1 == 0 {
				return lib.NetA | host, lib.PortA
			}
			return lib.NetB | host, lib.PortB
		}
	}
	out := make([]mixPkt, n)
	for slot, dealt := range order {
		kind, size := slotKind[dealt], slotSize[dealt]
		ttl := uint8(minTTL + r.intn(256-minTTL))
		src := uint32(r.next())
		sport, dport := uint16(1024+r.intn(60000)), uint16(1+r.intn(1023))
		var data []byte
		port := noPort
		switch kind {
		case kindV6:
			port = lib.PortV6
			data = pkt.NewBuilder().Ethernet(lib.DmacA, 2, pkt.EtherTypeIPv6).
				IPv6(pkt.IPv6Opts{NextHdr: pkt.ProtoNoNext, HopLimit: ttl, PayloadLen: uint16(size - 54),
					SrcHi: lib.NetV6Hi, SrcLo: r.next(), DstHi: lib.NetV6Hi, DstLo: r.next() | 1}).
				Payload(payload(r, size-54)).Bytes()
		default:
			dst := lib.NetA | uint32(r.next()&0xFFFFFE) + 1
			switch kind {
			case kindV4:
				dst, port = dst4(r)
			case kindTTLExpired:
				ttl = 0
			case kindUnroutable:
				dst = unroutedNet | uint32(r.next()&0xFFFFFF)
			}
			data = pkt.NewBuilder().Ethernet(lib.DmacA, 2, pkt.EtherTypeIPv4).
				IPv4(pkt.IPv4Opts{TTL: ttl, Protocol: pkt.ProtoTCP, Src: src, Dst: dst,
					TotalLen: uint16(size - 14), ID: uint16(r.next())}).
				TCP(sport, dport).Payload(payload(r, size-54)).Bytes()
			if kind == kindTruncated {
				data = data[:truncatedLen]
			}
		}
		out[slot] = mixPkt{Data: data, Kind: kind, Size: size, Port: port}
	}
	return out
}

func payload(r *rng, n int) []byte {
	p := make([]byte, n)
	for i := 0; i < n; i += 8 {
		v := r.next()
		for j := 0; j < 8 && i+j < n; j++ {
			p[i+j] = byte(v >> (8 * j))
		}
	}
	return p
}

// wantPorts returns the egress port the generator meant for each frame.
func wantPorts(mix []mixPkt) []int {
	out := make([]int, len(mix))
	for i := range mix {
		out[i] = mix[i].Port
	}
	return out
}

// frames returns the raw bytes of a mix.
func frames(mix []mixPkt) [][]byte {
	out := make([][]byte, len(mix))
	for i := range mix {
		out[i] = mix[i].Data
	}
	return out
}

// route is one /24 IPv4 route to a next hop.
type route struct {
	Prefix uint32 // network address, low 8 bits zero
	NH     uint64
}

// routeSet returns n distinct seeded /24 routes. Prefixes come from an
// odd-multiplier walk over the 24-bit prefix space (a bijection, so no
// duplicates), skipping the ranges the standard rules and the miss
// generators own; next hops alternate pseudo-randomly between the two
// the standard forward table knows.
func routeSet(seed uint64, n int) []route {
	r := newRNG(seed, "routes")
	mul := uint32(r.next())&0xFFFFFF | 1
	off := uint32(r.next()) & 0xFFFFFF
	out := make([]route, 0, n)
	for i := uint32(0); len(out) < n; i++ {
		p24 := (i*mul + off) & 0xFFFFFF
		switch top := p24 >> 16; {
		case top == 0, top == lib.NetA>>24, top == lib.NetB>>24, top == unroutedNet>>24, top == 127, top >= 224:
			continue
		}
		nh := uint64(lib.NhA)
		if r.next()&1 == 1 {
			nh = lib.NhB
		}
		out = append(out, route{Prefix: p24 << 8, NH: nh})
	}
	return out
}

// portOf maps the standard next hops to their egress ports.
func portOf(nh uint64) int {
	if nh == lib.NhB {
		return lib.PortB
	}
	return lib.PortA
}

// fibDst returns a destination picker for a route set: a host inside a
// uniformly chosen installed prefix, or (every missEvery-th call, an exact
// cadence rather than a draw) an address no prefix covers.
func fibDst(routes []route, missEvery int) func(*rng) (uint32, int) {
	n := 0
	return func(r *rng) (uint32, int) {
		n++
		if missEvery > 0 && n%missEvery == 0 {
			return missNet | uint32(r.next()&0x0FFFFFFF), noPort
		}
		rt := routes[r.intn(len(routes))]
		return rt.Prefix | uint32(firstMixHost+r.intn(255-firstMixHost)), portOf(rt.NH)
	}
}

// Host bytes inside a /24: the churn stream installs /32s for hosts
// below firstMixHost, the mixes address hosts from it upward, so a
// fresh /32 never captures mix traffic.
const (
	churnHosts   = 4
	firstMixHost = 8
)

// churnOp is one step of the rule_churn write stream: install a /32
// inside base route Base that points at the other next hop, then probe
// it.
type churnOp struct {
	Host  uint32
	NH    uint64
	Probe []byte
}

// churnStream returns n write steps over a base route set: step i uses
// base route i (mod len, in a seeded order) and a host byte that
// advances every wrap, so no host repeats within churnHosts passes.
func churnStream(seed uint64, base []route, n int) []churnOp {
	r := newRNG(seed, "churn")
	order := r.perm(len(base))
	out := make([]churnOp, n)
	for i := range out {
		rt := base[order[i%len(order)]]
		host := rt.Prefix | uint32(1+(i/len(order))%churnHosts)
		nh := uint64(lib.NhA)
		if rt.NH == lib.NhA {
			nh = lib.NhB
		}
		probe := pkt.NewBuilder().Ethernet(lib.DmacA, 2, pkt.EtherTypeIPv4).
			IPv4(pkt.IPv4Opts{TTL: 64, Protocol: pkt.ProtoTCP, Src: uint32(r.next()), Dst: host, TotalLen: 50}).
			TCP(uint16(1024+r.intn(60000)), 80).Payload(payload(r, 10)).Bytes()
		out[i] = churnOp{Host: host, NH: nh, Probe: probe}
	}
	return out
}

// Flow plan of flow_batch.
const (
	hotFlows     = 256
	coldFlows    = 4096
	batchSize    = 256
	planBatches  = 64
	hotPerBatch  = 205 // 80.08 % of a batch
	plainEvery   = 4   // every 4th slot is pass-through (non-VIP) traffic
	plainDstHost = 7
)

// flowPlan is the seeded flow_batch traffic: per-client VIP and
// pass-through frames, and for each of planBatches batches which client
// fills each slot. Hot slots draw uniformly from the hot clients (so a
// hot flow's inter-arrival gap varies and it gets established); cold
// slots walk the cold tail round-robin across batches, which keeps
// every cold flow's gap far beyond the idle TTL: it always ages out and
// is relearned.
type flowPlan struct {
	VIP, Plain [][]byte // indexed by client: hot clients first, then cold
	Slots      [planBatches][batchSize]planSlot
}

type planSlot struct {
	Hot   bool
	Plain bool
	Hotix uint16 // hot client index, when Hot
}

func newFlowPlan(seed uint64) *flowPlan {
	r := newRNG(seed, "flows")
	p := &flowPlan{}
	clients := hotFlows + coldFlows
	base := uint32(r.next()) & 0x00FF0000 // clients live in 10.x.0.0/16, x seeded
	for c := 0; c < clients; c++ {
		src := lib.NetA | base | uint32(c+1)
		sport := uint16(2000 + r.intn(50000))
		p.VIP = append(p.VIP, pkt.NewBuilder().Ethernet(lib.DmacA, 2, pkt.EtherTypeIPv4).
			IPv4(pkt.IPv4Opts{TTL: 64, Protocol: pkt.ProtoTCP, Src: src, Dst: lib.VipAddr, TotalLen: 104}).
			TCP(sport, lib.VipPort).Payload(payload(r, 64)).Bytes())
		p.Plain = append(p.Plain, pkt.NewBuilder().Ethernet(lib.DmacA, 2, pkt.EtherTypeIPv4).
			IPv4(pkt.IPv4Opts{TTL: 64, Protocol: pkt.ProtoTCP, Src: src, Dst: lib.NetB | plainDstHost, TotalLen: 104}).
			TCP(sport, 8443).Payload(payload(r, 64)).Bytes())
	}
	for b := range p.Slots {
		for i, s := range r.perm(batchSize) {
			sl := &p.Slots[b][s]
			sl.Plain = s%plainEvery == plainEvery-1
			if i < hotPerBatch {
				sl.Hot = true
				sl.Hotix = uint16(r.intn(hotFlows))
			}
		}
	}
	return p
}

// batch fills dst with batch b of the plan and records each slot's
// client in who. cold is the running cold-tail cursor, advanced here.
func (p *flowPlan) batch(b int, cold *int, dst [][]byte, who []int) {
	slots := &p.Slots[b%planBatches]
	for i := range slots {
		sl := slots[i]
		c := int(sl.Hotix)
		if !sl.Hot {
			c = hotFlows + *cold%coldFlows
			*cold++
		}
		who[i] = c
		if sl.Plain {
			who[i] = -1 - c
			dst[i] = p.Plain[c]
		} else {
			dst[i] = p.VIP[c]
		}
	}
}

// p4Probe is a small routable-by-destination IPv4/TCP frame.
func p4Probe(dst uint32) []byte {
	return pkt.NewBuilder().Ethernet(lib.DmacA, 2, pkt.EtherTypeIPv4).
		IPv4(pkt.IPv4Opts{TTL: 64, Protocol: pkt.ProtoTCP, Src: 0xC0A80001, Dst: dst, TotalLen: 50}).
		TCP(40000, 80).Payload(make([]byte, 10)).Bytes()
}

// P9 flow packets for ctl_ops: flow i's forward (inside to outside,
// enters on PortA) and return (enters on PortB) frames.
func p9Fwd(base uint32, i int) []byte {
	return pkt.NewBuilder().Ethernet(lib.DmacA, 2, pkt.EtherTypeIPv4).
		IPv4(pkt.IPv4Opts{TTL: 64, Protocol: pkt.ProtoTCP,
			Src: lib.NetA | base | uint32(i+1), Dst: lib.NetB | base | uint32(i+1), TotalLen: 50}).
		TCP(uint16(1000+i%60000), 443).Payload(make([]byte, 10)).Bytes()
}

func p9Rev(base uint32, i int) []byte {
	return pkt.NewBuilder().Ethernet(lib.DmacA, 2, pkt.EtherTypeIPv4).
		IPv4(pkt.IPv4Opts{TTL: 64, Protocol: pkt.ProtoTCP,
			Src: lib.NetB | base | uint32(i+1), Dst: lib.NetA | base | uint32(i+1), TotalLen: 50}).
		TCP(443, uint16(1000+i%60000)).Payload(make([]byte, 10)).Bytes()
}

// Per-program traffic for the engine probes (one small mix per program
// family, after the generators of the older internal/perf harness).

// basicTraffic is one routable IPv4/TCP and one routable IPv6 frame —
// parseable by every program.
func basicTraffic() [][]byte {
	return [][]byte{
		pkt.NewBuilder().Ethernet(lib.DmacA, 2, pkt.EtherTypeIPv4).
			IPv4(pkt.IPv4Opts{TTL: 64, Protocol: pkt.ProtoTCP, Src: 0xC0A80002, Dst: lib.NetA | 1}).
			TCP(1, 80).Payload(make([]byte, 64)).Bytes(),
		pkt.NewBuilder().Ethernet(lib.DmacA, 2, pkt.EtherTypeIPv6).
			IPv6(pkt.IPv6Opts{NextHdr: pkt.ProtoNoNext, HopLimit: 9, DstHi: lib.NetV6Hi, DstLo: 1}).
			Payload(make([]byte, 64)).Bytes(),
	}
}

// flowChurn is P9's mix: forward and return-shaped frames of n flows.
func flowChurn(n int) [][]byte {
	out := make([][]byte, 0, 2*n)
	for i := 0; i < n; i++ {
		out = append(out, p9Fwd(0, i), p9Rev(0, i))
	}
	return out
}

// edgeMix is P10's mix: per flow a NAT64 outbound IPv6 frame, its IPv4
// reply toward the pool, and a tunnelled IPv4 frame to decapsulate.
func edgeMix(n int) [][]byte {
	out := make([][]byte, 0, 3*n)
	for i := 0; i < n; i++ {
		sp := uint16(1000 + i)
		inner := pkt.NewBuilder().Ethernet(0, 0, pkt.EtherTypeIPv4).
			IPv4(pkt.IPv4Opts{TTL: 64, Protocol: pkt.ProtoTCP, Src: lib.NetA | uint32(i+1), Dst: lib.NetB | 2, TotalLen: 104}).
			TCP(sp, 80).Payload(make([]byte, 64)).Bytes()[14:]
		out = append(out,
			pkt.NewBuilder().Ethernet(lib.DmacA, 2, pkt.EtherTypeIPv6).
				IPv6(pkt.IPv6Opts{NextHdr: pkt.ProtoTCP, HopLimit: 64, PayloadLen: 84,
					SrcHi: lib.V6ClientHi, SrcLo: lib.V6ClientLo, DstHi: lib.Nat64PfxHi, DstLo: lib.NetB | 1}).
				TCP(sp, 443).Payload(make([]byte, 64)).Bytes(),
			pkt.NewBuilder().Ethernet(lib.DmacA, 2, pkt.EtherTypeIPv4).
				IPv4(pkt.IPv4Opts{TTL: 64, Protocol: pkt.ProtoTCP, Src: lib.NetB | 1, Dst: lib.Nat64Pool}).
				TCP(443, sp).Payload(make([]byte, 64)).Bytes(),
			pkt.NewBuilder().Ethernet(lib.DmacA, 2, pkt.EtherTypeIPv4).
				IPv4(pkt.IPv4Opts{TTL: 32, Protocol: pkt.ProtoIPv4, Src: 0x08080808, Dst: lib.TunDst, TotalLen: uint16(20 + len(inner))}).
				Payload(inner).Bytes())
	}
	return out
}

// programTraffic picks the engine-probe mix for a program.
func programTraffic(seed uint64, prog string) [][]byte {
	switch prog {
	case "P4":
		return frames(stdMix(seed))
	case "P9":
		return flowChurn(64)
	case "P10":
		return edgeMix(32)
	case "P11":
		plan := newFlowPlan(seed)
		out := make([][]byte, 0, 2*hotFlows)
		for c := 0; c < hotFlows; c++ {
			out = append(out, plan.VIP[c], plan.Plain[c])
		}
		return out
	}
	return basicTraffic()
}
