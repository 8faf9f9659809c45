// Package perf builds the standard engines, switches and packet mixes
// of the Table 1 programs for tests and in-package benchmarks: the
// stateless mix, and the flow-churn, carrier-edge and VIP mixes that
// keep P9–P11's flowtables hot. Measurement itself lives in bench/
// (`go run ./bench`, bench/README.md).
package perf

import (
	"microp4"
	"microp4/internal/lib"
	"microp4/internal/midend"
	"microp4/internal/pkt"
	"microp4/internal/sim"
)

// Traffic builds the standard benchmark packet mix (one routable IPv4
// TCP packet, one routable IPv6 packet) — parseable by every Table 1
// program.
func Traffic() [][]byte {
	return [][]byte{
		pkt.NewBuilder().Ethernet(lib.DmacA, 2, pkt.EtherTypeIPv4).
			IPv4(pkt.IPv4Opts{TTL: 64, Protocol: 6, Src: 0xC0A80002, Dst: 0x0A000001}).
			TCP(1, 80).Payload(make([]byte, 64)).Bytes(),
		pkt.NewBuilder().Ethernet(lib.DmacA, 2, pkt.EtherTypeIPv6).
			IPv6(pkt.IPv6Opts{NextHdr: 59, HopLimit: 9, DstHi: lib.NetV6Hi, DstLo: 1}).
			Payload(make([]byte, 64)).Bytes(),
	}
}

// FlowChurn builds the stateful benchmark mix for P9: 2*flows routable
// IPv4 TCP packets over `flows` distinct connections, alternating the
// forward (NetA→NetB) and return-shaped (NetB→NetA) tuples. Replayed in
// a loop with an advancing clock, the mix exercises the flowtable hot
// path end to end: hash lookup on every packet, first-cycle learns
// through the free list, steady-state refreshes that re-file timer-wheel
// references, and the per-packet wheel advance that ages entries out.
func FlowChurn(flows int) [][]byte {
	out := make([][]byte, 0, 2*flows)
	for i := 0; i < flows; i++ {
		fwd := pkt.NewBuilder().Ethernet(lib.DmacA, 2, pkt.EtherTypeIPv4).
			IPv4(pkt.IPv4Opts{TTL: 64, Protocol: 6,
				Src: uint32(lib.NetA) | uint32(i+1), Dst: uint32(lib.NetB) | uint32(i+1)}).
			TCP(uint16(1000+i), 443).Payload(make([]byte, 64)).Bytes()
		rev := pkt.NewBuilder().Ethernet(lib.DmacA, 2, pkt.EtherTypeIPv4).
			IPv4(pkt.IPv4Opts{TTL: 64, Protocol: 6,
				Src: uint32(lib.NetB) | uint32(i+1), Dst: uint32(lib.NetA) | uint32(i+1)}).
			TCP(443, uint16(1000+i)).Payload(make([]byte, 64)).Bytes()
		out = append(out, fwd, rev)
	}
	return out
}

// EdgeMix builds the carrier-edge benchmark mix for P10: per flow, a
// NAT64 outbound IPv6 packet (learns/refreshes the translation entry),
// its IPv4 reply toward the pool (reverse flowtable lookup plus the
// v4→v6 header rewrite, which grows the packet), and a tunneled IPv4
// packet terminating at TunDst (decap shrinks the packet). Together
// they keep every P10 stage hot: decap, both NAT64 rewrite directions,
// the flowtable, and both LPM families.
func EdgeMix(flows int) [][]byte {
	out := make([][]byte, 0, 3*flows)
	for i := 0; i < flows; i++ {
		sp := uint16(1000 + i)
		v6out := pkt.NewBuilder().Ethernet(lib.DmacA, 2, pkt.EtherTypeIPv6).
			IPv6(pkt.IPv6Opts{NextHdr: 6, HopLimit: 64, PayloadLen: 84,
				SrcHi: lib.V6ClientHi, SrcLo: lib.V6ClientLo,
				DstHi: lib.Nat64PfxHi, DstLo: uint64(lib.NetB) | 1}).
			TCP(sp, 443).Payload(make([]byte, 64)).Bytes()
		v4rep := pkt.NewBuilder().Ethernet(lib.DmacA, 2, pkt.EtherTypeIPv4).
			IPv4(pkt.IPv4Opts{TTL: 64, Protocol: 6,
				Src: uint32(lib.NetB) | 1, Dst: lib.Nat64Pool}).
			TCP(443, sp).Payload(make([]byte, 64)).Bytes()
		inner := pkt.NewBuilder().Ethernet(0, 0, pkt.EtherTypeIPv4).
			IPv4(pkt.IPv4Opts{TTL: 64, Protocol: 6,
				Src: uint32(lib.NetA) | uint32(i+1), Dst: uint32(lib.NetB) | 2,
				TotalLen: 104}).
			TCP(sp, 80).Payload(make([]byte, 64)).Bytes()[14:]
		tun := pkt.NewBuilder().Ethernet(lib.DmacA, 2, pkt.EtherTypeIPv4).
			IPv4(pkt.IPv4Opts{TTL: 32, Protocol: 4, Src: 0x08080808, Dst: lib.TunDst,
				TotalLen: uint16(20 + len(inner))}).
			Payload(inner).Bytes()
		out = append(out, v6out, v4rep, tun)
	}
	return out
}

// VipMix builds the load-balancer benchmark mix for P11: `flows`
// distinct client connections to the VIP service (flowtable stick on
// every packet, backend rewrite, full checksum recompute) interleaved
// with one non-VIP passthrough per flow so the upstream path stays
// measured too.
func VipMix(flows int) [][]byte {
	out := make([][]byte, 0, 2*flows)
	for i := 0; i < flows; i++ {
		vip := pkt.NewBuilder().Ethernet(lib.DmacA, 2, pkt.EtherTypeIPv4).
			IPv4(pkt.IPv4Opts{TTL: 64, Protocol: 6,
				Src: 0x0A000000 | uint32(i+1), Dst: lib.VipAddr}).
			TCP(uint16(2000+i), lib.VipPort).Payload(make([]byte, 64)).Bytes()
		plain := pkt.NewBuilder().Ethernet(lib.DmacA, 2, pkt.EtherTypeIPv4).
			IPv4(pkt.IPv4Opts{TTL: 64, Protocol: 6,
				Src: 0x0A000000 | uint32(i+1), Dst: uint32(lib.NetB) | 7}).
			TCP(uint16(2000+i), 8443).Payload(make([]byte, 64)).Bytes()
		out = append(out, vip, plain)
	}
	return out
}

// TrafficFor selects the benchmark mix for a program: the flow-churn
// mix for P9, the carrier-edge mix for P10, the VIP mix for P11 (all
// three have the flowtable on their hot path), and the standard
// stateless mix for everything else.
func TrafficFor(prog string) [][]byte {
	switch prog {
	case "P9":
		return FlowChurn(64)
	case "P10":
		return EdgeMix(32)
	case "P11":
		return VipMix(64)
	}
	return Traffic()
}

// Engines builds both packet engines for one Table 1 program with the
// standard rule set installed (the same construction bench_test uses).
func Engines(prog string) (*sim.Exec, *sim.Interp, error) {
	main, mods, err := lib.CompileProgram(prog)
	if err != nil {
		return nil, nil, err
	}
	res, err := midend.Build(main, mods...)
	if err != nil {
		return nil, nil, err
	}
	tables := sim.NewTables()
	lib.InstallDefaultRules(tables, prog, false)
	return sim.NewExec(res.Pipeline, tables), sim.NewInterp(res.Linked, tables), nil
}

// Switch builds a public-API switch for one Table 1 program with the
// standard rule set installed.
func Switch(prog string) (*microp4.Switch, error) {
	m, err := lib.Program(prog)
	if err != nil {
		return nil, err
	}
	src, err := lib.Source(m.MainFile)
	if err != nil {
		return nil, err
	}
	mainMod, err := microp4.CompileModule(m.MainFile, src)
	if err != nil {
		return nil, err
	}
	var mods []*microp4.Module
	for _, name := range m.Modules {
		msrc, err := lib.ModuleSource(name)
		if err != nil {
			return nil, err
		}
		mod, err := microp4.CompileModule(name+".up4", msrc)
		if err != nil {
			return nil, err
		}
		mods = append(mods, mod)
	}
	dp, err := microp4.Build(mainMod, mods...)
	if err != nil {
		return nil, err
	}
	sw := dp.NewSwitch()
	installRules(sw, prog)
	return sw, nil
}

// installRules replays the lib rule set through the public Switch API.
func installRules(sw *microp4.Switch, prog string) {
	t := sim.NewTables()
	lib.InstallDefaultRules(t, prog, false)
	for _, name := range t.TableNames() {
		for _, e := range t.Entries(name) {
			keys := make([]microp4.Key, len(e.Keys))
			for i, k := range e.Keys {
				switch {
				case k.DontCare:
					keys[i] = microp4.Any()
				case k.HasMask:
					keys[i] = microp4.Ternary(k.Value, k.Mask)
				case k.PrefixLen > 0:
					keys[i] = microp4.LPM(k.Value, k.PrefixLen)
				default:
					keys[i] = microp4.Exact(k.Value)
				}
			}
			sw.AddEntry(name, keys, e.Action, e.Args...)
		}
	}
}
