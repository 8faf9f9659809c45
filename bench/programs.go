package main

import (
	"fmt"

	"microp4"
	"microp4/internal/lib"
)

// Program construction through the public API only: the library's own
// rule installer takes the engine's table type, which the benchmark may
// not import (see README.md, "Import surface"), so the standard rule
// sets are restated here as Switch.TryAddEntry calls.

// p9v2File is the benign P9 upgrade target the cutover cycles stage.
const p9v2File = "up4/p9_fw_v2.up4"

// compileProgram runs the frontend over a program's main file and its
// library modules. mainFile overrides the manifest's main source when
// non-empty (the P9 v2 upgrade target ships by source, not by name).
func compileProgram(prog, mainFile string) (*microp4.Module, []*microp4.Module, error) {
	m, err := lib.Program(prog)
	if err != nil {
		return nil, nil, err
	}
	if mainFile == "" {
		mainFile = m.MainFile
	}
	src, err := lib.Source(mainFile)
	if err != nil {
		return nil, nil, err
	}
	main, err := microp4.CompileModule(mainFile, src)
	if err != nil {
		return nil, nil, fmt.Errorf("compile %s: %w", mainFile, err)
	}
	mods := make([]*microp4.Module, 0, len(m.Modules))
	for _, name := range m.Modules {
		msrc, err := lib.ModuleSource(name)
		if err != nil {
			return nil, nil, err
		}
		mod, err := microp4.CompileModule(name+".up4", msrc)
		if err != nil {
			return nil, nil, fmt.Errorf("compile module %s: %w", name, err)
		}
		mods = append(mods, mod)
	}
	return main, mods, nil
}

// buildProgram compiles and links a program, recording the two compiler
// layers as spans.
func buildProgram(sp *spans, prog, mainFile string) (*microp4.Dataplane, error) {
	end := sp.begin("frontend.compile")
	main, mods, err := compileProgram(prog, mainFile)
	end()
	if err != nil {
		return nil, err
	}
	end = sp.begin("midend.build")
	dp, err := microp4.Build(main, mods...)
	end()
	if err != nil {
		return nil, fmt.Errorf("build %s: %w", prog, err)
	}
	return dp, nil
}

// rules collects TryAddEntry errors so an install sequence reads as a
// list, with the first failure reported once at the end.
type rules struct {
	sw  *microp4.Switch
	err error
}

func (r *rules) add(table string, keys []microp4.Key, action string, args ...uint64) {
	if r.err != nil {
		return
	}
	if err := r.sw.TryAddEntry(table, keys, action, args...); err != nil {
		r.err = fmt.Errorf("install %s: %w", table, err)
	}
}

func exact(vs ...uint64) []microp4.Key {
	out := make([]microp4.Key, len(vs))
	for i, v := range vs {
		out[i] = microp4.Exact(v)
	}
	return out
}

func lpm(v uint64, plen int) []microp4.Key { return []microp4.Key{microp4.LPM(v, plen)} }

const (
	v4Table  = "l3_i.ipv4_i.ipv4_lpm_tbl"
	v4Action = "l3_i.ipv4_i.process"
	v6Table  = "l3_i.ipv6_i.ipv6_lpm_tbl"
	v6Action = "l3_i.ipv6_i.process"
	aclTable = "acl_i.acl_tbl"
)

// installStdRules programs the standard evaluation rule set of P1..P11
// (the composed-name half of lib.InstallDefaultRules).
func installStdRules(sw *microp4.Switch, prog string) error {
	r := &rules{sw: sw}
	l3 := func() {
		r.add(v4Table, lpm(lib.NetA, 8), v4Action, lib.NhA)
		r.add(v4Table, lpm(lib.NetB, 8), v4Action, lib.NhB)
		r.add(v6Table, lpm(lib.NetV6Hi, 32), v6Action, lib.NhV6)
		r.add("forward_tbl", exact(lib.NhA), "forward", lib.DmacA, lib.SmacA, lib.PortA)
		r.add("forward_tbl", exact(lib.NhB), "forward", lib.DmacA, lib.SmacA, lib.PortB)
		r.add("forward_tbl", exact(lib.NhV6), "forward", lib.DmacA, lib.SmacA, lib.PortV6)
	}
	denySSH := []microp4.Key{microp4.Any(), microp4.Any(), microp4.Ternary(6, 0xFF), microp4.Ternary(22, 0xFFFF)}

	switch prog {
	case "P1":
		r.add(aclTable, denySSH, "acl_i.deny")
		r.add("dmac_tbl", exact(lib.DmacA), "set_port", 5)
	case "P2":
		r.add("mpls_i.mpls_tbl", exact(1000), "mpls_i.swap", 2000, lib.NhA)
		r.add("mpls_i.mpls_tbl", exact(999), "mpls_i.pop_to_ipv4", lib.NhB)
		l3()
	case "P3":
		r.add("nat_i.nat_tbl", exact(0xC0A80002, 6), "nat_i.snat_tcp", 0x08080808, 40000)
		r.add("nat_i.nat_tbl", exact(0xC0A80003, 17), "nat_i.snat_udp", 0x08080809, 40001)
		l3()
	case "P4", "P6", "P7":
		l3()
	case "P5":
		r.add("npt_i.npt_tbl", lpm(0xFD00000000000000, 16), "npt_i.translate_out", lib.NetV6Hi)
		l3()
	case "P8":
		for cnt := uint64(0); cnt < 4; cnt++ {
			r.add("tel_i.tel_tbl", exact(cnt), "tel_i.stamp", 1)
		}
		l3()
	case "P9":
		installP9Policy(r)
		l3()
	case "P10":
		for _, proto := range []struct {
			p uint64
			a string
		}{{4, "decap_v4"}, {41, "decap_v6"}, {47, "decap_gre"}} {
			r.add("dc_i.tun_tbl", exact(lib.TunDst, proto.p), "dc_i."+proto.a)
		}
		r.add("n64_i.bind_tbl", exact(lib.V6ClientHi, lib.V6ClientLo), "n64_i.map_out", lib.Nat64Pool)
		r.add("n64_i.rev_tbl", exact(lib.Nat64Pool), "n64_i.map_in", lib.V6ClientHi, lib.V6ClientLo)
		r.add("nat_pol_tbl", exact(0, 0), "allow")
		r.add("nat_pol_tbl", exact(0, 1), "allow")
		r.add("nat_pol_tbl", exact(1, 1), "allow")
		l3()
	case "P11":
		for b := uint64(0); b < 8; b++ {
			r.add("bal_i.bucket_tbl", exact(1, b), "bal_i.pick", b%lib.NumBackends+1)
		}
		for bk := uint64(1); bk <= lib.NumBackends; bk++ {
			r.add("bal_i.backend_tbl", exact(bk), "bal_i.to_backend", lib.NetB|bk, lib.BackendPort)
		}
		r.add("bal_i.vip_tbl", exact(lib.VipAddr, 6, lib.VipPort), "bal_i.vip_hit", 1)
		r.add(aclTable, denySSH, "acl_i.deny")
		r.add("fwd_tbl", exact(1, 0, 0), "forward", lib.DmacA, lib.SmacA, lib.PortA)
		for bk := uint64(1); bk <= lib.NumBackends; bk++ {
			r.add("fwd_tbl", exact(1, 1, bk), "forward", lib.DmacA, lib.SmacA, lib.PortB)
		}
	default:
		return fmt.Errorf("no standard rules for %q", prog)
	}
	return r.err
}

func installP9Policy(r *rules) {
	r.add("dir_tbl", exact(lib.PortB), "dir_rev")
	r.add("fw_tbl", exact(0, 0), "allow")
	r.add("fw_tbl", exact(0, 1), "allow")
	r.add("fw_tbl", exact(1, 1), "allow")
}

// installRoutes adds /24 routes to the P4 IPv4 table.
func installRoutes(sw *microp4.Switch, routes []route) error {
	for _, rt := range routes {
		if err := sw.TryAddEntry(v4Table, lpm(uint64(rt.Prefix), 24), v4Action, rt.NH); err != nil {
			return fmt.Errorf("install route %#x/24: %w", rt.Prefix, err)
		}
	}
	return nil
}

// installLineHop programs hop h (1..3) of the three-hop line: both
// address families leave on port 1 with the hop's own MAC rewrite, so a
// packet that egresses s3 proves which switches it crossed.
func installLineHop(sw *microp4.Switch, hop int) error {
	r := &rules{sw: sw}
	r.add(v4Table, lpm(lib.NetA, 8), v4Action, lib.NhA)
	r.add(v6Table, lpm(lib.NetV6Hi, 32), v6Action, lib.NhA)
	r.add("forward_tbl", exact(lib.NhA), "forward", lineDmac(hop), lineSmac(hop), 1)
	return r.err
}

func lineDmac(hop int) uint64 { return 0xAA0000000000 + uint64(hop) }
func lineSmac(hop int) uint64 { return 0xBB0000000000 + uint64(hop) }
