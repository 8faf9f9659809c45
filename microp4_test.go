package microp4_test

import (
	"strings"
	"testing"

	"microp4"
	"microp4/internal/lib"
	"microp4/internal/pkt"
	"microp4/internal/sim"
)

func compileLib(t testing.TB, prog string) *microp4.Dataplane {
	t.Helper()
	return compileLibEdited(t, prog, func(src string) string { return src })
}

// compileLibEdited is compileLib with every source file (main and
// modules) passed through edit first.
func compileLibEdited(t testing.TB, prog string, edit func(src string) string) *microp4.Dataplane {
	t.Helper()
	m, err := lib.Program(prog)
	if err != nil {
		t.Fatal(err)
	}
	src, err := lib.Source(m.MainFile)
	if err != nil {
		t.Fatal(err)
	}
	main, err := microp4.CompileModule(m.MainFile, edit(src))
	if err != nil {
		t.Fatal(err)
	}
	var mods []*microp4.Module
	for _, name := range m.Modules {
		msrc, err := lib.ModuleSource(name)
		if err != nil {
			t.Fatal(err)
		}
		mod, err := microp4.CompileModule(name+".up4", edit(msrc))
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		mods = append(mods, mod)
	}
	dp, err := microp4.Build(main, mods...)
	if err != nil {
		t.Fatal(err)
	}
	return dp
}

// installLibRules replays a program's standard evaluation rule set
// (lib.InstallDefaultRules) through the public Switch API.
func installLibRules(sw *microp4.Switch, prog string) {
	rules := sim.NewTables()
	lib.InstallDefaultRules(rules, prog, false)
	for _, name := range rules.TableNames() {
		for _, e := range rules.Entries(name) {
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

func TestPublicAPIRouter(t *testing.T) {
	dp := compileLib(t, "P4")
	st := dp.Stats()
	if st.ByteStack != 54 || st.ExtractLength != 54 {
		t.Errorf("stats = %+v, want byte-stack 54 (eth 14 + ipv6 40)", st)
	}
	if st.MinPacket != 14 {
		t.Errorf("min packet = %d, want 14", st.MinPacket)
	}
	tables := dp.Tables()
	wantTables := map[string]bool{
		"forward_tbl":              false,
		"l3_i.ipv4_i.ipv4_lpm_tbl": false,
		"l3_i.ipv6_i.ipv6_lpm_tbl": false,
	}
	for _, tn := range tables {
		if _, ok := wantTables[tn]; ok {
			wantTables[tn] = true
		}
	}
	for tn, seen := range wantTables {
		if !seen {
			t.Errorf("table %s not exposed; have %v", tn, tables)
		}
	}

	sw := dp.NewSwitch()
	sw.AddEntry("l3_i.ipv4_i.ipv4_lpm_tbl",
		[]microp4.Key{microp4.LPM(0x0A000000, 8)}, "l3_i.ipv4_i.process", 100)
	sw.AddEntry("forward_tbl",
		[]microp4.Key{microp4.Exact(100)}, "forward", 0x00AA00000001, 0x00BB00000001, 1)

	in := pkt.NewBuilder().
		Ethernet(2, 3, pkt.EtherTypeIPv4).
		IPv4(pkt.IPv4Opts{TTL: 64, Protocol: 6, Src: 1, Dst: 0x0A000001}).
		TCP(1000, 80).Bytes()
	out, err := sw.Process(in, 7)
	if err != nil {
		t.Fatal(err)
	}
	if len(out) != 1 || out[0].Port != 1 {
		t.Fatalf("out = %+v, want one packet on port 1", out)
	}
	if pkt.IPv4TTL(out[0].Data, 14) != 63 {
		t.Errorf("ttl = %d, want 63", pkt.IPv4TTL(out[0].Data, 14))
	}

	// The reference engine agrees.
	ref := dp.NewSwitchWith(microp4.EngineReference)
	ref.AddEntry("l3_i.ipv4_i.ipv4_lpm_tbl",
		[]microp4.Key{microp4.LPM(0x0A000000, 8)}, "l3_i.ipv4_i.process", 100)
	ref.AddEntry("forward_tbl",
		[]microp4.Key{microp4.Exact(100)}, "forward", 0x00AA00000001, 0x00BB00000001, 1)
	rout, err := ref.Process(in, 7)
	if err != nil {
		t.Fatal(err)
	}
	if len(rout) != 1 || string(rout[0].Data) != string(out[0].Data) {
		t.Error("reference and compiled engines disagree via the public API")
	}

	// Unknown destinations drop.
	miss := pkt.NewBuilder().
		Ethernet(2, 3, pkt.EtherTypeIPv4).
		IPv4(pkt.IPv4Opts{TTL: 64, Protocol: 6, Src: 1, Dst: 0x63000001}).Bytes()
	out, err = sw.Process(miss, 7)
	if err != nil {
		t.Fatal(err)
	}
	if len(out) != 0 {
		t.Errorf("unrouted packet forwarded: %+v", out)
	}
}

func TestTofinoReports(t *testing.T) {
	dp := compileLib(t, "P4")
	rep, err := dp.Tofino()
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Feasible || rep.Stages == 0 || rep.Containers16 == 0 {
		t.Errorf("composed report = %+v", rep)
	}
	monoSrc, err := lib.Source("mono/p7.up4")
	if err != nil {
		t.Fatal(err)
	}
	mono, err := microp4.CompileModule("mono/p7.up4", monoSrc)
	if err != nil {
		t.Fatal(err)
	}
	mrep, err := microp4.TofinoMonolithic(mono)
	if err != nil {
		t.Fatal(err)
	}
	if mrep.Feasible {
		t.Error("monolithic P7 should fail to map (§7.3)")
	}
}

func TestEmitters(t *testing.T) {
	dp := compileLib(t, "P4")
	v1, err := dp.EmitV1Model()
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(v1, "V1Switch(") {
		t.Error("V1Model source incomplete")
	}
	tnaSrc, err := dp.EmitTNA()
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(tnaSrc, "tna.p4") {
		t.Error("TNA source incomplete")
	}
}

// multicastSrc replicates packets to a group (§4.2/§B).
const multicastSrc = `
struct empty_t { }
header ethernet_h { bit<48> dstMac; bit<48> srcMac; bit<16> etherType; }
struct hdr_t { ethernet_h eth; }
program Flood : implements Unicast {
  parser P(extractor ex, pkt p, out hdr_t h, inout empty_t m, im_t im) {
    state start { ex.extract(p, h.eth); transition accept; }
  }
  control C(pkt p, inout hdr_t h, inout empty_t m, im_t im) {
    mc_engine() mce;
    bit<16> id;
    action unicast(bit<9> port) { im.set_out_port(port); }
    action flood(bit<16> gid) { mce.set_mc_group(gid); }
    table dmac_tbl {
      key = { h.eth.dstMac : exact; }
      actions = { unicast; flood; }
      default_action = flood(1);
    }
    apply {
      dmac_tbl.apply();
      mce.apply(im, id);
    }
  }
  control D(emitter em, pkt p, in hdr_t h) { apply { em.emit(p, h.eth); } }
}
Flood(P, C, D) main;
`

func TestMulticast(t *testing.T) {
	main, err := microp4.CompileModule("flood.up4", multicastSrc)
	if err != nil {
		t.Fatal(err)
	}
	dp, err := microp4.Build(main)
	if err != nil {
		t.Fatal(err)
	}
	for _, engine := range []microp4.Engine{microp4.EngineCompiled, microp4.EngineReference} {
		sw := dp.NewSwitchWith(engine)
		sw.SetMulticastGroup(1, 2, 3, 4)
		in := pkt.NewBuilder().Ethernet(0xFFFFFFFFFFFF, 5, 0x0800).Payload([]byte("x")).Bytes()
		out, err := sw.Process(in, 9)
		if err != nil {
			t.Fatal(err)
		}
		if len(out) != 3 {
			t.Fatalf("engine %v: flooded to %d ports, want 3", engine, len(out))
		}
		ports := map[uint64]bool{}
		for _, o := range out {
			ports[o.Port] = true
			if string(o.Data) != string(in) {
				t.Errorf("replica differs from input")
			}
		}
		if !ports[2] || !ports[3] || !ports[4] {
			t.Errorf("engine %v: ports = %v", engine, ports)
		}
	}
}

// recircSrc decrements a counter header and recirculates until done.
const recircSrc = `
struct empty_t { }
header loop_h { bit<8> hops; bit<8> tag; }
struct hdr_t { loop_h lp; }
program Looper : implements Unicast {
  parser P(extractor ex, pkt p, out hdr_t h, inout empty_t m, im_t im) {
    state start { ex.extract(p, h.lp); transition accept; }
  }
  control C(pkt p, inout hdr_t h, inout empty_t m, im_t im) {
    apply {
      if (h.lp.hops > 0) {
        h.lp.hops = h.lp.hops - 1;
        recirculate(h.lp.tag);
      } else {
        im.set_out_port(2);
      }
    }
  }
  control D(emitter em, pkt p, in hdr_t h) { apply { em.emit(p, h.lp); } }
}
Looper(P, C, D) main;
`

func TestRecirculation(t *testing.T) {
	main, err := microp4.CompileModule("loop.up4", recircSrc)
	if err != nil {
		t.Fatal(err)
	}
	dp, err := microp4.Build(main)
	if err != nil {
		t.Fatal(err)
	}
	sw := dp.NewSwitch()
	out, err := sw.Process([]byte{3, 0xAB, 0xCD}, 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(out) != 1 || out[0].Port != 2 {
		t.Fatalf("out = %+v", out)
	}
	if out[0].Data[0] != 0 {
		t.Errorf("hops = %d after recirculation, want 0", out[0].Data[0])
	}
	// Exceeding the recirculation bound errors.
	if _, err := sw.Process([]byte{200, 1, 2}, 1); err == nil {
		t.Error("unbounded recirculation not caught")
	}
}

// TestTracer exercises the §8.2 debugging hooks on both engines.
func TestTracer(t *testing.T) {
	dp := compileLib(t, "P4")
	for _, engine := range []microp4.Engine{microp4.EngineCompiled, microp4.EngineReference} {
		sw := dp.NewSwitchWith(engine)
		sw.AddEntry("l3_i.ipv4_i.ipv4_lpm_tbl",
			[]microp4.Key{microp4.LPM(0x0A000000, 8)}, "l3_i.ipv4_i.process", 100)
		sw.AddEntry("forward_tbl", []microp4.Key{microp4.Exact(100)}, "forward", 1, 2, 3)
		var events []microp4.TraceEvent
		sw.SetTracer(func(e microp4.TraceEvent) { events = append(events, e) })
		in := pkt.NewBuilder().Ethernet(1, 2, pkt.EtherTypeIPv4).
			IPv4(pkt.IPv4Opts{TTL: 4, Protocol: 6, Src: 1, Dst: 0x0A000001}).Bytes()
		if _, err := sw.Process(in, 0); err != nil {
			t.Fatal(err)
		}
		if len(events) == 0 {
			t.Fatalf("engine %v: no trace events", engine)
		}
		var sawLpm, sawForward bool
		for _, e := range events {
			if e.Kind == "table" && strings.Contains(e.Name, "ipv4_lpm_tbl") &&
				strings.Contains(e.Detail, "process") {
				sawLpm = true
			}
			if e.Kind == "table" && e.Name == "forward_tbl" {
				sawForward = true
			}
		}
		if !sawLpm || !sawForward {
			t.Errorf("engine %v: trace missing table events: %+v", engine, events)
		}
		// Tracing off again.
		sw.SetTracer(nil)
		n := len(events)
		if _, err := sw.Process(in, 0); err != nil {
			t.Fatal(err)
		}
		if len(events) != n {
			t.Errorf("engine %v: tracer fired after removal", engine)
		}
	}
}

// TestControlAPI verifies the Fig. 4 "control API" artifact: every
// module instance exposes its own tables with keys, actions, and action
// parameters, plus register schemas.
func TestControlAPI(t *testing.T) {
	dp := compileLib(t, "P4")
	api := dp.ControlAPI()
	if api.Program != "P4Router" || len(api.Tables) != 3 {
		t.Fatalf("api = %+v", api)
	}
	byName := map[string]microp4.ControlTable{}
	for _, tb := range api.Tables {
		byName[tb.Name] = tb
	}
	lpm := byName["l3_i.ipv4_i.ipv4_lpm_tbl"]
	if lpm.Module != "l3_i.ipv4_i" {
		t.Errorf("lpm module = %q", lpm.Module)
	}
	if len(lpm.Keys) != 1 || lpm.Keys[0].MatchKind != "lpm" || lpm.Keys[0].Width != 32 {
		t.Errorf("lpm keys = %+v", lpm.Keys)
	}
	var process *microp4.ControlAction
	for i := range lpm.Actions {
		if lpm.Actions[i].Name == "l3_i.ipv4_i.process" {
			process = &lpm.Actions[i]
		}
	}
	if process == nil || len(process.Params) != 1 || process.Params[0].Width != 16 {
		t.Errorf("process action = %+v", process)
	}
	fwd := byName["forward_tbl"]
	if fwd.Module != "" || fwd.DefaultName != "drop_pkt" {
		t.Errorf("forward_tbl = %+v", fwd)
	}
	data, err := api.ToJSON()
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(data), "ipv4_lpm_tbl") {
		t.Error("JSON schema incomplete")
	}
}

// TestOrchestrationViaPublicAPI: multi-packet programs build and run on
// the reference engine; the compiled engine reports a clear error.
func TestOrchestrationViaPublicAPI(t *testing.T) {
	orch := `
struct empty_t { }
struct nohdr_t { }
Dup(pkt p, im_t im);
program Tap : implements Orchestration {
  control C(pkt p, inout nohdr_t h, inout empty_t m, im_t im, out_buf ob) {
    pkt copy;
    im_t imc;
    Dup() d_i;
    apply {
      copy.copy_from(p);
      imc.copy_from(im);
      d_i.apply(p, im);
      ob.enqueue(p, im);
      ob.enqueue(copy, imc);
    }
  }
}
Tap(C) main;
`
	dup := `
struct empty_t { }
header b_h { bit<8> v; }
struct dhdr_t { b_h b; }
program Dup : implements Unicast {
  parser P(extractor ex, pkt p, out dhdr_t h, inout empty_t m, im_t im) {
    state start { ex.extract(p, h.b); transition accept; }
  }
  control C(pkt p, inout dhdr_t h, inout empty_t m, im_t im) {
    apply { h.b.v = h.b.v + 1; im.set_out_port(6); }
  }
  control D(emitter em, pkt p, in dhdr_t h) { apply { em.emit(p, h.b); } }
}
`
	mainM, err := microp4.CompileModule("tap.up4", orch)
	if err != nil {
		t.Fatal(err)
	}
	dupM, err := microp4.CompileModule("dup.up4", dup)
	if err != nil {
		t.Fatal(err)
	}
	dp, err := microp4.Build(mainM, dupM)
	if err != nil {
		t.Fatalf("Build should tolerate orchestration programs: %v", err)
	}
	if ok, cerr := dp.Composed(); ok || cerr == nil {
		t.Error("orchestration program reported as composed")
	}
	// The compiled engine refuses clearly.
	if _, err := dp.NewSwitch().Process([]byte{1, 2}, 0); err == nil {
		t.Error("compiled engine accepted an uncomposed program")
	}
	// The reference engine taps the packet: original (mutated by Dup,
	// port 6) plus the pristine copy.
	sw := dp.NewSwitchWith(microp4.EngineReference)
	out, err := sw.Process([]byte{9, 0xEE}, 3)
	if err != nil {
		t.Fatal(err)
	}
	if len(out) != 2 {
		t.Fatalf("out = %+v, want 2 packets", out)
	}
	if out[0].Data[0] != 10 || out[0].Port != 6 {
		t.Errorf("processed packet = %+v", out[0])
	}
	if out[1].Data[0] != 9 {
		t.Errorf("tap copy mutated: %+v", out[1])
	}
}

// TestModuleStats exposes the per-module operational regions.
func TestModuleStats(t *testing.T) {
	dp := compileLib(t, "P4")
	ipv6, err := dp.ModuleStats("IPv6")
	if err != nil {
		t.Fatal(err)
	}
	if ipv6.ExtractLength != 40 || ipv6.ByteStack != 40 {
		t.Errorf("IPv6 stats = %+v", ipv6)
	}
	l3, err := dp.ModuleStats("L3")
	if err != nil {
		t.Fatal(err)
	}
	if l3.ExtractLength != 40 { // max(ipv4 20, ipv6 40)
		t.Errorf("L3 El = %d, want 40", l3.ExtractLength)
	}
	if _, err := dp.ModuleStats("Ghost"); err == nil {
		t.Error("unknown module accepted")
	}
}
