package issu_test

import (
	"errors"
	"fmt"
	"strings"
	"testing"

	"microp4"
	"microp4/internal/flow"
	"microp4/internal/golden"
	"microp4/internal/issu"
	"microp4/internal/lib"
	"microp4/internal/netsim"
	"microp4/internal/obs"
	"microp4/internal/pkt"
	"microp4/internal/trace"
)

// The in-service upgrade acceptance scenarios: a P9 stateful firewall
// upgrades to P9 v2 mid-flow-churn, with the coordinator↔agent channel
// running over 10% drop (plus dup and reorder) links. A clean upgrade
// canaries and cuts over without dropping an established flow; a buggy
// v2 always diverges the canary and rolls back, leaving the switch
// byte-identical to a never-upgraded twin; killing the active switch
// mid-canary aborts the upgrade and the promoted standby keeps serving.

const (
	upgradePort = 9 // agent side of the coordinator↔agent channel
	coordPort   = 1 // coordinator side
	syncPort    = 7 // active↔standby flow replication (scenario C)
)

// compileP9 builds the P9 dataplane from the library catalog.
func compileP9(t testing.TB) *microp4.Dataplane {
	t.Helper()
	m, err := lib.Program("P9")
	if err != nil {
		t.Fatal(err)
	}
	src, err := lib.Source(m.MainFile)
	if err != nil {
		t.Fatal(err)
	}
	main, err := microp4.CompileModule(m.MainFile, src)
	if err != nil {
		t.Fatal(err)
	}
	var mods []*microp4.Module
	for _, name := range m.Modules {
		msrc, err := lib.ModuleSource(name)
		if err != nil {
			t.Fatal(err)
		}
		mod, err := microp4.CompileModule(name+".up4", msrc)
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

// v2Main returns the P9 v2 main module (the benign upgrade: a staged
// but unconfigured qos_tbl, byte-identical behavior until programmed).
func v2Main(t testing.TB) issu.Module {
	t.Helper()
	src, err := lib.Source("up4/p9_fw_v2.up4")
	if err != nil {
		t.Fatal(err)
	}
	return issu.Module{Name: "p9_fw_v2.up4", Source: src}
}

// buggyMain mutates v2 so the firewall's allow action drops: the exact
// "recompiled with a bad policy" upgrade the canary exists to catch.
func buggyMain(t testing.TB) issu.Module {
	t.Helper()
	m := v2Main(t)
	mutated := strings.Replace(m.Source, "action allow() { }", "action allow() { im.drop(); }", 1)
	if mutated == m.Source {
		t.Fatal("buggy mutation found nothing to replace")
	}
	m.Name = "p9_fw_v2_buggy.up4"
	m.Source = mutated
	return m
}

// p9Modules ships the library modules P9 composes.
func p9Modules(t testing.TB) []issu.Module {
	t.Helper()
	m, err := lib.Program("P9")
	if err != nil {
		t.Fatal(err)
	}
	var out []issu.Module
	for _, name := range m.Modules {
		src, err := lib.ModuleSource(name)
		if err != nil {
			t.Fatal(err)
		}
		out = append(out, issu.Module{Name: name + ".up4", Source: src})
	}
	return out
}

// installP9Rules programs the standard P9 firewall policy and routes.
func installP9Rules(sw *microp4.Switch) {
	sw.AddEntry("dir_tbl", []microp4.Key{microp4.Exact(lib.PortB)}, "dir_rev")
	sw.AddEntry("fw_tbl", []microp4.Key{microp4.Exact(0), microp4.Exact(0)}, "allow")
	sw.AddEntry("fw_tbl", []microp4.Key{microp4.Exact(0), microp4.Exact(1)}, "allow")
	sw.AddEntry("fw_tbl", []microp4.Key{microp4.Exact(1), microp4.Exact(1)}, "allow")
	sw.AddEntry("l3_i.ipv4_i.ipv4_lpm_tbl", []microp4.Key{microp4.LPM(lib.NetA, 8)},
		"l3_i.ipv4_i.process", lib.NhA)
	sw.AddEntry("l3_i.ipv4_i.ipv4_lpm_tbl", []microp4.Key{microp4.LPM(lib.NetB, 8)},
		"l3_i.ipv4_i.process", lib.NhB)
	sw.AddEntry("forward_tbl", []microp4.Key{microp4.Exact(lib.NhA)}, "forward",
		lib.DmacA, lib.SmacA, lib.PortA)
	sw.AddEntry("forward_tbl", []microp4.Key{microp4.Exact(lib.NhB)}, "forward",
		lib.DmacA, lib.SmacA, lib.PortB)
}

func flowFwd(i int) []byte {
	return pkt.NewBuilder().Ethernet(lib.DmacA, 2, pkt.EtherTypeIPv4).
		IPv4(pkt.IPv4Opts{TTL: 64, Protocol: pkt.ProtoTCP,
			Src: uint32(lib.NetA) | uint32(i+1), Dst: uint32(lib.NetB) | uint32(i+1)}).
		TCP(uint16(1000+i), 443).Payload([]byte("syn")).Bytes()
}

func flowRev(i int) []byte {
	return pkt.NewBuilder().Ethernet(lib.DmacA, 2, pkt.EtherTypeIPv4).
		IPv4(pkt.IPv4Opts{TTL: 64, Protocol: pkt.ProtoTCP,
			Src: uint32(lib.NetB) | uint32(i+1), Dst: uint32(lib.NetA) | uint32(i+1)}).
		TCP(443, uint16(1000+i)).Payload([]byte("ack")).Bytes()
}

func flowKey(i int) flow.Key {
	return flow.Key{SrcAddr: lib.NetA | uint64(i+1), DstAddr: lib.NetB | uint64(i+1),
		Proto: 6, SrcPort: uint64(1000 + i), DstPort: 443}
}

// pump is a timer-driven traffic generator: it injects one data packet
// every interval until stopped (or a runaway cap), alternating forward
// and return packets across the flow population so the canary sees
// learns, hits, and refreshes. It records everything it injected so a
// twin can replay the identical history.
type pump struct {
	n        *netsim.Network
	node     string
	flows    int
	every    uint64
	i        int
	stopped  bool
	injected []injected
}

type injected struct {
	port uint64
	data []byte
}

const pumpCap = 5000

func (p *pump) start() { p.n.After(p.every, p.tick) }
func (p *pump) stop()  { p.stopped = true }

func (p *pump) tick() {
	if p.stopped || p.i >= pumpCap {
		return
	}
	f := (p.i / 2) % p.flows
	port, data := uint64(lib.PortA), flowFwd(f)
	if p.i%2 == 1 {
		port, data = lib.PortB, flowRev(f)
	}
	p.i++
	p.injected = append(p.injected, injected{port, data})
	_ = p.n.Inject(p.node, port, data)
	p.n.After(p.every, p.tick)
}

// harness wires one switch behind an upgrade agent and a coordinator
// across a lossy control channel.
type harness struct {
	n       *netsim.Network
	sw      *microp4.Switch
	agent   *issu.Agent
	coord   *issu.Coordinator
	reg     *obs.Registry
	rec     *trace.Recorder
	pump    *pump
	upErr   error
	upDone  bool
	dataLog []injected // every data packet the switch processed, in order
}

func newHarness(t testing.TB, seed uint64, fm netsim.FaultModel) *harness {
	t.Helper()
	dp := compileP9(t)
	n := netsim.New(seed)
	rec := trace.NewRecorder(8192)
	n.SetTracing(rec)
	reg := obs.NewRegistry()
	metrics := issu.NewMetrics(reg)

	sw := dp.NewSwitch()
	installP9Rules(sw)
	agent := issu.NewAgent("dut", sw, issu.AgentConfig{
		UpgradePort: upgradePort,
		Upgrader:    issu.UpgraderConfig{Metrics: metrics, Tracer: rec, Bus: n.Bus(), Now: n.Now},
	})
	if err := n.AddSwitch("dut", agent); err != nil {
		t.Fatal(err)
	}
	coord, err := issu.NewCoordinator(n, "coord", issu.CoordinatorConfig{
		Seed: seed, CanaryN: 24, Metrics: metrics, Tracer: rec,
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := coord.AddPeer("dut", coordPort); err != nil {
		t.Fatal(err)
	}
	if err := n.Connect("coord", coordPort, "dut", upgradePort, fm); err != nil {
		t.Fatal(err)
	}
	return &harness{n: n, sw: sw, agent: agent, coord: coord, reg: reg, rec: rec,
		pump: &pump{n: n, node: "dut", flows: 24, every: 6}}
}

func (h *harness) run(t testing.TB) {
	t.Helper()
	if _, err := h.n.Run(0); err != nil {
		t.Fatal(err)
	}
}

// churn establishes the flow population (forward then return for each
// flow) and returns the indices established on the switch.
func (h *harness) churn(t testing.TB) []int {
	t.Helper()
	for i := 0; i < h.pump.flows; i++ {
		h.inject(t, lib.PortA, flowFwd(i))
		h.inject(t, lib.PortB, flowRev(i))
	}
	h.run(t)
	tbl := h.sw.FlowTable("fs_i.conn")
	if tbl == nil {
		t.Fatal("no fs_i.conn flow table")
	}
	var established []int
	for i := 0; i < h.pump.flows; i++ {
		if e, ok := tbl.Lookup(flowKey(i)); ok && e.State == flow.StateEstablished {
			established = append(established, i)
		}
	}
	if len(established) != h.pump.flows {
		t.Fatalf("churn established %d/%d flows", len(established), h.pump.flows)
	}
	return established
}

func (h *harness) inject(t testing.TB, port uint64, data []byte) {
	t.Helper()
	h.dataLog = append(h.dataLog, injected{port, data})
	if err := h.n.Inject("dut", port, data); err != nil {
		t.Fatal(err)
	}
}

// upgrade drives a full coordinated upgrade with the pump supplying
// canary traffic; the pump stops as soon as the upgrade resolves.
func (h *harness) upgrade(t testing.TB, main issu.Module) {
	t.Helper()
	err := h.coord.Upgrade("P9v2", main, p9Modules(t), func(e error) {
		h.upErr, h.upDone = e, true
		h.pump.stop()
	})
	if err != nil {
		t.Fatal(err)
	}
	h.pump.start()
	h.run(t)
	h.dataLog = append(h.dataLog, h.pump.injected...)
	if !h.upDone {
		t.Fatal("upgrade never resolved")
	}
}

// signature fingerprints the whole run: every egress packet, the fault
// tallies, the virtual clock, and the upgrade outcome.
func (h *harness) signature() string {
	var sig strings.Builder
	for _, d := range h.n.Egress("dut") {
		fmt.Fprintf(&sig, "egress %d %x\n", d.Port, d.Data)
	}
	st := h.n.Stats()
	for _, k := range netsim.FaultKinds {
		fmt.Fprintf(&sig, "fault %s %d\n", k, st.Faults[k])
	}
	fmt.Fprintf(&sig, "steps %d gen %d staged %d phase %s err %v\n",
		st.Steps, h.sw.Generation(), h.sw.StagedGeneration(), h.agent.Upgrader().Phase(), h.upErr)
	return sig.String()
}

var chaosLinks = netsim.FaultModel{Drop: 0.10, Duplicate: 0.05, Reorder: 0.05}

// runClean is the success path at one seed: churn, coordinated upgrade
// over lossy links, clean canary, cutover, and zero dropped established
// flows after adoption.
func runClean(t *testing.T, seed uint64) string {
	t.Helper()
	h := newHarness(t, seed, chaosLinks)
	established := h.churn(t)
	h.upgrade(t, v2Main(t))

	if h.upErr != nil {
		t.Fatalf("clean upgrade aborted: %v", h.upErr)
	}
	if got := h.agent.Upgrader().Phase(); got != issu.PhaseCommitted {
		t.Fatalf("phase %s after clean upgrade, want committed", got)
	}
	if gen := h.sw.Generation(); gen != 2 {
		t.Errorf("live generation %d after cutover, want 2", gen)
	}
	if h.sw.StagedGeneration() != 0 {
		t.Error("a generation is still staged after cutover")
	}
	if st := h.sw.CanaryStatus(); st.Active {
		t.Error("canary still attached after cutover")
	}
	// The new generation must know the v2 table to prove it really is v2.
	if err := h.sw.TrySetDefault("qos_tbl", "keep_prio"); err != nil {
		t.Errorf("post-cutover generation lacks the v2 qos_tbl: %v", err)
	}

	// Every established flow keeps passing return traffic through the
	// new generation: the cutover carried the connection table.
	before := len(h.n.Egress("dut"))
	for _, i := range established {
		h.inject(t, lib.PortB, flowRev(i))
	}
	h.run(t)
	survived := 0
	for _, d := range h.n.Egress("dut")[before:] {
		if d.Port == lib.PortA {
			survived++
		}
	}
	if survived*100 < len(established)*99 {
		t.Errorf("only %d/%d established flows survived the cutover (<99%%)",
			survived, len(established))
	}

	// Counters and spans landed.
	var expo strings.Builder
	if err := h.reg.WritePrometheus(&expo); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{
		`up4_issu_staged_total{node="dut"} 1`,
		`up4_issu_cutovers_total{node="dut"} 1`,
	} {
		if !strings.Contains(expo.String(), want) {
			t.Errorf("metrics missing %q:\n%s", want, expo.String())
		}
	}
	names := map[string]int{}
	for _, sp := range h.rec.Spans() {
		if sp.Kind == "issu" {
			names[sp.Name]++
		}
	}
	for _, want := range []string{"coordinate", "upgrade", "stage", "canary", "cutover"} {
		if names[want] == 0 {
			t.Errorf("no %q issu span recorded (got %v)", want, names)
		}
	}
	return h.signature()
}

// runBuggy is the rollback path at one seed: the shipped v2 drops
// allowed traffic, the canary diverges on live packets, the agent rolls
// back, and the switch stays byte-identical to a never-upgraded twin.
func runBuggy(t *testing.T, seed uint64) string {
	t.Helper()
	h := newHarness(t, seed, chaosLinks)
	h.churn(t)
	h.upgrade(t, buggyMain(t))

	if h.upErr == nil {
		t.Fatal("buggy upgrade committed")
	}
	if !errors.Is(h.upErr, microp4.ErrUpgrade) {
		t.Errorf("abort error is not an UpgradeError: %v", h.upErr)
	}
	if !strings.Contains(h.upErr.Error(), "diverged") {
		t.Errorf("abort reason does not name the divergence: %v", h.upErr)
	}
	if got := h.agent.Upgrader().Phase(); got != issu.PhaseRolledBack {
		t.Fatalf("phase %s after buggy upgrade, want rolled-back", got)
	}
	if gen := h.sw.Generation(); gen != 1 {
		t.Errorf("live generation %d after rollback, want 1", gen)
	}
	if h.sw.StagedGeneration() != 0 {
		t.Error("buggy generation still staged after rollback")
	}
	var expo strings.Builder
	if err := h.reg.WritePrometheus(&expo); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{
		`up4_issu_rollbacks_total{node="dut"} 1`,
		`up4_issu_canary_diverged_total{node="dut"} 1`,
	} {
		if !strings.Contains(expo.String(), want) {
			t.Errorf("metrics missing %q:\n%s", want, expo.String())
		}
	}

	// Post-rollback traffic keeps flowing on the old generation.
	for i := 0; i < h.pump.flows; i++ {
		h.inject(t, lib.PortB, flowRev(i))
	}
	h.run(t)

	// Zero post-rollback divergence: a twin switch that never saw the
	// upgrade, fed the identical data-packet history, produces the
	// identical outputs — the staged generation and its shadow canary
	// left no trace on the live path.
	twin := compileP9(t).NewSwitch()
	installP9Rules(twin)
	var twinSig, dutSig strings.Builder
	for _, in := range h.dataLog {
		outs, err := twin.Process(in.data, in.port)
		if err != nil {
			t.Fatalf("twin processing error: %v", err)
		}
		for _, o := range outs {
			fmt.Fprintf(&twinSig, "%d %x\n", o.Port, o.Data)
		}
	}
	for _, d := range h.n.Egress("dut") {
		fmt.Fprintf(&dutSig, "%d %x\n", d.Port, d.Data)
	}
	if twinSig.Len() == 0 {
		t.Fatal("twin produced no output")
	}
	if dutSig.String() != twinSig.String() {
		t.Error("post-rollback outputs diverge from the never-upgraded twin")
	}
	return h.signature()
}

// TestUpgradeUnderChaos is the PR's acceptance gate, run at each seed:
// the clean upgrade commits and keeps ≥99% of established flows, the
// buggy upgrade always rolls back with zero divergence from a
// never-upgraded twin, and both runs are byte-identical per seed.
func TestUpgradeUnderChaos(t *testing.T) {
	for _, seed := range []uint64{42, 7, 1001} {
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			t.Run("clean-cutover", func(t *testing.T) {
				first := runClean(t, seed)
				golden.Signature(t, t.Name(), []byte(first))
				if second := runClean(t, seed); first != second {
					t.Errorf("clean upgrade not reproducible for seed %d:\n--- first\n%s--- second\n%s",
						seed, first, second)
				}
			})
			t.Run("buggy-rolled-back", func(t *testing.T) {
				first := runBuggy(t, seed)
				golden.Signature(t, t.Name(), []byte(first))
				if second := runBuggy(t, seed); first != second {
					t.Errorf("buggy upgrade not reproducible for seed %d:\n--- first\n%s--- second\n%s",
						seed, first, second)
				}
			})
			t.Run("mid-canary-kill", func(t *testing.T) {
				first := runMidCanaryKill(t, seed)
				golden.Signature(t, t.Name(), []byte(first))
				if second := runMidCanaryKill(t, seed); first != second {
					t.Errorf("mid-canary kill not reproducible for seed %d:\n--- first\n%s--- second\n%s",
						seed, first, second)
				}
			})
		})
	}
}
