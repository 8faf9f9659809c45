package ctrlplane_test

import (
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"microp4"
	"microp4/internal/ctrlplane"
	"microp4/internal/flow"
	"microp4/internal/golden"
	"microp4/internal/lib"
	"microp4/internal/netsim"
	"microp4/internal/obs"
	"microp4/internal/pkt"
	"microp4/internal/trace"
)

// The flow-state failover scenario: an active P9 stateful firewall
// replicates its connection table to a warm standby over lossy links;
// when the active dies mid-churn, the standby is promoted and the
// established flows keep passing return traffic.

const syncPort = 7

// compileProg builds any library program's dataplane.
func compileProg(t testing.TB, prog string) *microp4.Dataplane {
	t.Helper()
	return compileEdited(t, prog)
}

// compileEdited builds a library program with its main source edited:
// edits are old, new pairs, and each old must occur in the source.
func compileEdited(t testing.TB, prog string, edits ...string) *microp4.Dataplane {
	t.Helper()
	m, err := lib.Program(prog)
	if err != nil {
		t.Fatal(err)
	}
	src, err := lib.Source(m.MainFile)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < len(edits); i += 2 {
		if !strings.Contains(src, edits[i]) {
			t.Fatalf("%s: edit target %q not in %s", prog, edits[i], m.MainFile)
		}
	}
	src = strings.NewReplacer(edits...).Replace(src)
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

// installP9Rules programs the standard P9 firewall policy and routes
// (the sw.AddEntry mirror of lib.InstallDefaultRules("P9")).
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

// flowFwd and flowRev build the i-th flow's forward (inside→out, enters
// on PortA) and return (outside→in, enters on PortB) packets.
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

// pair wires an active replicator and a warm standby over sync links
// with the given fault model.
type pair struct {
	n   *netsim.Network
	act *ctrlplane.Replicator
	sby *ctrlplane.StandbyAgent
	reg *obs.Registry
	rec *trace.Recorder
}

func newPair(t testing.TB, seed uint64, fm netsim.FaultModel) *pair {
	t.Helper()
	dp := compileProg(t, "P9")
	n := netsim.New(seed)
	rec := trace.NewRecorder(8192)
	n.SetTracing(rec)
	reg := obs.NewRegistry()
	metrics := ctrlplane.NewMetrics(reg)

	actSw := dp.NewSwitch()
	installP9Rules(actSw)
	act := ctrlplane.NewReplicator(n, actSw, ctrlplane.ReplicaConfig{
		Name: "act", SyncPort: syncPort, Seed: seed,
		Metrics: metrics, Tracer: rec, Bus: n.Bus(),
	})

	sbySw := dp.NewSwitch()
	act.Bootstrap(sbySw) // control state travels by Checkpoint/Restore
	sby := ctrlplane.NewStandbyAgent(n, sbySw, ctrlplane.ReplicaConfig{
		Name: "sby", SyncPort: syncPort,
		Metrics: metrics, Tracer: rec, Bus: n.Bus(),
	})

	if err := n.AddSwitch("act", act); err != nil {
		t.Fatal(err)
	}
	if err := n.AddSwitch("sby", sby); err != nil {
		t.Fatal(err)
	}
	if err := n.Connect("act", syncPort, "sby", syncPort, fm); err != nil {
		t.Fatal(err)
	}
	return &pair{n: n, act: act, sby: sby, reg: reg, rec: rec}
}

func (p *pair) run(t testing.TB) netsim.RunStats {
	t.Helper()
	st, err := p.n.Run(0)
	if err != nil {
		t.Fatal(err)
	}
	return st
}

// TestFlowReplicationLossless: over perfect links, every learned flow
// reaches the standby, the active's lag drains to zero, and the
// replicator parks its timer once the channel is idle.
func TestFlowReplicationLossless(t *testing.T) {
	p := newPair(t, 11, netsim.FaultModel{})
	p.act.Start()
	const flows = 5
	for i := 0; i < flows; i++ {
		if err := p.n.Inject("act", lib.PortA, flowFwd(i)); err != nil {
			t.Fatal(err)
		}
		if err := p.n.Inject("act", lib.PortB, flowRev(i)); err != nil {
			t.Fatal(err)
		}
	}
	p.run(t)

	if lag := p.act.Lag(); lag != 0 {
		t.Errorf("active still has %d unsynced entries after a drained run", lag)
	}
	sbyTbl := p.sby.Switch().FlowTable("fs_i.conn")
	if sbyTbl == nil {
		t.Fatal("standby has no fs_i.conn flow table")
	}
	if sbyTbl.Len() != flows {
		t.Errorf("standby holds %d flows, want %d", sbyTbl.Len(), flows)
	}
	for i := 0; i < flows; i++ {
		e, ok := sbyTbl.Lookup(flowKey(i))
		if !ok {
			t.Errorf("flow %d missing on standby", i)
			continue
		}
		if e.State != flow.StateEstablished {
			t.Errorf("flow %d replicated as state %d, want established", i, e.State)
		}
	}
	if p.sby.LastHeard() == 0 {
		t.Error("standby never heard a sync frame")
	}
	applied, malformed := p.sby.Applied()
	if applied == 0 || malformed != 0 {
		t.Errorf("standby applied=%d malformed=%d, want >0 and 0", applied, malformed)
	}
	if rounds, _ := p.act.Rounds(); rounds == 0 {
		t.Error("replicator ran no rounds")
	}
	// The lag gauge drained to zero and the flowsync spans landed on
	// the flight recorder.
	var expo strings.Builder
	if err := p.reg.WritePrometheus(&expo); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(expo.String(), `up4_flow_sync_lag{node="act"} 0`) {
		t.Error("up4_flow_sync_lag gauge missing or nonzero:\n" + expo.String())
	}
	roundSpans := 0
	for _, sp := range p.rec.Spans() {
		if sp.Kind == "flowsync" {
			roundSpans++
		}
	}
	if roundSpans == 0 {
		t.Error("no flowsync spans recorded")
	}
}

// TestStandbyRobustness: corrupt sync frames are dropped without a
// reply and change nothing — not the flow table, not the last-heard
// clock, and never the promoted flag — while duplicated valid frames
// replay the cached ack without double-applying.
func TestStandbyRobustness(t *testing.T) {
	// A standalone standby with no links: every ack it emits lands in
	// the egress collector where the test can inspect it.
	dp := compileProg(t, "P9")
	n := netsim.New(13)
	sbySw := dp.NewSwitch()
	installP9Rules(sbySw)
	sby := ctrlplane.NewStandbyAgent(n, sbySw, ctrlplane.ReplicaConfig{
		Name: "sby", SyncPort: syncPort, Bus: n.Bus(),
	})
	if err := n.AddSwitch("sby", sby); err != nil {
		t.Fatal(err)
	}
	run := func() {
		t.Helper()
		if _, err := n.Run(0); err != nil {
			t.Fatal(err)
		}
	}
	sync := ctrlplane.EncodeFlowSync(&ctrlplane.FlowSync{
		Session: 0xABCD, Seq: 1, Kind: ctrlplane.SyncUpdate, Table: "fs_i.conn", Clock: 5,
		Entries: []ctrlplane.FlowRec{{Key: flowKey(0), State: flow.StateEstablished, Expire: 70000}},
	})

	// Corrupted and garbage frames: dropped, no reply, no state change.
	for _, bad := range [][]byte{
		{},
		{0x00, 0x01, 0x02},
		append(append([]byte(nil), sync...), 0xFF), // trailing byte breaks the checksum
		func() []byte { c := append([]byte(nil), sync...); c[len(c)/2] ^= 0x10; return c }(),
	} {
		if err := n.Inject("sby", syncPort, bad); err != nil {
			t.Fatal(err)
		}
	}
	run()
	if got := len(n.Egress("sby")); got != 0 {
		t.Fatalf("standby replied to %d corrupt frames, want silence", got)
	}
	if applied, malformed := sby.Applied(); applied != 0 || malformed == 0 {
		t.Errorf("after corruption: applied=%d malformed=%d, want 0 and >0", applied, malformed)
	}
	if sby.LastHeard() != 0 {
		t.Error("corrupt frames refreshed the standby's last-heard clock")
	}
	if sby.Promoted() {
		t.Fatal("corrupt frames promoted the standby")
	}
	if tb := sbySw.FlowTable("fs_i.conn"); tb != nil && tb.Len() != 0 {
		t.Errorf("corrupt frames installed %d flows", tb.Len())
	}

	// The same valid frame delivered twice: one install, two acks (the
	// second replayed from the dedup cache).
	if err := n.Inject("sby", syncPort, sync); err != nil {
		t.Fatal(err)
	}
	if err := n.Inject("sby", syncPort, sync); err != nil {
		t.Fatal(err)
	}
	run()
	acks := n.Egress("sby")
	if len(acks) != 2 {
		t.Fatalf("got %d acks for a duplicated frame, want 2", len(acks))
	}
	for _, d := range acks {
		ack, err := ctrlplane.DecodeFlowAck(d.Data)
		if err != nil {
			t.Fatalf("undecodable ack: %v", err)
		}
		if ack.Session != 0xABCD || ack.Seq != 1 || ack.Applied != 1 {
			t.Errorf("ack %+v, want session=0xABCD seq=1 applied=1", ack)
		}
	}
	if applied, _ := sby.Applied(); applied != 1 {
		t.Errorf("duplicate frame double-applied: applied=%d, want 1", applied)
	}
	if tb := sbySw.FlowTable("fs_i.conn"); tb == nil || tb.Len() != 1 {
		t.Error("valid frame did not install its entry")
	}
}

// failoverOutcome is one full failover run's deterministic signature.
type failoverOutcome struct {
	established int // flows established on the active before the kill
	survived    int // of those, flows whose return traffic passed post-promotion
	resyncs     uint64
	signature   string // egress bytes + fault tallies, for run-to-run identity
}

// runFailover drives the acceptance scenario at one seed: churn flows
// through the active over ≥10% drop (plus dup and reorder) sync links,
// kill the active mid-churn, promote the standby, then replay return
// traffic against it.
func runFailover(t *testing.T, seed uint64) failoverOutcome {
	t.Helper()
	lossy := netsim.FaultModel{Drop: 0.10, Duplicate: 0.05, Reorder: 0.05}
	p := newPair(t, seed, lossy)
	p.act.Start()

	const flows = 60
	// First half of the churn: learn and establish, draining the
	// network (and the sync rounds) in bursts.
	for i := 0; i < flows; i++ {
		if err := p.n.Inject("act", lib.PortA, flowFwd(i)); err != nil {
			t.Fatal(err)
		}
		if err := p.n.Inject("act", lib.PortB, flowRev(i)); err != nil {
			t.Fatal(err)
		}
		if i%8 == 7 {
			p.run(t)
		}
	}
	p.run(t)

	// Snapshot which flows the active holds established right before
	// the kill — the population whose survival is measured.
	actTbl := p.act.Switch().FlowTable("fs_i.conn")
	if actTbl == nil {
		t.Fatal("active has no fs_i.conn flow table")
	}
	var establishedIdx []int
	for i := 0; i < flows; i++ {
		if e, ok := actTbl.Lookup(flowKey(i)); ok && e.State == flow.StateEstablished {
			establishedIdx = append(establishedIdx, i)
		}
	}
	if len(establishedIdx) < flows*9/10 {
		t.Fatalf("churn established only %d/%d flows on the active", len(establishedIdx), flows)
	}

	// Kill the active mid-churn: sync links go dark, its replicator
	// stops. (Data ports are unconnected, so nothing else changes.)
	if err := p.n.SetLinkDown("act", syncPort, true); err != nil {
		t.Fatal(err)
	}
	if err := p.n.SetLinkDown("sby", syncPort, true); err != nil {
		t.Fatal(err)
	}
	p.act.Stop()
	heardAtKill := p.sby.LastHeard()
	if heardAtKill == 0 {
		t.Fatal("standby never heard from the active before the kill")
	}

	// Promote after observing silence. Promotion is a local decision —
	// nothing arrived on the wire to cause it.
	p.sby.Promote()
	if !p.sby.Promoted() {
		t.Fatal("promotion did not take")
	}

	// Return traffic for every pre-kill established flow now hits the
	// promoted standby. Each flow the replication carried is still
	// established there and keeps passing; only flows whose sync frames
	// were all lost at the moment of death may fail.
	for _, i := range establishedIdx {
		if err := p.n.Inject("sby", lib.PortB, flowRev(i)); err != nil {
			t.Fatal(err)
		}
	}
	p.run(t)
	survived := 0
	var sig strings.Builder
	for _, d := range p.n.Egress("sby") {
		if d.Port == lib.PortA {
			survived++
		}
		fmt.Fprintf(&sig, "egress %d %x\n", d.Port, d.Data)
	}
	st := p.n.Stats()
	for _, k := range netsim.FaultKinds {
		fmt.Fprintf(&sig, "fault %s %d\n", k, st.Faults[k])
	}
	fmt.Fprintf(&sig, "steps %d heard %d\n", st.Steps, heardAtKill)
	_, resyncs := p.act.Rounds()
	return failoverOutcome{
		established: len(establishedIdx),
		survived:    survived,
		resyncs:     resyncs,
		signature:   sig.String(),
	}
}

// TestFlowFailover is the PR's acceptance gate: with ≥10% drop plus
// duplication and reordering on the sync channel, killing the active
// mid-churn and promoting the standby keeps at least 95% of the
// pre-kill established flows passing return traffic — and the entire
// run, faults included, is byte-identical for a fixed seed.
func TestFlowFailover(t *testing.T) {
	for _, seed := range []uint64{42, 7, 1001} {
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			first := runFailover(t, seed)
			if first.established == 0 {
				t.Fatal("no established flows to measure")
			}
			if first.survived*100 < first.established*95 {
				t.Errorf("only %d/%d established flows survived failover (<95%%)",
					first.survived, first.established)
			}
			if first.resyncs == 0 {
				t.Error("no anti-entropy resync rounds ran during the churn")
			}
			golden.Signature(t, t.Name(), []byte(first.signature))
			second := runFailover(t, seed)
			if first.signature != second.signature {
				t.Errorf("failover run is not reproducible for seed %d:\n--- first\n%s--- second\n%s",
					seed, first.signature, second.signature)
			}
		})
	}
}

// scrapeURL fetches a URL and returns its body.
func scrapeURL(t *testing.T, url string) string {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatalf("GET %s: %v", url, err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET %s: status %d", url, resp.StatusCode)
	}
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return string(body)
}

// TestFlowScrapeEndpoints runs the lossless replication scenario with
// full observability attached and scrapes the HTTP surface: /metrics
// must expose the dataplane flow-table gauges (up4_flow_entries and
// friends) and the replication lag gauge, and /trace/spans must return
// the flight recorder with the flowsync round and ack spans in it.
func TestFlowScrapeEndpoints(t *testing.T) {
	p := newPair(t, 21, netsim.FaultModel{})
	swReg := p.act.Switch().EnableMetrics()
	p.act.Start()
	const flows = 3
	for i := 0; i < flows; i++ {
		if err := p.n.Inject("act", lib.PortA, flowFwd(i)); err != nil {
			t.Fatal(err)
		}
		if err := p.n.Inject("act", lib.PortB, flowRev(i)); err != nil {
			t.Fatal(err)
		}
	}
	p.run(t)

	// The active switch's registry carries the flow-table gauges.
	dataSrv := httptest.NewServer(obs.NewHandler(swReg, nil, nil))
	defer dataSrv.Close()
	dataMetrics := scrapeURL(t, dataSrv.URL+"/metrics")
	for _, want := range []string{
		fmt.Sprintf(`up4_flow_entries{table="fs_i.conn"} %d`, flows),
		fmt.Sprintf(`up4_flow_inserts{table="fs_i.conn"} %d`, flows),
		`up4_flow_evictions{table="fs_i.conn"} 0`,
		`up4_flow_expiries{table="fs_i.conn"} 0`,
	} {
		if !strings.Contains(dataMetrics, want) {
			t.Errorf("/metrics missing %q:\n%s", want, dataMetrics)
		}
	}

	// The control-plane registry carries the replication lag gauge, and
	// the same server exposes the shared flight recorder.
	ctrlSrv := httptest.NewServer(obs.NewHandler(p.reg, nil, p.rec.WriteJSON))
	defer ctrlSrv.Close()
	ctrlMetrics := scrapeURL(t, ctrlSrv.URL+"/metrics")
	if !strings.Contains(ctrlMetrics, `up4_flow_sync_lag{node="act"} 0`) {
		t.Errorf("/metrics missing drained up4_flow_sync_lag gauge:\n%s", ctrlMetrics)
	}

	spans, faults, err := trace.ReadJSON([]byte(scrapeURL(t, ctrlSrv.URL+"/trace/spans")))
	if err != nil {
		t.Fatalf("/trace/spans: %v", err)
	}
	names := map[string]int{}
	for _, sp := range spans {
		if sp.Kind == "flowsync" {
			names[sp.Name]++
		}
	}
	if names["round"] == 0 || names["ack"] == 0 {
		t.Errorf("/trace/spans flowsync span names = %v, want round and ack spans", names)
	}
	if len(faults) != 0 {
		t.Errorf("clean run pinned %d fault dumps", len(faults))
	}
}

// TestFlowSyncPartitionHeal: when the sync channel partitions, the
// active keeps serving traffic and accumulates unsynced entries
// (graceful degradation); when the partition heals, the next traffic
// re-arms the replicator and the incremental-plus-resync stream drains
// the backlog into the standby.
func TestFlowSyncPartitionHeal(t *testing.T) {
	p := newPair(t, 99, netsim.FaultModel{})
	p.act.Start()

	// Healthy phase: two flows replicate.
	for i := 0; i < 2; i++ {
		if err := p.n.Inject("act", lib.PortA, flowFwd(i)); err != nil {
			t.Fatal(err)
		}
		if err := p.n.Inject("act", lib.PortB, flowRev(i)); err != nil {
			t.Fatal(err)
		}
	}
	p.run(t)
	if lag := p.act.Lag(); lag != 0 {
		t.Fatalf("healthy phase left %d unsynced entries", lag)
	}

	// Partition: the sync channel goes dark in both directions, churn
	// continues. The active must keep serving — forward traffic still
	// routes — while the new flows pile up unsynced, and Run must
	// terminate (the replicator parks instead of spinning its timer).
	if err := p.n.SetLinkDown("act", syncPort, true); err != nil {
		t.Fatal(err)
	}
	if err := p.n.SetLinkDown("sby", syncPort, true); err != nil {
		t.Fatal(err)
	}
	egressBefore := len(p.n.Egress("act"))
	for i := 2; i < 6; i++ {
		if err := p.n.Inject("act", lib.PortA, flowFwd(i)); err != nil {
			t.Fatal(err)
		}
		if err := p.n.Inject("act", lib.PortB, flowRev(i)); err != nil {
			t.Fatal(err)
		}
	}
	p.run(t)
	if got := len(p.n.Egress("act")) - egressBefore; got != 8 {
		t.Errorf("active forwarded %d packets during the partition, want 8", got)
	}
	if lag := p.act.Lag(); lag != 4 {
		t.Errorf("partition phase holds %d unsynced entries, want 4", lag)
	}
	sbyTbl := p.sby.Switch().FlowTable("fs_i.conn")
	if sbyTbl.Len() != 2 {
		t.Errorf("standby gained flows across a partition: %d, want 2", sbyTbl.Len())
	}

	// Heal: links come back; the next dataplane packet re-arms the
	// replicator and the backlog drains.
	if err := p.n.SetLinkDown("act", syncPort, false); err != nil {
		t.Fatal(err)
	}
	if err := p.n.SetLinkDown("sby", syncPort, false); err != nil {
		t.Fatal(err)
	}
	if err := p.n.Inject("act", lib.PortA, flowFwd(0)); err != nil { // refresh re-arms
		t.Fatal(err)
	}
	p.run(t)
	if lag := p.act.Lag(); lag != 0 {
		t.Errorf("backlog did not drain after heal: %d unsynced", lag)
	}
	if sbyTbl.Len() != 6 {
		t.Errorf("standby holds %d flows after heal, want 6", sbyTbl.Len())
	}
}
