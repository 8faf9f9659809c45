package microp4_test

import (
	"fmt"
	"strings"
	"testing"

	"microp4/internal/ctrlplane"
	"microp4/internal/golden"
	"microp4/internal/issu"
	"microp4/internal/lib"
	"microp4/internal/netsim"
	"microp4/internal/obs"
	"microp4/internal/pkt"
)

// The load-balancer failover acceptance scenarios: the P11 front end
// keeps established connections pinned to their backends while the
// control plane churns the pool — first as a two-phase-commit rule
// rollout over ≥10% drop (plus dup and reorder) links, then across an
// in-service generation upgrade with a shadow canary. Both runs are
// seed-deterministic down to the byte.

// lbFaults is the acceptance fault model on the control channel.
var lbFaults = netsim.FaultModel{Drop: 0.12, Duplicate: 0.08, Reorder: 0.15}

// lbSeeds are the pinned acceptance seeds; every scenario must hold at
// each of them.
var lbSeeds = []uint64{42, 7, 1001}

// lbClientPkt is client i's VIP connection: one distinct (src, sport)
// tuple per client, all aimed at the configured virtual service.
func lbClientPkt(i int) []byte {
	return pkt.NewBuilder().Ethernet(lib.DmacA, 2, pkt.EtherTypeIPv4).
		IPv4(pkt.IPv4Opts{TTL: 64, Protocol: pkt.ProtoTCP,
			Src: 0x0A000000 | uint32(i+1), Dst: lib.VipAddr}).
		TCP(uint16(20000+i), lib.VipPort).Payload([]byte("req")).Bytes()
}

// lbExpectedBackend replicates the balancer's splitmix-style tuple hash
// and the control plane's bucket layout (InstallBalancerPool with the
// given shift) to predict which backend address a FRESH flow from
// client i must land on.
func lbExpectedBackend(i int, shift uint32) uint32 {
	h := (0x0A000000 | uint32(i+1)) ^ (uint32(20000+i) << 16) ^ 6
	h *= 0x9E3779B1
	h ^= h >> 15
	bk := (h&7+shift)%lib.NumBackends + 1
	return uint32(lib.NetB) | bk
}

// lbSrcOf / lbDstOf read the client and (possibly rewritten) server
// address out of an eth+IPv4 frame.
func lbSrcOf(data []byte) uint32 {
	return uint32(data[26])<<24 | uint32(data[27])<<16 | uint32(data[28])<<8 | uint32(data[29])
}
func lbDstOf(data []byte) uint32 {
	return uint32(data[30])<<24 | uint32(data[31])<<16 | uint32(data[32])<<8 | uint32(data[33])
}

// lbChurnPlan is the backend-pool remap as one transactional update:
// drop every (service, bucket) assignment and re-point the buckets one
// backend over — the same rotation lib.InstallBalancerPool(shift=1)
// installs directly.
func lbChurnPlan(peer string) []ctrlplane.TxnOp {
	ops := []ctrlplane.TxnOp{{Peer: peer, Op: ctrlplane.ClearTable("bal_i.bucket_tbl")}}
	for b := uint64(0); b < 8; b++ {
		ops = append(ops, ctrlplane.TxnOp{Peer: peer, Op: ctrlplane.AddEntry(
			"bal_i.bucket_tbl",
			[]ctrlplane.CtrlKey{ctrlplane.Exact(1), ctrlplane.Exact(b)},
			"bal_i.pick", (b+1)%lib.NumBackends+1)})
	}
	return ops
}

// lbChurnRun drives one full 2PC-churn scenario at a seed and returns
// its run signature (every egress frame plus the fault tallies). All
// behavioral assertions live here; the callers compare signatures.
func lbChurnRun(t *testing.T, seed uint64) string {
	t.Helper()
	const clients = 40
	dp := compileLib(t, "P11")
	n := netsim.New(seed)
	metrics := ctrlplane.NewMetrics(obs.NewRegistry())
	sw := dp.NewSwitch()
	installLibRules(sw, "P11")
	agent := ctrlplane.NewAgent(sw, ctrlplane.AgentConfig{
		Name: "lb", CtrlPort: 9, Metrics: metrics, Bus: n.Bus(),
	})
	if err := n.AddSwitch("lb", agent); err != nil {
		t.Fatal(err)
	}
	client, err := ctrlplane.NewClient(n, "ctrl", ctrlplane.Config{Seed: seed, Metrics: metrics})
	if err != nil {
		t.Fatal(err)
	}
	if err := client.AddPeer("lb", 1); err != nil {
		t.Fatal(err)
	}
	if err := n.Connect("ctrl", 1, "lb", 9, lbFaults); err != nil {
		t.Fatal(err)
	}
	run := func() {
		if _, err := n.Run(0); err != nil {
			t.Fatal(err)
		}
	}

	// Phase 1: establish the client population — two packets per flow,
	// so every connection is past the learn state and pinned.
	for i := 0; i < clients; i++ {
		for j := 0; j < 2; j++ {
			if err := n.Inject("lb", 0, lbClientPkt(i)); err != nil {
				t.Fatal(err)
			}
		}
	}
	run()
	pinned := map[uint32]uint32{} // client src → backend
	for _, d := range n.Egress("lb") {
		pinned[lbSrcOf(d.Data)] = lbDstOf(d.Data)
	}
	for i := 0; i < clients; i++ {
		src := 0x0A000000 | uint32(i+1)
		if got, want := pinned[src], lbExpectedBackend(i, 0); got != want {
			t.Fatalf("client %d pinned to %08x, hash predicts %08x", i, got, want)
		}
	}

	// Phase 2: remap the pool as one transaction over the lossy control
	// channel. It must land atomically, and the losses must have forced
	// retransmissions for the run to mean anything.
	var result *ctrlplane.TxnResult
	if err := client.Transaction(lbChurnPlan("lb"),
		func(r ctrlplane.TxnResult) { result = &r }); err != nil {
		t.Fatal(err)
	}
	run()
	if result == nil || !result.Committed || len(result.PeerErrs) != 0 {
		t.Fatalf("pool churn did not commit cleanly: %+v", result)
	}
	if metrics.Retries.Value() == 0 {
		t.Error("churn transaction saw no retries over the 12-percent-drop links")
	}

	// Phase 3: every established flow must stay on its pinned backend
	// (≥99%), while fresh clients follow the remapped pool exactly.
	before := len(n.Egress("lb"))
	for i := 0; i < clients; i++ {
		if err := n.Inject("lb", 0, lbClientPkt(i)); err != nil {
			t.Fatal(err)
		}
	}
	for i := clients; i < 2*clients; i++ {
		if err := n.Inject("lb", 0, lbClientPkt(i)); err != nil {
			t.Fatal(err)
		}
	}
	run()
	sticky := 0
	for _, d := range n.Egress("lb")[before:] {
		src := lbSrcOf(d.Data)
		i := int(src&0xFFFFFF) - 1
		if i < clients {
			if lbDstOf(d.Data) == pinned[src] {
				sticky++
			}
		} else if got, want := lbDstOf(d.Data), lbExpectedBackend(i, 1); got != want {
			t.Errorf("fresh client %d landed on %08x, remapped pool predicts %08x", i, got, want)
		}
	}
	if sticky*100 < clients*99 {
		t.Errorf("only %d/%d established flows kept their backend through pool churn (<99%%)",
			sticky, clients)
	}

	var sig strings.Builder
	for _, d := range n.Egress("lb") {
		fmt.Fprintf(&sig, "egress %d %x\n", d.Port, d.Data)
	}
	st := n.Stats()
	for _, k := range netsim.FaultKinds {
		fmt.Fprintf(&sig, "fault %s %d\n", k, st.Faults[k])
	}
	fmt.Fprintf(&sig, "steps %d retries %d\n", st.Steps, metrics.Retries.Value())
	return sig.String()
}

// TestBalancerFailover2PCChurn is the first acceptance scenario: at
// every pinned seed, backend-pool churn lands as an atomic 2PC update
// over lossy links, established flows keep ≥99% stickiness, fresh
// flows follow the new map, and the whole run — faults, retries, every
// egress byte — replays identically for the same seed.
func TestBalancerFailover2PCChurn(t *testing.T) {
	sigs := map[uint64]string{}
	for _, seed := range lbSeeds {
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			first := lbChurnRun(t, seed)
			golden.Signature(t, t.Name(), []byte(first))
			if again := lbChurnRun(t, seed); again != first {
				t.Error("same seed produced a different run signature")
			}
			sigs[seed] = first
		})
	}
	if len(sigs) == len(lbSeeds) && sigs[42] == sigs[7] {
		t.Error("different seeds reproduced the identical signature — faults are not seed-driven")
	}
}

// p11V2Main ships the P11 v2 main module (the benign upgrade: a staged
// but unconfigured prio_tbl, byte-identical behavior until programmed).
func p11V2Main(t testing.TB) issu.Module {
	t.Helper()
	src, err := lib.Source("up4/p11_lb_v2.up4")
	if err != nil {
		t.Fatal(err)
	}
	return issu.Module{Name: "p11_lb_v2.up4", Source: src}
}

// p11Modules ships the library modules P11 composes.
func p11Modules(t testing.TB) []issu.Module {
	t.Helper()
	m, err := lib.Program("P11")
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

// TestBalancerUpgradeCanary is the second acceptance scenario: the live
// load balancer upgrades in service to P11 v2 over the same lossy
// links, with VIP traffic pumping through the shadow canary, and while
// the canary runs a 2PC pool churn commits over its own lossy channel.
// The upgrade must commit; afterwards the pinned flows must keep their
// backends — the stick values ride the shared flowtable — and fresh
// flows must follow the churned pool, which the new generation sees
// because it reads the switch's one table state.
func TestBalancerUpgradeCanary(t *testing.T) {
	for _, seed := range lbSeeds {
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			const clients = 24
			dp := compileLib(t, "P11")
			n := netsim.New(seed)
			metrics := issu.NewMetrics(obs.NewRegistry())
			cmetrics := ctrlplane.NewMetrics(obs.NewRegistry())
			sw := dp.NewSwitch()
			installLibRules(sw, "P11")
			agent := issu.NewAgent("lb", sw, issu.AgentConfig{
				UpgradePort: 9,
				Inner: ctrlplane.NewAgent(sw, ctrlplane.AgentConfig{
					Name: "lb", CtrlPort: 8, Metrics: cmetrics, Bus: n.Bus(),
				}),
				Upgrader: issu.UpgraderConfig{Metrics: metrics, Bus: n.Bus(), Now: n.Now},
			})
			if err := n.AddSwitch("lb", agent); err != nil {
				t.Fatal(err)
			}
			coord, err := issu.NewCoordinator(n, "coord", issu.CoordinatorConfig{
				Seed: seed, CanaryN: 64, Metrics: metrics,
			})
			if err != nil {
				t.Fatal(err)
			}
			if err := coord.AddPeer("lb", 1); err != nil {
				t.Fatal(err)
			}
			if err := n.Connect("coord", 1, "lb", 9, netsim.FaultModel{
				Drop: 0.10, Duplicate: 0.05, Reorder: 0.05,
			}); err != nil {
				t.Fatal(err)
			}
			client, err := ctrlplane.NewClient(n, "ctrl", ctrlplane.Config{Seed: seed, Metrics: cmetrics})
			if err != nil {
				t.Fatal(err)
			}
			if err := client.AddPeer("lb", 1); err != nil {
				t.Fatal(err)
			}
			if err := n.Connect("ctrl", 1, "lb", 8, lbFaults); err != nil {
				t.Fatal(err)
			}
			run := func() {
				if _, err := n.Run(0); err != nil {
					t.Fatal(err)
				}
			}

			// Establish the population and note each flow's backend.
			for i := 0; i < clients; i++ {
				for j := 0; j < 2; j++ {
					if err := n.Inject("lb", 0, lbClientPkt(i)); err != nil {
						t.Fatal(err)
					}
				}
			}
			run()
			pinned := map[uint32]uint32{}
			for _, d := range n.Egress("lb") {
				pinned[lbSrcOf(d.Data)] = lbDstOf(d.Data)
			}
			if len(pinned) != clients {
				t.Fatalf("established %d/%d flows before the upgrade", len(pinned), clients)
			}

			// Timer-driven VIP traffic keeps the canary fed while the
			// coordinated upgrade rides the lossy channel; the first tick
			// that finds the canary running starts the pool churn.
			var upErr error
			var churn *ctrlplane.TxnResult
			upDone, churnStarted, churnWhileStaged := false, false, false
			stopped := false
			i := 0
			var tick func()
			tick = func() {
				if stopped || i >= 5000 {
					return
				}
				if !churnStarted && sw.CanaryStatus().Active {
					churnStarted = true
					if err := client.Transaction(lbChurnPlan("lb"), func(r ctrlplane.TxnResult) {
						churn, churnWhileStaged = &r, sw.StagedGeneration() != 0
					}); err != nil {
						t.Fatal(err)
					}
				}
				_ = n.Inject("lb", 0, lbClientPkt(i%clients))
				i++
				n.After(6, tick)
			}
			if err := coord.Upgrade("P11v2", p11V2Main(t), p11Modules(t), func(e error) {
				upErr, upDone = e, true
				stopped = true
			}); err != nil {
				t.Fatal(err)
			}
			n.After(6, tick)
			run()
			if !upDone {
				t.Fatal("upgrade never resolved")
			}
			if upErr != nil {
				t.Fatalf("clean P11 upgrade aborted: %v", upErr)
			}
			if churn == nil || !churn.Committed || len(churn.PeerErrs) != 0 {
				t.Fatalf("pool churn did not commit cleanly: %+v", churn)
			}
			if !churnWhileStaged {
				t.Fatal("pool churn committed after the cutover, not during the canary")
			}
			if gen := sw.Generation(); gen != 2 {
				t.Errorf("live generation %d after cutover, want 2", gen)
			}
			if st := sw.CanaryStatus(); st.Active {
				t.Error("canary still attached after cutover")
			}
			// The new generation must know the v2 table to prove it
			// really is v2.
			if err := sw.TrySetDefault("prio_tbl", "keep"); err != nil {
				t.Errorf("post-cutover generation lacks the v2 prio_tbl: %v", err)
			}

			// Replay every established flow and as many fresh ones: the
			// established keep their backends (≥99%), the fresh follow
			// the pool the churn installed during the canary.
			before := len(n.Egress("lb"))
			for i := 0; i < 2*clients; i++ {
				if err := n.Inject("lb", 0, lbClientPkt(i)); err != nil {
					t.Fatal(err)
				}
			}
			run()
			sticky := 0
			for _, d := range n.Egress("lb")[before:] {
				src := lbSrcOf(d.Data)
				if i := int(src&0xFFFFFF) - 1; i >= clients {
					if got, want := lbDstOf(d.Data), lbExpectedBackend(i, 1); got != want {
						t.Errorf("fresh client %d landed on %08x, the churned pool predicts %08x", i, got, want)
					}
				} else if lbDstOf(d.Data) == pinned[src] {
					sticky++
				}
			}
			if sticky*100 < clients*99 {
				t.Errorf("only %d/%d flows kept their backend across cutover + churn (<99%%)",
					sticky, clients)
			}

			var sig strings.Builder
			for _, d := range n.Egress("lb") {
				fmt.Fprintf(&sig, "egress %d %x\n", d.Port, d.Data)
			}
			st := n.Stats()
			for _, k := range netsim.FaultKinds {
				fmt.Fprintf(&sig, "fault %s %d\n", k, st.Faults[k])
			}
			fmt.Fprintf(&sig, "steps %d gen %d\n", st.Steps, sw.Generation())
			golden.Signature(t, t.Name(), []byte(sig.String()))
		})
	}
}
