package ctrlplane_test

import (
	"errors"
	"fmt"
	"strings"
	"sync"
	"testing"

	"microp4"
	"microp4/internal/ctrlplane"
	"microp4/internal/golden"
	"microp4/internal/lib"
	"microp4/internal/netsim"
	"microp4/internal/obs"
	"microp4/internal/pkt"
	"microp4/internal/sim"
	"microp4/internal/wire"
)

// v4Packet is routable via NetA/8 → next hop NhA → port PortA once the
// standard rules are installed.
func v4Packet() []byte {
	return pkt.NewBuilder().
		Ethernet(2, 3, pkt.EtherTypeIPv4).
		IPv4(pkt.IPv4Opts{TTL: 64, Protocol: 6, Src: 1, Dst: lib.NetA | 1}).
		TCP(1000, 80).Bytes()
}

// routes checks whether a switch currently forwards the NetA packet.
func routes(t *testing.T, sw *microp4.Switch) bool {
	t.Helper()
	return forwards(t, sw, v4Packet(), 0, lib.PortA)
}

// forwards checks whether sw sends data, arriving on inPort, out of
// port want (and nowhere else).
func forwards(t *testing.T, sw *microp4.Switch, data []byte, inPort, want uint64) bool {
	t.Helper()
	out, err := sw.Process(data, inPort)
	if err != nil {
		t.Fatalf("dataplane probe: %v", err)
	}
	return len(out) == 1 && out[0].Port == want
}

// updatePlan is the standard two-switch transactional rollout: route
// NetA on both switches.
func updatePlan(peers []string) []ctrlplane.TxnOp {
	var ops []ctrlplane.TxnOp
	for _, p := range peers {
		ops = append(ops,
			ctrlplane.TxnOp{Peer: p, Op: ctrlplane.AddEntry("l3_i.ipv4_i.ipv4_lpm_tbl",
				[]ctrlplane.CtrlKey{ctrlplane.LPM(lib.NetA, 8)}, "l3_i.ipv4_i.process", lib.NhA)},
			ctrlplane.TxnOp{Peer: p, Op: ctrlplane.AddEntry("forward_tbl",
				[]ctrlplane.CtrlKey{ctrlplane.Exact(lib.NhA)}, "forward", lib.DmacA, lib.SmacA, lib.PortA)},
			ctrlplane.TxnOp{Peer: p, Op: ctrlplane.SetDefault("forward_tbl", "drop_pkt")},
		)
	}
	return ops
}

const ctrlPort = 9

// scenario is one deterministic control-plane run: a controller and two
// switch agents joined by lossy links, driving updatePlan as one
// transaction.
type scenario struct {
	n        *netsim.Network
	client   *ctrlplane.Client
	switches map[string]*microp4.Switch
	reg      *obs.Registry
	metrics  *ctrlplane.Metrics
	events   []string // FaultEvents and "ctrl" trace events, interleaved in emission order
	result   *ctrlplane.TxnResult
}

func newScenario(t *testing.T, seed uint64, fm netsim.FaultModel) *scenario {
	t.Helper()
	reg := obs.NewRegistry()
	return newScenarioMetrics(t, compileProg(t, "P4"), seed, fm, reg, ctrlplane.NewMetrics(reg))
}

// newScenarioMetrics is newScenario with the switches' dataplane and
// the client's and the agents' Metrics chosen by the caller; nil
// metrics run the scenario uninstrumented.
func newScenarioMetrics(t *testing.T, dp *microp4.Dataplane, seed uint64, fm netsim.FaultModel, reg *obs.Registry, metrics *ctrlplane.Metrics) *scenario {
	t.Helper()
	s := &scenario{
		n:        netsim.New(seed),
		switches: map[string]*microp4.Switch{},
		reg:      reg,
		metrics:  metrics,
	}
	s.n.OnFault(func(e netsim.FaultEvent) {
		s.events = append(s.events, fmt.Sprintf("fault %s %s %s", e.Link, e.Kind, e.Detail))
	})
	s.n.Bus().Subscribe(func(e sim.TraceEvent) {
		if e.Kind == "ctrl" {
			s.events = append(s.events, fmt.Sprintf("ctrl %s %s %s", e.Module, e.Name, e.Detail))
		}
	})
	client, err := ctrlplane.NewClient(s.n, "ctrl", ctrlplane.Config{Seed: seed, Metrics: s.metrics})
	if err != nil {
		t.Fatal(err)
	}
	s.client = client
	for i, name := range []string{"s1", "s2"} {
		sw := dp.NewSwitch()
		sw.EnableMetrics()
		s.switches[name] = sw
		agent := ctrlplane.NewAgent(sw, ctrlplane.AgentConfig{
			Name: name, CtrlPort: ctrlPort, Metrics: s.metrics, Bus: s.n.Bus(),
		})
		if err := s.n.AddSwitch(name, agent); err != nil {
			t.Fatal(err)
		}
		local := uint64(i + 1)
		if err := client.AddPeer(name, local); err != nil {
			t.Fatal(err)
		}
		if err := s.n.Connect("ctrl", local, name, ctrlPort, fm); err != nil {
			t.Fatal(err)
		}
	}
	return s
}

func (s *scenario) transact(t *testing.T, ops []ctrlplane.TxnOp) {
	t.Helper()
	if err := s.client.Transaction(ops, func(r ctrlplane.TxnResult) { s.result = &r }); err != nil {
		t.Fatal(err)
	}
	if _, err := s.n.Run(0); err != nil {
		t.Fatal(err)
	}
	if s.result == nil {
		t.Fatal("network went quiet without resolving the transaction")
	}
}

func (s *scenario) engineFaults() uint64 {
	var total uint64
	for _, sw := range s.switches {
		total += sw.Metrics().Counter("up4_engine_faults_total", "").Value()
	}
	return total
}

// TestTransactionWithoutMetrics: Config.Metrics and AgentConfig.Metrics
// are optional. A transaction over a 10 %-drop link — so the retry and
// timeout paths run — must commit with every one of them nil (the
// client used to dereference its nil Metrics on the first timeout).
func TestTransactionWithoutMetrics(t *testing.T) {
	s := newScenarioMetrics(t, compileProg(t, "P4"), 0x5EED, netsim.FaultModel{Drop: 0.10}, nil, nil)
	s.transact(t, updatePlan(s.client.Peers()))
	if !s.result.Committed || len(s.result.PeerErrs) != 0 {
		t.Fatalf("transaction did not commit cleanly: %+v", *s.result)
	}
	for name, sw := range s.switches {
		if !routes(t, sw) {
			t.Errorf("%s did not converge to the planned state", name)
		}
	}
	var timeouts, retries int
	for _, e := range s.events {
		if strings.HasPrefix(e, "ctrl ctrl timeout") {
			timeouts++
		}
		if strings.HasPrefix(e, "ctrl ctrl retry") {
			retries++
		}
	}
	if timeouts == 0 || retries == 0 {
		t.Errorf("%d timeouts, %d retries: the lossy link did not exercise the paths under test\n%s",
			timeouts, retries, strings.Join(s.events, "\n"))
	}
}

// lossy is the acceptance fault model: ≥10% drop plus duplication and
// reorder on every control link.
var lossy = netsim.FaultModel{Drop: 0.12, Duplicate: 0.08, Reorder: 0.15}

// TestTransactionConvergesOverLossyLinks is the acceptance scenario: a
// multi-switch transactional update rides links that drop, duplicate,
// and reorder control packets, and still lands atomically — every
// switch ends up forwarding, retries happened, and no engine faulted.
func TestTransactionConvergesOverLossyLinks(t *testing.T) {
	s := newScenario(t, 0x5EED, lossy)
	for name, sw := range s.switches {
		if routes(t, sw) {
			t.Fatalf("%s forwards before any rules were installed", name)
		}
	}
	s.transact(t, updatePlan(s.client.Peers()))
	if !s.result.Committed || len(s.result.PeerErrs) != 0 {
		t.Fatalf("transaction did not commit cleanly: %+v", *s.result)
	}
	for name, sw := range s.switches {
		if !routes(t, sw) {
			t.Errorf("%s did not converge to the planned state", name)
		}
	}
	if got := s.metrics.Retries.Value(); got == 0 {
		t.Error("up4_ctrl_retries_total = 0, want > 0 (losses must have forced retransmissions)")
	}
	if got := s.engineFaults(); got != 0 {
		t.Errorf("up4_engine_faults_total = %d, want 0", got)
	}
	if got := s.metrics.TxnCommits.Value(); got != 1 {
		t.Errorf("up4_ctrl_txn_commits_total = %d, want 1", got)
	}
}

// TestTransactionDeterministicPerSeed runs the identical lossy scenario
// twice: the interleaved FaultEvent / retry / commit sequence must be
// byte-identical, and a different seed must diverge.
func TestTransactionDeterministicPerSeed(t *testing.T) {
	run := func(seed uint64) string {
		s := newScenario(t, seed, lossy)
		s.transact(t, updatePlan(s.client.Peers()))
		return strings.Join(s.events, "\n")
	}
	a, b := run(0x5EED), run(0x5EED)
	if a != b {
		t.Errorf("same seed, different event sequence:\n--- first ---\n%s\n--- second ---\n%s", a, b)
	}
	c := run(0xD1FF)
	if c == a {
		t.Error("different seed reproduced the identical event sequence — clock or rng is not seed-driven")
	}
	golden.Signature(t, t.Name()+"/seed=0x5eed", []byte(a))
	golden.Signature(t, t.Name()+"/seed=0xd1ff", []byte(c))
}

// TestTransactionAbortsAtomically dooms the plan with one invalid op:
// every switch must roll back to its pre-transaction state even though
// the valid ops were staged and possibly prepared.
func TestTransactionAbortsAtomically(t *testing.T) {
	s := newScenario(t, 0x5EED, lossy)
	// Pre-existing state the rollback must preserve.
	for _, sw := range s.switches {
		if err := sw.TryAddEntry("l3_i.ipv6_i.ipv6_lpm_tbl",
			[]microp4.Key{microp4.LPM(lib.NetV6Hi, 32)}, "l3_i.ipv6_i.process", lib.NhV6); err != nil {
			t.Fatal(err)
		}
	}
	plan := updatePlan(s.client.Peers())
	plan = append(plan, ctrlplane.TxnOp{Peer: "s2",
		Op: ctrlplane.AddEntry("no_such_tbl", []ctrlplane.CtrlKey{ctrlplane.Exact(1)}, "forward", 1)})
	s.transact(t, plan)
	if s.result.Committed {
		t.Fatalf("transaction with an invalid op committed: %+v", *s.result)
	}
	var ce *sim.ControlError
	if err := s.result.PeerErrs["s2"]; !errors.As(err, &ce) || ce.Kind != sim.RejectUnknownTable {
		t.Errorf("s2 error = %v, want ControlError kind %q", err, sim.RejectUnknownTable)
	}
	for name, sw := range s.switches {
		if routes(t, sw) {
			t.Errorf("%s kept transactional state after abort", name)
		}
		if v6 := pkt.NewBuilder().Ethernet(2, 3, pkt.EtherTypeIPv6).
			IPv6(pkt.IPv6Opts{HopLimit: 64, NextHdr: 6, DstHi: lib.NetV6Hi | 1}).Bytes(); v6 != nil {
			// The pre-existing v6 route must have survived the rollback:
			// it routes to NhV6, which has no forward entry, so the probe
			// is simply that processing still succeeds without fault.
			if _, err := sw.Process(v6, 0); err != nil {
				t.Errorf("%s: pre-existing state damaged by rollback: %v", name, err)
			}
		}
	}
	if got := s.metrics.TxnAborts.Value(); got != 1 {
		t.Errorf("up4_ctrl_txn_aborts_total = %d, want 1", got)
	}
}

// TestUnreachablePeerAborts takes one control link administratively
// down: the transaction must give up after MaxAttempts and abort, with
// the reachable switch rolled back.
func TestUnreachablePeerAborts(t *testing.T) {
	s := newScenario(t, 7, netsim.FaultModel{})
	if err := s.n.SetLinkDown("ctrl", 2, true); err != nil {
		t.Fatal(err)
	}
	s.transact(t, updatePlan(s.client.Peers()))
	if s.result.Committed {
		t.Fatal("transaction committed with an unreachable participant")
	}
	if err := s.result.PeerErrs["s2"]; !errors.Is(err, ctrlplane.ErrUnreachable) {
		t.Errorf("s2 error = %v, want ErrUnreachable", err)
	}
	if routes(t, s.switches["s1"]) {
		t.Error("reachable switch s1 kept transactional state after abort")
	}
	if s.metrics.Timeouts.Value() == 0 {
		t.Error("up4_ctrl_timeouts_total = 0, want > 0")
	}
}

// TestAbortUnderFlowChurn is the chaos case for an aborting rollout
// under flow churn: two P9 firewalls behind lossy control links, a
// plan that would reroute NetB on both, and s2's control link cut as
// prepare starts, so s1 prepares and then aborts. Flows are learned on
// s1 before the transaction and all through its prepared window.
// After the abort every flow passes return traffic and the
// pre-existing routes forward; no packet meanwhile took the doomed
// plan's route. The run is byte-identical per seed.
func TestAbortUnderFlowChurn(t *testing.T) {
	for _, seed := range []uint64{42, 7, 1001} {
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			first := runAbortUnderChurn(t, seed)
			golden.Signature(t, t.Name(), []byte(first))
			if again := runAbortUnderChurn(t, seed); again != first {
				t.Errorf("abort-under-churn run is not reproducible for seed %d", seed)
			}
		})
	}
}

// runAbortUnderChurn drives one seed of TestAbortUnderFlowChurn and
// returns its signature: the interleaved fault and control events, s1's
// egress and the fault tallies.
func runAbortUnderChurn(t *testing.T, seed uint64) string {
	t.Helper()
	reg := obs.NewRegistry()
	s := newScenarioMetrics(t, compileProg(t, "P9"), seed, lossy, reg, ctrlplane.NewMetrics(reg))
	for _, sw := range s.switches {
		installP9Rules(sw)
	}
	const before, during = 20, 40
	inject := func(i int) {
		for _, err := range []error{
			s.n.Inject("s1", lib.PortA, flowFwd(i)),
			s.n.Inject("s1", lib.PortB, flowRev(i)),
		} {
			if err != nil {
				t.Fatal(err)
			}
		}
	}
	for i := 0; i < before; i++ {
		inject(i)
	}
	if _, err := s.n.Run(0); err != nil {
		t.Fatal(err)
	}

	// The client announces prepare before sending it: cut s2 off then.
	// Once s1 has prepared, learn one more flow every 8 ticks.
	var held bool    // s1 holds the transaction prepared
	var inWindow int // flows learned while it does
	s.n.Bus().Subscribe(func(e sim.TraceEvent) {
		switch {
		case e.Kind != "ctrl":
		case e.Name == "txn-prepare":
			if err := s.n.SetLinkDown("ctrl", 2, true); err != nil {
				t.Error(err)
			}
		case e.Module == "s1" && e.Name == "prepare":
			held = true
			for k := 0; k < during; k++ {
				i := before + k
				s.n.After(uint64(8*k+1), func() {
					if held {
						inWindow++
					}
					inject(i)
				})
			}
		case e.Module == "s1" && e.Name == "abort":
			held = false
		}
	})
	var plan []ctrlplane.TxnOp
	for _, peer := range s.client.Peers() {
		plan = append(plan,
			ctrlplane.TxnOp{Peer: peer, Op: ctrlplane.ClearTable(lpmTbl)},
			ctrlplane.TxnOp{Peer: peer, Op: ctrlplane.AddEntry(lpmTbl,
				[]ctrlplane.CtrlKey{ctrlplane.LPM(lib.NetB, 8)}, "l3_i.ipv4_i.process", lib.NhA)})
	}
	s.transact(t, plan)
	if s.result.Committed {
		t.Fatalf("transaction committed with s2 cut off at prepare: %+v", *s.result)
	}
	if err := s.result.PeerErrs["s2"]; !errors.Is(err, ctrlplane.ErrUnreachable) {
		t.Errorf("s2 error = %v, want ErrUnreachable", err)
	}
	if inWindow == 0 || held {
		t.Fatalf("s1 learned %d flows while holding the transaction prepared (still held at the end: %v): the case does not test what it names",
			inWindow, held)
	}

	// Every flow, learned before or during the transaction, passes its
	// return packet; a new flow takes the pre-existing NetB route.
	for i := 0; i < before+during; i++ {
		if err := s.n.Inject("s1", lib.PortB, flowRev(i)); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.n.Inject("s1", lib.PortA, flowFwd(before+during)); err != nil {
		t.Fatal(err)
	}
	if _, err := s.n.Run(0); err != nil {
		t.Fatal(err)
	}
	ports := map[uint64]int{}
	var sig strings.Builder
	for _, e := range s.events {
		fmt.Fprintln(&sig, e)
	}
	for _, d := range s.n.Egress("s1") {
		ports[d.Port]++
		fmt.Fprintf(&sig, "egress %d %x\n", d.Port, d.Data)
	}
	flows := before + during
	if want := map[uint64]int{lib.PortA: 2 * flows, lib.PortB: flows + 1}; fmt.Sprint(ports) != fmt.Sprint(want) {
		t.Errorf("s1 egress by port %v, want %v: a packet was dropped or took the aborted plan's route", ports, want)
	}
	// s2 never heard the prepare or the abort: its staged batch is
	// held, unapplied, and its routes are unchanged.
	if !forwards(t, s.switches["s2"], flowFwd(0), lib.PortA, lib.PortB) {
		t.Error("s2, cut off before prepare, stopped routing NetB")
	}
	st := s.n.Stats()
	for _, k := range netsim.FaultKinds {
		fmt.Fprintf(&sig, "fault %s %d\n", k, st.Faults[k])
	}
	fmt.Fprintf(&sig, "steps %d\n", st.Steps)
	return sig.String()
}

// TestBreakerOpensOnDeadPeer checks the circuit breaker: enough
// consecutive timeouts trip it open (gauge = 1), and sends while open
// are held rather than burned.
func TestBreakerOpensOnDeadPeer(t *testing.T) {
	s := newScenario(t, 11, netsim.FaultModel{Drop: 1.0})
	var errs []error
	for i := 0; i < 3; i++ {
		err := s.client.Do("s1", ctrlplane.ClearTable("forward_tbl"),
			func(_ *ctrlplane.CtrlReply, err error) { errs = append(errs, err) })
		if err != nil {
			t.Fatal(err)
		}
	}
	if _, err := s.n.Run(0); err != nil {
		t.Fatal(err)
	}
	if len(errs) != 3 {
		t.Fatalf("resolved %d of 3 calls", len(errs))
	}
	for _, err := range errs {
		if !errors.Is(err, ctrlplane.ErrUnreachable) {
			t.Errorf("err = %v, want ErrUnreachable", err)
		}
	}
	gauge := s.reg.Gauge("up4_ctrl_breaker_state", "", obs.L("peer", "s1"))
	if gauge.Value() == int64(wire.BreakerClosed) {
		t.Error("breaker still closed after a fully dead channel")
	}
}

// TestParkedClientIsNamedByWatchdog: a client retrying into a dead
// channel re-arms timers that move no packets; when the run watchdog
// gives up on the network it must name the client's await/retry timers
// as the owners (they used to be anonymous).
func TestParkedClientIsNamedByWatchdog(t *testing.T) {
	s := newScenario(t, 11, netsim.FaultModel{Drop: 1.0})
	s.n.SetWatchdog(4)
	if err := s.client.Do("s1", ctrlplane.ClearTable("forward_tbl"), nil); err != nil {
		t.Fatal(err)
	}
	_, err := s.n.Run(0)
	if err == nil {
		t.Fatal("watchdog did not fire on a client parked against a dead peer")
	}
	msg := err.Error()
	if !strings.Contains(msg, "ctrl await s1") && !strings.Contains(msg, "ctrl retry s1") {
		t.Errorf("watchdog error does not name the parked client: %v", err)
	}
	if strings.Contains(msg, "unnamed") {
		t.Errorf("watchdog error still reports an anonymous timer: %v", err)
	}
}

// TestCommitRacesDataplaneAndChurn drives a committing transaction
// through the network's run loop while other goroutines hammer the same
// switches with live traffic and schema-shaped churn. Run under -race;
// the assertion is the absence of data races and a committed result.
func TestCommitRacesDataplaneAndChurn(t *testing.T) {
	s := newScenario(t, 0xACE, netsim.FaultModel{Drop: 0.05, Duplicate: 0.05})
	api := compileProg(t, "P4").ControlAPI()
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for name, sw := range s.switches {
		churn := netsim.NewChurn(0xC0FFEE, sw, netsim.ChurnConfig{
			Tables: []string{"forward_tbl", "l3_i.ipv4_i.ipv4_lpm_tbl"},
			Actions: map[string]string{
				"forward_tbl":              "forward",
				"l3_i.ipv4_i.ipv4_lpm_tbl": "l3_i.ipv4_i.process",
			},
			API:    api,
			Groups: []uint64{1}, Ports: []uint64{1, 2},
		})
		wg.Add(2)
		go func(sw *microp4.Switch) {
			defer wg.Done()
			data := v4Packet()
			for {
				select {
				case <-stop:
					return
				default:
					if _, err := sw.Process(data, 0); err != nil {
						t.Errorf("dataplane under churn: %v", err)
						return
					}
				}
			}
		}(sw)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
					churn.Step()
				}
			}
		}()
		_ = name
	}
	s.transact(t, updatePlan(s.client.Peers()))
	close(stop)
	wg.Wait()
	if !s.result.Committed {
		t.Fatalf("transaction did not commit: %+v", *s.result)
	}
	if got := s.engineFaults(); got != 0 {
		t.Errorf("up4_engine_faults_total = %d under race, want 0", got)
	}
}

// TestChurnRejectCounting wires churn through the network with a
// deliberately bogus table in the mix: the validated API must refuse
// those ops and up4_churn_rejects_total must count them.
func TestChurnRejectCounting(t *testing.T) {
	dp := compileProg(t, "P4")
	n := netsim.New(3)
	reg := n.EnableMetrics()
	sw := dp.NewSwitch()
	if err := n.AddSwitch("s1", sw); err != nil {
		t.Fatal(err)
	}
	if err := n.AddChurn("s1", netsim.ChurnConfig{
		Tables:  []string{"forward_tbl", "bogus_tbl"},
		Actions: map[string]string{"forward_tbl": "forward", "bogus_tbl": "nope"},
		API:     dp.ControlAPI(),
	}, 8); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 64; i++ {
		if err := n.Inject("s1", 0, v4Packet()); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := n.Run(0); err != nil {
		t.Fatal(err)
	}
	rejects := reg.Counter("up4_churn_rejects_total", "", obs.L("node", "s1")).Value()
	if rejects == 0 {
		t.Error("up4_churn_rejects_total = 0, want > 0 (bogus_tbl ops must be refused)")
	}
}
