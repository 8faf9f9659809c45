package microp4_test

// Differential campaign for the batched ingress (PR 5): ProcessBatch —
// serial (one worker) and parallel (sharded worker pool) — must be
// output-identical, error-identical, digest-identical, and (latency
// histogram aside) metrics-identical to a plain Process loop over the
// same packets. Covers the P4 routing mix, recirculation (including
// budget exhaustion), multicast replication, and stateful digests; and,
// for the flow-keyed parallel path, per-flow order on P9 and P11 at
// four workers (TestBatchFlowOrder and its mutation guard).

import (
	"bytes"
	"errors"
	"fmt"
	"strings"
	"testing"
	"time"

	"microp4"
	"microp4/internal/flow"
	"microp4/internal/lib"
	"microp4/internal/perf"
	"microp4/internal/pkt"
)

// batchTraffic builds a deterministic mixed workload: routable IPv4,
// routable IPv6, unroutable IPv4, non-IP ethertypes, and truncated
// garbage, interleaved by a seeded LCG.
func batchTraffic(n int) [][]byte {
	v4 := pkt.NewBuilder().Ethernet(lib.DmacA, 2, pkt.EtherTypeIPv4).
		IPv4(pkt.IPv4Opts{TTL: 64, Protocol: 6, Src: 0xC0A80002, Dst: lib.NetA | 1}).
		TCP(1234, 80).Payload([]byte("v4")).Bytes()
	v6 := pkt.NewBuilder().Ethernet(lib.DmacA, 2, pkt.EtherTypeIPv6).
		IPv6(pkt.IPv6Opts{NextHdr: 59, HopLimit: 9, DstHi: lib.NetV6Hi, DstLo: 1}).
		Payload([]byte("v6")).Bytes()
	unroutable := pkt.NewBuilder().Ethernet(lib.DmacA, 2, pkt.EtherTypeIPv4).
		IPv4(pkt.IPv4Opts{TTL: 64, Protocol: 17, Src: 1, Dst: 0xDEADBEEF}).
		UDP(1, 2, 8).Bytes()
	arp := pkt.NewBuilder().Ethernet(lib.DmacA, 2, 0x0806).Payload([]byte{1, 2, 3, 4}).Bytes()
	shapes := [][]byte{v4, v6, unroutable, arp, {0xFF}, {}, v4[:10]}
	out := make([][]byte, n)
	state := uint64(42)
	for i := range out {
		state = state*6364136223846793005 + 1442695040888963407
		out[i] = shapes[state>>33%uint64(len(shapes))]
	}
	return out
}

// exposition returns the switch's metrics exposition with the latency
// histogram removed: with every packet timed, bucket placement depends
// on wall-clock durations, which no two runs share.
func exposition(t *testing.T, sw *microp4.Switch) string {
	t.Helper()
	var buf bytes.Buffer
	if err := sw.Metrics().WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	var kept []string
	for _, line := range strings.Split(buf.String(), "\n") {
		if strings.Contains(line, "up4_packet_latency_ns") {
			continue
		}
		kept = append(kept, line)
	}
	return strings.Join(kept, "\n")
}

// runSerial drives packets one at a time through Process, mirroring
// ProcessBatch's result shape; digests are drained after each packet so
// their order reflects packet order.
func runSerial(sw *microp4.Switch, pkts [][]byte, inPort uint64) ([]microp4.BatchResult, []uint64) {
	results := make([]microp4.BatchResult, len(pkts))
	var digests []uint64
	for i, p := range pkts {
		out, err := sw.Process(p, inPort)
		results[i] = microp4.BatchResult{Out: out, Err: err}
		digests = append(digests, sw.Digests()...)
	}
	return results, digests
}

// resultDiff compares one packet's outcome in two runs.
func resultDiff(w, g microp4.BatchResult) error {
	if (w.Err == nil) != (g.Err == nil) || (w.Err != nil && w.Err.Error() != g.Err.Error()) {
		return fmt.Errorf("err %v, want %v", g.Err, w.Err)
	}
	if len(w.Out) != len(g.Out) {
		return fmt.Errorf("%d outputs, want %d", len(g.Out), len(w.Out))
	}
	for j := range w.Out {
		if w.Out[j].Port != g.Out[j].Port || !bytes.Equal(w.Out[j].Data, g.Out[j].Data) {
			return fmt.Errorf("out %d: port %d data %x, want port %d data %x",
				j, g.Out[j].Port, g.Out[j].Data, w.Out[j].Port, w.Out[j].Data)
		}
	}
	return nil
}

// diffResults compares per-packet outcomes of two runs.
func diffResults(t *testing.T, label string, want, got []microp4.BatchResult) {
	t.Helper()
	if len(want) != len(got) {
		t.Fatalf("%s: %d results, want %d", label, len(got), len(want))
	}
	for i := range want {
		if err := resultDiff(want[i], got[i]); err != nil {
			t.Errorf("%s pkt %d: %v", label, i, err)
		}
	}
}

// TestBatchDiffP4 proves ProcessBatch (one worker and four) is
// packet-for-packet and metric-for-metric identical to serial Process
// on the P4 routing mix, for both engines.
func TestBatchDiffP4(t *testing.T) {
	traffic := batchTraffic(128)
	newSwitch := func() *microp4.Switch {
		sw, err := perf.Switch("P4")
		if err != nil {
			t.Fatal(err)
		}
		sw.EnableMetrics()
		return sw
	}
	ref := newSwitch()
	want, wantDigests := runSerial(ref, traffic, 1)
	wantMetrics := exposition(t, ref)

	for _, workers := range []int{1, 4} {
		t.Run(fmt.Sprintf("workers=%d", workers), func(t *testing.T) {
			sw := newSwitch()
			sw.SetWorkers(workers)
			got := sw.ProcessBatch(traffic, 1)
			diffResults(t, "batch", want, got)
			if d := sw.Digests(); len(d) != len(wantDigests) {
				t.Errorf("digests = %v, want %v", d, wantDigests)
			}
			if m := exposition(t, sw); m != wantMetrics {
				t.Errorf("metrics diverge from serial run:\n got:\n%s\nwant:\n%s", m, wantMetrics)
			}
		})
	}
}

// TestBatchDiffRecirc exercises recirculation inside a batch: looping
// packets, packets that exceed the budget (typed error at the right
// index), and straight-through packets, identical under 1 and 4
// workers.
func TestBatchDiffRecirc(t *testing.T) {
	main, err := microp4.CompileModule("loop.up4", recircSrc)
	if err != nil {
		t.Fatal(err)
	}
	dp, err := microp4.Build(main)
	if err != nil {
		t.Fatal(err)
	}
	traffic := [][]byte{
		{3, 0xAB, 0xCD},   // three recirculations, then out
		{0, 0x01, 0x02},   // straight through
		{200, 0x11, 0x22}, // exceeds the budget: typed error
		{1, 0x33, 0x44},
		{4, 0x55, 0x66}, // budget is 4: exactly at the limit
	}
	ref := dp.NewSwitch()
	want, _ := runSerial(ref, traffic, 1)
	if want[2].Err == nil {
		t.Fatal("budget-exceeding packet did not error serially")
	}
	var rbe *microp4.RecircBudgetError
	if !errors.As(want[2].Err, &rbe) {
		t.Fatalf("budget error has type %T, want *RecircBudgetError", want[2].Err)
	}
	for _, workers := range []int{1, 4} {
		sw := dp.NewSwitch()
		sw.SetWorkers(workers)
		got := sw.ProcessBatch(traffic, 1)
		diffResults(t, fmt.Sprintf("workers=%d", workers), want, got)
		if !errors.As(got[2].Err, &rbe) {
			t.Errorf("workers=%d: budget error has type %T", workers, got[2].Err)
		}
	}
}

// TestBatchDiffMulticast proves replication order and replica bytes
// survive batching: every batched packet floods to the same ports with
// the same data as its serial twin.
func TestBatchDiffMulticast(t *testing.T) {
	main, err := microp4.CompileModule("flood.up4", multicastSrc)
	if err != nil {
		t.Fatal(err)
	}
	dp, err := microp4.Build(main)
	if err != nil {
		t.Fatal(err)
	}
	traffic := make([][]byte, 32)
	for i := range traffic {
		traffic[i] = pkt.NewBuilder().Ethernet(0xFFFFFFFFFFFF, uint64(i), 0x0800).
			Payload([]byte{byte(i)}).Bytes()
	}
	ref := dp.NewSwitch()
	ref.SetMulticastGroup(1, 2, 3, 4)
	want, _ := runSerial(ref, traffic, 9)
	for _, workers := range []int{1, 4} {
		sw := dp.NewSwitch()
		sw.SetMulticastGroup(1, 2, 3, 4)
		sw.SetWorkers(workers)
		got := sw.ProcessBatch(traffic, 9)
		diffResults(t, fmt.Sprintf("workers=%d", workers), want, got)
	}
}

// TestBatchDiffDigests proves digest order through a single-worker
// batch matches the serial run exactly on the stateful FlowCount
// program (register state makes packet order observable).
func TestBatchDiffDigests(t *testing.T) {
	fcSrc, err := lib.ModuleSource("FlowCount")
	if err != nil {
		t.Fatal(err)
	}
	fc, err := microp4.CompileModule("flowcount.up4", fcSrc)
	if err != nil {
		t.Fatal(err)
	}
	main, err := microp4.CompileModule("counter.up4", statefulTestMain)
	if err != nil {
		t.Fatal(err)
	}
	dp, err := microp4.Build(main, fc)
	if err != nil {
		t.Fatal(err)
	}
	traffic := make([][]byte, 12)
	for i := range traffic {
		// Three distinct flows, each crossing the threshold once.
		traffic[i] = pkt.NewBuilder().Ethernet(1, 2, pkt.EtherTypeIPv4).
			IPv4(pkt.IPv4Opts{TTL: 5, Protocol: 17, Src: 0x01020300 + uint32(i%3), Dst: 9}).
			UDP(1, 2, 8).Bytes()
	}
	ref := dp.NewSwitch()
	want, wantDigests := runSerial(ref, traffic, 3)
	if len(wantDigests) != 3 {
		t.Fatalf("serial run produced %d digests, want 3", len(wantDigests))
	}
	sw := dp.NewSwitch()
	sw.SetWorkers(1)
	got := sw.ProcessBatch(traffic, 3)
	diffResults(t, "batch", want, got)
	gotDigests := sw.Digests()
	if len(gotDigests) != len(wantDigests) {
		t.Fatalf("digests = %v, want %v", gotDigests, wantDigests)
	}
	for i := range wantDigests {
		if gotDigests[i] != wantDigests[i] {
			t.Errorf("digest %d = %#x, want %#x", i, gotDigests[i], wantDigests[i])
		}
	}
	for i := 0; i < 3; i++ {
		w, _ := ref.ReadRegister("fc_i.counters", i)
		g, err := sw.ReadRegister("fc_i.counters", i)
		if err != nil {
			t.Fatal(err)
		}
		if w != g {
			t.Errorf("counters[%d] = %d, want %d", i, g, w)
		}
	}
}

// TestBatchParallelDeterminism runs the same parallel batch twice; with
// a stateless program the outputs must be bit-identical run to run.
func TestBatchParallelDeterminism(t *testing.T) {
	traffic := batchTraffic(96)
	run := func() []microp4.BatchResult {
		sw, err := perf.Switch("P4")
		if err != nil {
			t.Fatal(err)
		}
		sw.SetWorkers(4)
		return sw.ProcessBatch(traffic, 1)
	}
	first := run()
	second := run()
	diffResults(t, "rerun", first, second)
}

// TestBatchDiffReferenceEngine proves the batch path is engine-agnostic:
// the reference interpreter under ProcessBatch matches its own serial
// run.
func TestBatchDiffReferenceEngine(t *testing.T) {
	dp := compileLib(t, "P4")
	traffic := batchTraffic(48)
	install := func(sw *microp4.Switch) {
		sw.AddEntry("l3_i.ipv4_i.ipv4_lpm_tbl",
			[]microp4.Key{microp4.LPM(lib.NetA, 8)}, "l3_i.ipv4_i.process", 100)
		sw.AddEntry("forward_tbl", []microp4.Key{microp4.Exact(100)}, "forward", 1, 2, 3)
	}
	ref := dp.NewSwitchWith(microp4.EngineReference)
	install(ref)
	want, _ := runSerial(ref, traffic, 1)
	sw := dp.NewSwitchWith(microp4.EngineReference)
	install(sw)
	sw.SetWorkers(4)
	got := sw.ProcessBatch(traffic, 1)
	diffResults(t, "reference", want, got)
}

// Per-flow order. A parallel batch hands each flow whole to one
// goroutine, which runs its packets in slice order; everything a
// program keeps per flow — who learns, what the entry holds at the end
// — must therefore equal the serial run at any worker count. The cases
// below stay inside the guarantee's limits: wire-tuple keys (P9, P11),
// no registers, and no flow timer able to fire inside a batch (the
// wheel is one per table, so an idle TTL shorter than a batch lets a
// far-ahead worker age out another flow's entry early).

// flowMix returns 3–5 packets of each of nflows forward connections,
// interleaved by a seeded shuffle, and each packet's flow. Packets of
// one flow differ only in payload. mk builds flow f's frame.
func flowMix(nflows int, mk func(f int, payload []byte) []byte) (traffic [][]byte, flowOf []int) {
	state := uint64(7)
	next := func(n int) int {
		state = state*6364136223846793005 + 1442695040888963407
		return int(state >> 33 % uint64(n))
	}
	for f := 0; f < nflows; f++ {
		for k, n := 0, 3+next(3); k < n; k++ {
			traffic = append(traffic, mk(f, []byte{byte(k), 0xEE}))
			flowOf = append(flowOf, f)
		}
	}
	for i := len(traffic) - 1; i > 0; i-- {
		j := next(i + 1)
		traffic[i], traffic[j] = traffic[j], traffic[i]
		flowOf[i], flowOf[j] = flowOf[j], flowOf[i]
	}
	return traffic, flowOf
}

func p9Forward(f int, payload []byte) []byte {
	return pkt.NewBuilder().Ethernet(lib.DmacA, 2, pkt.EtherTypeIPv4).
		IPv4(pkt.IPv4Opts{TTL: 64, Protocol: 6,
			Src: uint32(lib.NetA) | uint32(f+1), Dst: uint32(lib.NetB) | uint32(f+1)}).
		TCP(uint16(1000+f), 443).Payload(payload).Bytes()
}

func vipClient(f int, payload []byte) []byte {
	return pkt.NewBuilder().Ethernet(lib.DmacA, 2, pkt.EtherTypeIPv4).
		IPv4(pkt.IPv4Opts{TTL: 64, Protocol: 6, Src: uint32(lib.NetA) | uint32(f+1), Dst: lib.VipAddr}).
		TCP(uint16(2000+f), lib.VipPort).Payload(payload).Bytes()
}

// learnerP9 returns a constructor of P9 switches on which learning
// shows on the wire: the policy table passes a forward packet only when
// the flow is already known, so exactly each flow's learner is dropped.
// The idle TTL is raised past any batch here (see above).
func learnerP9(t *testing.T) func() *microp4.Switch {
	t.Helper()
	edits := 0
	dp := compileLibEdited(t, "P9", func(src string) string {
		edits += strings.Count(src, "flowtable(4096, 256, 65536)")
		return strings.Replace(src, "flowtable(4096, 256, 65536)", "flowtable(4096, 65536, 65536)", 1)
	})
	if edits != 1 {
		t.Fatalf("idle TTL edit matched %d declarations, want 1", edits)
	}
	return func() *microp4.Switch {
		sw := dp.NewSwitch()
		sw.AddEntry("fw_tbl", []microp4.Key{microp4.Exact(0), microp4.Exact(1)}, "allow")
		sw.AddEntry("l3_i.ipv4_i.ipv4_lpm_tbl", []microp4.Key{microp4.LPM(lib.NetB, 8)}, "l3_i.ipv4_i.process", lib.NhB)
		sw.AddEntry("forward_tbl", []microp4.Key{microp4.Exact(lib.NhB)}, "forward", lib.DmacA, lib.SmacA, lib.PortB)
		return sw
	}
}

// orderCase is one serial-versus-parallel comparison on a stateful
// program: the same batches through Process one packet at a time on one
// switch and through ProcessBatch at workers on another.
type orderCase struct {
	name      string
	newSwitch func() *microp4.Switch
	batches   [][][]byte
	table     string // flowtable whose final contents are compared
	workers   int
	// before, when set, runs on the parallel switch ahead of each batch.
	before func(sw *microp4.Switch, batch int) error
	// timed marks a case whose course hangs on when helpers arrive: it
	// must pass, but a broken dispatch need not fail it every time.
	timed bool
}

// flowEntry is what of a flow entry a run determines (Synced belongs to
// replication).
type flowEntry struct {
	Key         flow.Key
	State       uint8
	Val, Expire uint64
}

func entrySet(sw *microp4.Switch, table string) map[flowEntry]int {
	set := map[flowEntry]int{}
	for _, e := range sw.FlowTable(table).Entries() {
		set[flowEntry{e.Key, e.State, e.Val, e.Expire}]++
	}
	return set
}

// run reports the first difference between the two runs: a packet's
// outputs or error, the digest sequence, or the flow table's final
// entries as a set.
func (c orderCase) run() error {
	ref, sw := c.newSwitch(), c.newSwitch()
	sw.SetWorkers(c.workers)
	for b, traffic := range c.batches {
		want, wantDigests := runSerial(ref, traffic, lib.PortA)
		if c.before != nil {
			if err := c.before(sw, b); err != nil {
				return err
			}
		}
		got := sw.ProcessBatch(traffic, lib.PortA)
		for i := range want {
			if err := resultDiff(want[i], got[i]); err != nil {
				return fmt.Errorf("batch %d pkt %d: %v", b, i, err)
			}
		}
		if d := sw.Digests(); fmt.Sprint(d) != fmt.Sprint(wantDigests) {
			return fmt.Errorf("batch %d: digests %v, want %v", b, d, wantDigests)
		}
	}
	want, got := entrySet(ref, c.table), entrySet(sw, c.table)
	if len(want) == 0 {
		return fmt.Errorf("serial run left %s empty: the case compares nothing", c.table)
	}
	for e, n := range want {
		if got[e] != n {
			return fmt.Errorf("%s: entry %+v held %d times, want %d", c.table, e, got[e], n)
		}
	}
	if len(got) != len(want) {
		return fmt.Errorf("%s: %d distinct entries, want %d", c.table, len(got), len(want))
	}
	return nil
}

// flowsStayTogether checks the dispatch pass itself: every packet is in
// exactly one bucket, a flow's packets share one, and each bucket lists
// its packets in slice order.
func flowsStayTogether(traffic [][]byte, flowOf []int, workers int) error {
	bucketOf := map[int]int{}
	seen := 0
	for b, list := range microp4.Dispatch(traffic, workers) {
		for k, i := range list {
			if k > 0 && list[k-1] >= i {
				return fmt.Errorf("bucket %d lists packet %d after %d", b, i, list[k-1])
			}
			if prev, ok := bucketOf[flowOf[i]]; ok && prev != b {
				return fmt.Errorf("flow %d is split over buckets %d and %d", flowOf[i], prev, b)
			}
			bucketOf[flowOf[i]] = b
			seen++
		}
	}
	if seen != len(traffic) {
		return fmt.Errorf("%d packets dispatched, want %d", seen, len(traffic))
	}
	return nil
}

// orderCases builds the per-flow order cases, all at four workers.
func orderCases(t *testing.T) (cases []orderCase, p9Traffic [][]byte, p9Flows []int) {
	const workers = 4
	p9 := learnerP9(t)
	p9Traffic, p9Flows = flowMix(200, p9Forward)

	// (a) holds only if the oracle shows what it is meant to: serially,
	// each flow loses exactly its first packet.
	want, _ := runSerial(p9(), p9Traffic, lib.PortA)
	firstSeen := map[int]bool{}
	for i, r := range want {
		learner := !firstSeen[p9Flows[i]]
		firstSeen[p9Flows[i]] = true
		if r.Err != nil || (len(r.Out) == 0) != learner {
			t.Fatalf("serial P9 pkt %d (flow %d, learner %v): %d outputs, err %v", i, p9Flows[i], learner, len(r.Out), r.Err)
		}
	}

	vip, _ := flowMix(48, vipClient)
	if len(vip) >= 256 {
		t.Fatalf("P11 batch of %d packets reaches the program's idle TTL of 256 ticks", len(vip))
	}
	elephant := make([][]byte, 300)
	for i := range elephant {
		elephant[i] = p9Forward(0, []byte{byte(i), byte(i >> 8)})
	}
	warm, _ := flowMix(40, func(f int, payload []byte) []byte { return p9Forward(1000+f, payload) })
	p11 := func() *microp4.Switch {
		sw, err := perf.Switch("P11")
		if err != nil {
			t.Fatal(err)
		}
		return sw
	}
	one := func(traffic [][]byte) [][][]byte { return [][][]byte{traffic} }
	return []orderCase{
		{name: "a_P9_interleaved_flows", newSwitch: p9, batches: one(p9Traffic), table: "fs_i.conn", workers: workers},
		{name: "b_P11_entries", newSwitch: p11, batches: one(vip), table: "bal_i.conn", workers: workers},
		{name: "c_elephant_flow", newSwitch: p9, batches: one(elephant), table: "fs_i.conn", workers: workers},
		// (d) The helpers a first batch started are let run out their
		// poll; the second batch finds them parked, wakes them, and is
		// drained by the caller and whichever of them arrives in time.
		{name: "d_helpers_parked", newSwitch: p9, batches: [][][]byte{warm, p9Traffic}, table: "fs_i.conn", workers: workers, timed: true,
			before: func(sw *microp4.Switch, batch int) error {
				for deadline := time.Now().Add(5 * time.Second); batch == 1 && !sw.HelpersParked(); time.Sleep(time.Millisecond) {
					if time.Now().After(deadline) {
						return errors.New("helpers still polling 5 s after a batch")
					}
				}
				return nil
			}},
		// ... and the limit of it: no helper ever arrives.
		{name: "d_caller_alone", newSwitch: p9, batches: one(p9Traffic), table: "fs_i.conn", workers: workers,
			before: func(sw *microp4.Switch, _ int) error { sw.StrandHelpers(workers); return nil }},
	}, p9Traffic, p9Flows
}

// TestBatchFlowOrder pins the per-flow order guarantee of the parallel
// batch path at four workers: see orderCases.
func TestBatchFlowOrder(t *testing.T) {
	cases, traffic, flowOf := orderCases(t)
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			if err := c.run(); err != nil {
				t.Error(err)
			}
		})
	}
	if err := flowsStayTogether(traffic, flowOf, 4); err != nil {
		t.Error(err)
	}
}

// TestBatchFlowOrderMutation is the guard on the suite above: with
// buckets keyed by packet index instead of by flow it must fail — in
// the dispatch check, and in every case that is not timed.
func TestBatchFlowOrderMutation(t *testing.T) {
	cases, traffic, flowOf := orderCases(t)
	microp4.SetDispatchMutation(1)
	defer microp4.SetDispatchMutation(0)
	if flowsStayTogether(traffic, flowOf, 4) == nil {
		t.Error("index-keyed buckets went unnoticed by the dispatch check")
	}
	for _, c := range cases {
		if !c.timed && c.run() == nil {
			t.Errorf("index-keyed buckets went unnoticed by case %s", c.name)
		}
	}
}
