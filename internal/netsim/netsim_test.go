package netsim

import (
	"bytes"
	"fmt"
	"math/rand"
	"testing"

	"microp4"
	"microp4/internal/sim"
)

// fwd is a stub processor: forwards every packet out a fixed port,
// optionally failing or consuming instead.
type fwd struct {
	outPort uint64
	err     error
	drop    bool
	seen    int
}

func (f *fwd) Process(pkt []byte, inPort uint64) ([]microp4.Output, error) {
	f.seen++
	if f.err != nil {
		return nil, f.err
	}
	if f.drop {
		return nil, nil
	}
	return []microp4.Output{{Port: f.outPort, Data: pkt}}, nil
}

// line builds s1 -> s2 -> s3, all forwarding 0 -> 1, with the given
// fault model on every link.
func line(t *testing.T, seed uint64, m FaultModel) (*Network, []*fwd) {
	t.Helper()
	n := New(seed)
	procs := make([]*fwd, 3)
	for i := range procs {
		procs[i] = &fwd{outPort: 1}
		if err := n.AddSwitch(fmt.Sprintf("s%d", i+1), procs[i]); err != nil {
			t.Fatal(err)
		}
	}
	if err := n.Connect("s1", 1, "s2", 0, m); err != nil {
		t.Fatal(err)
	}
	if err := n.Connect("s2", 1, "s3", 0, m); err != nil {
		t.Fatal(err)
	}
	return n, procs
}

func TestLosslessDelivery(t *testing.T) {
	n, procs := line(t, 1, FaultModel{})
	payload := []byte("end-to-end")
	if err := n.Inject("s1", 0, payload); err != nil {
		t.Fatal(err)
	}
	st, err := n.Run(0)
	if err != nil {
		t.Fatal(err)
	}
	out := n.Egress("s3")
	if len(out) != 1 || !bytes.Equal(out[0].Data, payload) || out[0].Port != 1 {
		t.Fatalf("egress = %+v", out)
	}
	if st.Steps != 3 || st.Egressed != 1 || st.Injected != 1 {
		t.Errorf("stats = %+v", st)
	}
	for i, p := range procs {
		if p.seen != 1 {
			t.Errorf("s%d processed %d packets", i+1, p.seen)
		}
	}
}

func TestDropFault(t *testing.T) {
	n, _ := line(t, 2, FaultModel{Drop: 1})
	var events []FaultEvent
	n.OnFault(func(e FaultEvent) { events = append(events, e) })
	_ = n.Inject("s1", 0, []byte("doomed"))
	st, err := n.Run(0)
	if err != nil {
		t.Fatal(err)
	}
	if len(n.Egress("s3")) != 0 {
		t.Error("packet survived a 100% lossy link")
	}
	if len(events) != 1 || events[0].Kind != FaultDrop || events[0].Link != "s1:1->s2:0" {
		t.Fatalf("events = %+v", events)
	}
	if st.Faults[FaultDrop] != 1 {
		t.Errorf("stats = %+v", st)
	}
}

func TestBitFlipAndTruncateMutate(t *testing.T) {
	n, _ := line(t, 3, FaultModel{BitFlip: 1})
	payload := bytes.Repeat([]byte{0xAA}, 32)
	_ = n.Inject("s1", 0, payload)
	if _, err := n.Run(0); err != nil {
		t.Fatal(err)
	}
	out := n.Egress("s3")
	if len(out) != 1 {
		t.Fatalf("egress = %+v", out)
	}
	if bytes.Equal(out[0].Data, payload) {
		t.Error("bit-flip link delivered the packet unmodified")
	}
	// The original buffer must not be mutated (copy-on-flip).
	if !bytes.Equal(payload, bytes.Repeat([]byte{0xAA}, 32)) {
		t.Error("fault injection mutated the caller's buffer")
	}

	n2, _ := line(t, 4, FaultModel{Truncate: 1})
	_ = n2.Inject("s1", 0, payload)
	if _, err := n2.Run(0); err != nil {
		t.Fatal(err)
	}
	out = n2.Egress("s3")
	if len(out) != 1 || len(out[0].Data) >= len(payload) {
		t.Fatalf("truncate egress = %d pkts", len(out))
	}
}

func TestDuplicateFault(t *testing.T) {
	n := New(5)
	a, b := &fwd{outPort: 1}, &fwd{outPort: 1}
	_ = n.AddSwitch("a", a)
	_ = n.AddSwitch("b", b)
	if err := n.Connect("a", 1, "b", 0, FaultModel{Duplicate: 1}); err != nil {
		t.Fatal(err)
	}
	_ = n.Inject("a", 0, []byte("twin"))
	st, err := n.Run(0)
	if err != nil {
		t.Fatal(err)
	}
	if got := len(n.Egress("b")); got != 2 {
		t.Errorf("duplicated delivery count = %d, want 2", got)
	}
	if st.Faults[FaultDuplicate] != 1 {
		t.Errorf("stats = %+v", st)
	}
}

// TestReorderSwapsPackets exercises the hold/release mechanics directly
// on a Link: a held packet is released behind the NEXT transmission.
func TestReorderSwapsPackets(t *testing.T) {
	l := &Link{name: "x", model: FaultModel{Reorder: 1}, rng: rand.New(rand.NewSource(linkSeed(0, "x")))}
	emit := func(FaultKind, string) {}
	if out := l.applyFaults(linkPkt{data: []byte{1}}, emit); len(out) != 0 {
		t.Fatalf("first packet not held: %v", out)
	}
	l.model = FaultModel{} // second packet sails through, releasing the first
	out := l.applyFaults(linkPkt{data: []byte{2}}, emit)
	if len(out) != 2 || out[0].data[0] != 2 || out[1].data[0] != 1 {
		t.Fatalf("release order = %v; want [2],[1]", out)
	}
}

// TestReorderDrainsHeldPackets checks Run never strands a held packet:
// a lone reordered packet is released at drain time and still delivered.
func TestReorderDrainsHeldPackets(t *testing.T) {
	n := New(6)
	a, b := &fwd{outPort: 1}, &fwd{outPort: 1}
	_ = n.AddSwitch("a", a)
	_ = n.AddSwitch("b", b)
	if err := n.Connect("a", 1, "b", 0, FaultModel{Reorder: 1}); err != nil {
		t.Fatal(err)
	}
	_ = n.Inject("a", 0, []byte{1})
	_ = n.Inject("a", 0, []byte{2})
	st, err := n.Run(0)
	if err != nil {
		t.Fatal(err)
	}
	if got := len(n.Egress("b")); got != 2 {
		t.Fatalf("egress count = %d; want 2 (held packets must drain)", got)
	}
	if st.Faults[FaultReorder] == 0 {
		t.Errorf("stats = %+v", st)
	}
}

func TestLinkDown(t *testing.T) {
	n, _ := line(t, 7, FaultModel{})
	if err := n.SetLinkDown("s2", 1, true); err != nil {
		t.Fatal(err)
	}
	var events []FaultEvent
	n.OnFault(func(e FaultEvent) { events = append(events, e) })
	_ = n.Inject("s1", 0, []byte("blocked"))
	st, err := n.Run(0)
	if err != nil {
		t.Fatal(err)
	}
	if len(n.Egress("s3")) != 0 {
		t.Error("packet crossed a down link")
	}
	if st.Faults[FaultLinkDown] != 1 {
		t.Errorf("stats = %+v, events %+v", st, events)
	}
	// Bring it back up: traffic flows again.
	if err := n.SetLinkDown("s2", 1, false); err != nil {
		t.Fatal(err)
	}
	_ = n.Inject("s1", 0, []byte("flows"))
	if _, err := n.Run(0); err != nil {
		t.Fatal(err)
	}
	if len(n.Egress("s3")) != 1 {
		t.Error("packet lost after link came back up")
	}
}

func TestProcErrorDoesNotAbortRun(t *testing.T) {
	n := New(8)
	bad := &fwd{err: &sim.EngineFault{Engine: "reference", Reason: "synthetic"}}
	ok := &fwd{outPort: 1}
	_ = n.AddSwitch("bad", bad)
	_ = n.AddSwitch("ok", ok)
	reg := n.EnableMetrics()
	_ = n.Inject("bad", 0, []byte("boom"))
	_ = n.Inject("ok", 0, []byte("fine"))
	st, err := n.Run(0)
	if err != nil {
		t.Fatalf("run aborted: %v", err)
	}
	if st.ProcErrors != 1 || st.Faults[FaultProcError] != 1 {
		t.Errorf("stats = %+v", st)
	}
	if len(n.Egress("ok")) != 1 {
		t.Error("healthy node's packet was lost")
	}
	var buf bytes.Buffer
	if err := reg.WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	if !bytes.Contains(buf.Bytes(), []byte(`up4_node_proc_errors_total{node="bad",class="engine"} 1`)) {
		t.Errorf("metrics missing proc error series:\n%s", buf.String())
	}
}

func TestStepBudgetCatchesForwardingLoop(t *testing.T) {
	n := New(9)
	a, b := &fwd{outPort: 1}, &fwd{outPort: 1}
	_ = n.AddSwitch("a", a)
	_ = n.AddSwitch("b", b)
	// a:1 <-> b:1 with both forwarding to port 1: an infinite loop.
	if err := n.Connect("a", 1, "b", 1, FaultModel{}); err != nil {
		t.Fatal(err)
	}
	_ = n.Inject("a", 1, []byte("orbit"))
	if _, err := n.Run(1000); err == nil {
		t.Fatal("forwarding loop not caught by the step budget")
	}
}

func TestWiringErrors(t *testing.T) {
	n := New(10)
	_ = n.AddSwitch("a", &fwd{})
	if err := n.AddSwitch("a", &fwd{}); err == nil {
		t.Error("duplicate switch accepted")
	}
	if err := n.Connect("a", 1, "ghost", 0, FaultModel{}); err == nil {
		t.Error("link to unknown switch accepted")
	}
	if err := n.Inject("ghost", 0, nil); err == nil {
		t.Error("inject at unknown switch accepted")
	}
	if err := n.SetLinkDown("a", 9, true); err == nil {
		t.Error("SetLinkDown on unlinked port accepted")
	}
	if err := n.AddChurn("ghost", ChurnConfig{}, 1); err == nil {
		t.Error("churn on unknown switch accepted")
	}
	if err := n.AddChurn("a", ChurnConfig{}, 1); err == nil {
		t.Error("churn on a non-ChurnTarget processor accepted")
	}
	_ = n.AddSwitch("b", &fwd{})
	if err := n.Connect("a", 1, "b", 0, FaultModel{}); err != nil {
		t.Fatal(err)
	}
	if err := n.Connect("a", 1, "b", 2, FaultModel{}); err == nil {
		t.Error("double-linked endpoint accepted")
	}
}

func TestFaultEventsOnTraceBus(t *testing.T) {
	n, _ := line(t, 11, FaultModel{Drop: 1})
	var traced []sim.TraceEvent
	n.Bus().Subscribe(sim.CollectTrace(&traced))
	_ = n.Inject("s1", 0, []byte("observed"))
	if _, err := n.Run(0); err != nil {
		t.Fatal(err)
	}
	if len(traced) != 1 || traced[0].Kind != "fault" {
		t.Fatalf("trace = %+v", traced)
	}
}

func TestChurnStepsAreDeterministic(t *testing.T) {
	rec := func() []string {
		var ops []string
		c := NewChurn(42, &recordingTarget{ops: &ops}, ChurnConfig{
			Tables:   []string{"t1", "t2"},
			Actions:  map[string]string{"": "act"},
			ArgCount: 2, ArgMax: 100,
			Groups: []uint64{1}, Ports: []uint64{1, 2, 3},
		})
		c.StepN(200)
		return ops
	}
	a, b := rec(), rec()
	if len(a) != 200 || len(b) != 200 {
		t.Fatalf("op counts %d, %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("op %d differs: %q vs %q", i, a[i], b[i])
		}
	}
}

type recordingTarget struct{ ops *[]string }

func (r *recordingTarget) TryAddEntry(table string, keys []microp4.Key, action string, args ...uint64) error {
	*r.ops = append(*r.ops, fmt.Sprintf("add %s %s %v", table, action, args))
	return nil
}
func (r *recordingTarget) TrySetDefault(table, action string, args ...uint64) error {
	*r.ops = append(*r.ops, fmt.Sprintf("default %s %s %v", table, action, args))
	return nil
}
func (r *recordingTarget) TryClearTable(table string) error {
	*r.ops = append(*r.ops, "clear "+table)
	return nil
}
func (r *recordingTarget) TrySetMulticastGroup(gid uint64, ports ...uint64) error {
	*r.ops = append(*r.ops, fmt.Sprintf("mc %d %v", gid, ports))
	return nil
}

func TestPartitionWindows(t *testing.T) {
	// A certain partition with a long window blacks the link out for the
	// whole run: nothing crosses, every loss is a partition fault.
	n, _ := line(t, 11, FaultModel{Partition: 1, PartitionLen: 1 << 20})
	reg := n.EnableMetrics()
	for i := 0; i < 5; i++ {
		_ = n.Inject("s1", 0, []byte{byte(i)})
	}
	st, err := n.Run(0)
	if err != nil {
		t.Fatal(err)
	}
	if len(n.Egress("s3")) != 0 {
		t.Error("packet crossed a partitioned link")
	}
	if st.Faults[FaultPartition] == 0 {
		t.Errorf("no partition faults recorded: %+v", st)
	}
	var buf bytes.Buffer
	if err := reg.WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	if !bytes.Contains(buf.Bytes(), []byte(`kind="partition"`)) {
		t.Errorf("metrics missing partition fault series:\n%s", buf.String())
	}

	// Probabilistic windows are drawn from the seeded stream: the same
	// seed replays the identical partition schedule, and packets outside
	// the windows still get through.
	run := func() (int, map[FaultKind]int) {
		n, _ := line(t, 12, FaultModel{Partition: 0.3, PartitionLen: 2})
		for i := 0; i < 40; i++ {
			_ = n.Inject("s1", 0, []byte{byte(i)})
		}
		st, err := n.Run(0)
		if err != nil {
			t.Fatal(err)
		}
		return len(n.Egress("s3")), st.Faults
	}
	eg1, f1 := run()
	eg2, f2 := run()
	if eg1 != eg2 || f1[FaultPartition] != f2[FaultPartition] {
		t.Errorf("partition schedule not reproducible: %d/%v vs %d/%v", eg1, f1, eg2, f2)
	}
	if f1[FaultPartition] == 0 {
		t.Error("expected some partition faults at p=0.3")
	}
	if eg1 == 0 {
		t.Error("expected some deliveries outside partition windows")
	}
}
