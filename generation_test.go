package microp4_test

import (
	"fmt"
	"slices"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"microp4"
	"microp4/internal/flow"
	"microp4/internal/lib"
	"microp4/internal/perf"
	"microp4/internal/pkt"
)

// Generation-layer tests: the Checkpoint/Restore flow round-trip that
// standby promotion and ISSU cutover lean on, the 4-worker batch racing
// a cutover (the -race gate for atomic generation adoption), and the
// zero-alloc pin with generations staged and adopted.

// buildV2 compiles the P9 v2 program (optionally with the buggy
// allow-drops mutation) against the standard library modules.
func buildV2(t testing.TB, buggy bool) *microp4.Dataplane {
	t.Helper()
	src, err := lib.Source("up4/p9_fw_v2.up4")
	if err != nil {
		t.Fatal(err)
	}
	if buggy {
		mutated := strings.Replace(src, "action allow() { }", "action allow() { im.drop(); }", 1)
		if mutated == src {
			t.Fatal("buggy mutation found nothing to replace")
		}
		src = mutated
	}
	main, err := microp4.CompileModule("p9_fw_v2.up4", src)
	if err != nil {
		t.Fatal(err)
	}
	m, err := lib.Program("P9")
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

func genFwd(i int) []byte {
	return pkt.NewBuilder().Ethernet(lib.DmacA, 2, pkt.EtherTypeIPv4).
		IPv4(pkt.IPv4Opts{TTL: 64, Protocol: pkt.ProtoTCP,
			Src: uint32(lib.NetA) | uint32(i+1), Dst: uint32(lib.NetB) | uint32(i+1)}).
		TCP(uint16(1000+i), 443).Payload([]byte("syn")).Bytes()
}

func genRev(i int) []byte {
	return pkt.NewBuilder().Ethernet(lib.DmacA, 2, pkt.EtherTypeIPv4).
		IPv4(pkt.IPv4Opts{TTL: 64, Protocol: pkt.ProtoTCP,
			Src: uint32(lib.NetB) | uint32(i+1), Dst: uint32(lib.NetA) | uint32(i+1)}).
		TCP(443, uint16(1000+i)).Payload([]byte("ack")).Bytes()
}

func genKey(i int) flow.Key {
	return flow.Key{SrcAddr: lib.NetA | uint64(i+1), DstAddr: lib.NetB | uint64(i+1),
		Proto: 6, SrcPort: uint64(1000 + i), DstPort: 443}
}

// establishFlows churns n flows to established on sw.
func establishFlows(t testing.TB, sw *microp4.Switch, n int) {
	t.Helper()
	for i := 0; i < n; i++ {
		if _, err := sw.Process(genFwd(i), lib.PortA); err != nil {
			t.Fatal(err)
		}
		if _, err := sw.Process(genRev(i), lib.PortB); err != nil {
			t.Fatal(err)
		}
	}
}

// TestCheckpointRestoreFlowRoundTrip is the satellite-1 regression: a
// checkpoint carries the flowtable verbatim — entry order, states, TTL
// deadlines, sync marks — both back onto the source switch (rollback)
// and onto a fresh switch (standby bootstrap), and the restored state
// behaves identically, not just compares identically.
func TestCheckpointRestoreFlowRoundTrip(t *testing.T) {
	sw, err := perf.Switch("P9")
	if err != nil {
		t.Fatal(err)
	}
	const flows = 8
	// Half established, half still new, a few synced: every per-entry
	// property in play.
	for i := 0; i < flows; i++ {
		if _, err := sw.Process(genFwd(i), lib.PortA); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < flows/2; i++ {
		if _, err := sw.Process(genRev(i), lib.PortB); err != nil {
			t.Fatal(err)
		}
	}
	tbl := sw.FlowTable("fs_i.conn")
	if tbl == nil {
		t.Fatal("no fs_i.conn flow table")
	}
	tbl.MarkSynced(genKey(0))
	tbl.MarkSynced(genKey(5))
	want := tbl.Entries()

	cp := sw.Checkpoint()

	// Mutate past the checkpoint: new flows, a deletion, a state flip.
	for i := flows; i < flows+4; i++ {
		if _, err := sw.Process(genFwd(i), lib.PortA); err != nil {
			t.Fatal(err)
		}
	}
	tbl.Delete(genKey(1))
	if _, err := sw.Process(genRev(6), lib.PortB); err != nil {
		t.Fatal(err)
	}

	// Rollback: the source switch returns to the checkpoint exactly.
	sw.Restore(cp)
	if got := tbl.Entries(); fmt.Sprintf("%+v", got) != fmt.Sprintf("%+v", want) {
		t.Fatalf("restore did not round-trip on the source:\nwant %+v\n got %+v", want, got)
	}

	// Bootstrap: a fresh switch restored from the same checkpoint holds
	// the same entries (the checkpoint is reusable) and behaves the
	// same — an established flow's return packet forwards, an unknown
	// flow's return packet is dropped by policy on both.
	sw2, err := perf.Switch("P9")
	if err != nil {
		t.Fatal(err)
	}
	sw2.Restore(cp)
	tbl2 := sw2.FlowTable("fs_i.conn")
	if got := tbl2.Entries(); fmt.Sprintf("%+v", got) != fmt.Sprintf("%+v", want) {
		t.Fatalf("restore did not round-trip onto a fresh switch:\nwant %+v\n got %+v", want, got)
	}
	for _, probe := range []struct {
		name string
		data []byte
	}{
		{"established-return", genRev(0)},
		{"unknown-return", genRev(flows + 7)},
	} {
		a, errA := sw.Process(probe.data, lib.PortB)
		b, errB := sw2.Process(probe.data, lib.PortB)
		if (errA == nil) != (errB == nil) || fmt.Sprintf("%+v", a) != fmt.Sprintf("%+v", b) {
			t.Errorf("%s: source and bootstrapped switch disagree: %+v/%v vs %+v/%v",
				probe.name, a, errA, b, errB)
		}
	}
}

// outSig fingerprints one packet's outputs.
func outSig(outs []microp4.Output) string {
	var b strings.Builder
	for _, o := range outs {
		fmt.Fprintf(&b, "%d %x;", o.Port, o.Data)
	}
	return b.String()
}

// TestConcurrentCutoverRace is the satellite -race gate: a 4-worker
// ProcessBatch races CutOver to a generation with visibly different
// behavior (v2 mutated so allow drops). Adoption happens only at packet
// boundaries, so every packet's output must be byte-identical to either
// the serial old-generation run or the serial new-generation run —
// never a torn hybrid — and once the batch after the cutover runs,
// everything is pure new-generation.
func TestConcurrentCutoverRace(t *testing.T) {
	const flows = 16
	const batchLen = 256
	setup := func() *microp4.Switch {
		sw, err := perf.Switch("P9")
		if err != nil {
			t.Fatal(err)
		}
		establishFlows(t, sw, flows)
		return sw
	}
	// Return packets of established flows only: refreshes, no learns,
	// so each packet's output is independent of batch interleaving.
	batch := make([][]byte, batchLen)
	for i := range batch {
		batch[i] = genRev(i % flows)
	}

	// Serial references. Old generation forwards every packet; the
	// mutated new generation drops every packet.
	oldRefSw := setup()
	var oldRef, newRef []string
	for _, p := range batch {
		outs, err := oldRefSw.Process(p, lib.PortB)
		if err != nil {
			t.Fatal(err)
		}
		oldRef = append(oldRef, outSig(outs))
	}
	newRefSw := setup()
	if _, err := newRefSw.StageGeneration(buildV2(t, true)); err != nil {
		t.Fatal(err)
	}
	if _, err := newRefSw.CutOver(); err != nil {
		t.Fatal(err)
	}
	for _, p := range batch {
		outs, err := newRefSw.Process(p, lib.PortB)
		if err != nil {
			t.Fatal(err)
		}
		newRef = append(newRef, outSig(outs))
	}
	if oldRef[0] == newRef[0] {
		t.Fatal("old and new generations are indistinguishable — the race test is blind")
	}

	// Serial pre/post-cutover split: with one worker and the cutover
	// between two half-batches, the outputs are exactly old-then-new.
	splitSw := setup()
	if _, err := splitSw.StageGeneration(buildV2(t, true)); err != nil {
		t.Fatal(err)
	}
	half := batchLen / 2
	for i, res := range splitSw.ProcessBatch(batch[:half], lib.PortB) {
		if res.Err != nil {
			t.Fatal(res.Err)
		}
		if outSig(res.Out) != oldRef[i] {
			t.Fatalf("pre-cutover packet %d not old-generation output", i)
		}
	}
	if _, err := splitSw.CutOver(); err != nil {
		t.Fatal(err)
	}
	for i, res := range splitSw.ProcessBatch(batch[half:], lib.PortB) {
		if res.Err != nil {
			t.Fatal(res.Err)
		}
		if outSig(res.Out) != newRef[half+i] {
			t.Fatalf("post-cutover packet %d not new-generation output", half+i)
		}
	}

	// The race: 4 workers churn the batch while CutOver swings the
	// generation pointer from another goroutine.
	raceSw := setup()
	if _, err := raceSw.StageGeneration(buildV2(t, true)); err != nil {
		t.Fatal(err)
	}
	raceSw.SetWorkers(4)
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		if _, err := raceSw.CutOver(); err != nil {
			t.Error(err)
		}
	}()
	results := raceSw.ProcessBatch(batch, lib.PortB)
	wg.Wait()
	for i, res := range results {
		if res.Err != nil {
			t.Fatal(res.Err)
		}
		sig := outSig(res.Out)
		if sig != oldRef[i] && sig != newRef[i] {
			t.Fatalf("packet %d output is neither generation's serial output:\n got %s\n old %s\n new %s",
				i, sig, oldRef[i], newRef[i])
		}
	}
	if g := raceSw.Generation(); g != 2 {
		t.Fatalf("generation %d after the racing cutover, want 2", g)
	}
	// Post-race batches are pure new generation.
	for i, res := range raceSw.ProcessBatch(batch, lib.PortB) {
		if res.Err != nil {
			t.Fatal(res.Err)
		}
		if outSig(res.Out) != newRef[i] {
			t.Fatalf("post-race packet %d not new-generation output", i)
		}
	}

	// The learning race: first packets of new flows, in 32-packet batches
	// on 4 workers, race CutOver until it returns. Every flow they learned
	// must be in the live flowtable afterwards — the set a serial twin
	// learns from the same batches. 2 048 established flows give a cutover
	// that copied flow state something to copy. At most 256 packets run,
	// less than the idle TTL, so no learned flow ages out.
	const rounds, established = 10, 2048
	lost := 0
	for r := 0; r < rounds; r++ {
		sw, twin := setup(), setup()
		establishFlows(t, sw, established)
		establishFlows(t, twin, established)
		if _, err := sw.StageGeneration(buildV2(t, true)); err != nil {
			t.Fatal(err)
		}
		sw.SetWorkers(4)
		var done atomic.Bool
		wg.Add(1)
		go func() {
			defer wg.Done()
			if _, err := sw.CutOver(); err != nil {
				t.Error(err)
			}
			done.Store(true)
		}()
		var sent [][][]byte
		for k := 0; k < 8 && (k == 0 || !done.Load()); k++ {
			learn := make([][]byte, 32)
			for i := range learn {
				learn[i] = genFwd(established + 32*k + i)
			}
			sw.ProcessBatch(learn, lib.PortA)
			sent = append(sent, learn)
		}
		wg.Wait()
		for _, learn := range sent {
			twin.ProcessBatch(learn, lib.PortA)
		}
		if a, b := flowSet(sw), flowSet(twin); !slices.Equal(a, b) {
			lost++
			t.Logf("round %d: %d flow entries after the racing cutover, the serial twin has %d", r, len(a), len(b))
		}
	}
	if lost > 0 {
		t.Errorf("%d of %d cutovers racing a learning batch lost learned flows", lost, rounds)
	}
}

// TestGenerationHotPathNoAlloc extends the zero-alloc pin to the
// generation layer: with a generation merely staged (canary off, one
// extra atomic load on the path) and again after it is adopted, the
// batch hot path still allocates nothing per packet.
func TestGenerationHotPathNoAlloc(t *testing.T) {
	if raceEnabled {
		t.Skip("race mode randomly drops sync.Pool items, so pooling cannot be exact")
	}
	sw, err := perf.Switch("P9")
	if err != nil {
		t.Fatal(err)
	}
	establishFlows(t, sw, 16)
	batch := make([][]byte, 256)
	for i := range batch {
		batch[i] = genRev(i % 16)
	}
	measure := func(label string) {
		t.Helper()
		var results []microp4.BatchResult
		var procErr error
		runBatch := func() {
			results = sw.ProcessBatchInto(batch, lib.PortB, results)
			for i := range results {
				if results[i].Err != nil {
					procErr = results[i].Err
				}
				results[i].Release()
			}
		}
		for i := 0; i < 4; i++ {
			runBatch()
		}
		allocs := testing.AllocsPerRun(50, runBatch)
		if procErr != nil {
			t.Fatalf("%s: %v", label, procErr)
		}
		if perPkt := allocs / float64(len(batch)); perPkt != 0 {
			t.Errorf("%s: %v allocs per batch (%.3f/pkt), want 0", label, allocs, perPkt)
		}
	}
	if _, err := sw.StageGeneration(buildV2(t, false)); err != nil {
		t.Fatal(err)
	}
	measure("staged")
	if _, err := sw.CutOver(); err != nil {
		t.Fatal(err)
	}
	if sw.StagedGeneration() != 0 || sw.Generation() != 2 {
		t.Fatal("cutover did not adopt the staged generation")
	}
	measure("adopted")
}

// flowSet is the firewall's flowtable as a sorted set of (Key, State,
// Val, Expire) lines: the parallel batch path learns flows in an order
// that depends on worker interleaving, so only the set is comparable.
func flowSet(sw *microp4.Switch) []string {
	var out []string
	for _, e := range sw.FlowTable("fs_i.conn").Entries() {
		out = append(out, fmt.Sprintf("%+v %d %d %d", e.Key, e.State, e.Val, e.Expire))
	}
	sort.Strings(out)
	return out
}

// TestUpgradeTwin takes a P9 switch through two in-service upgrades
// (P9 → P9 v2 → P9) with control writes, a Checkpoint→Restore and flow
// learns made while a generation is staged or canaried, and with
// batches racing the stage and cutover steps. The upgraded switch must
// end up equal to a twin that saw the same writes and packets but was
// never upgraded: the same table entries, the same flow entries, and
// the same outputs for the next 64 packets. Both programs behave alike,
// so any difference is state the upgrade lost. The first round is the
// plainest form of the bug this pins: clear every table while a
// generation is staged, cut over, and the upgraded switch must drop
// what the twin drops.
func TestUpgradeTwin(t *testing.T) {
	for _, workers := range []int{1, 4} {
		t.Run(fmt.Sprintf("workers=%d", workers), func(t *testing.T) { upgradeTwin(t, workers) })
	}
}

func upgradeTwin(t *testing.T, workers int) {
	const established = 8
	dp, v2 := compileLib(t, "P9"), buildV2(t, false)
	up, twin := dp.NewSwitch(), dp.NewSwitch()
	both := func(f func(sw *microp4.Switch)) { f(up); f(twin) }
	both(func(sw *microp4.Switch) {
		installLibRules(sw, "P9")
		sw.SetWorkers(workers)
		establishFlows(t, sw, established)
	})
	// Each batch refreshes the established flows and learns 32 new ones
	// on the inside port; the twin's outputs are the reference.
	next := established
	batch := func(label string, step func() error) {
		t.Helper()
		var pkts [][]byte
		for i := 0; i < 32; i++ {
			pkts = append(pkts, genFwd(i%established), genFwd(next+i))
		}
		next += 32
		var err error
		var wg sync.WaitGroup
		if step != nil {
			wg.Add(1)
			go func() { defer wg.Done(); err = step() }()
		}
		got := up.ProcessBatch(pkts, lib.PortA)
		wg.Wait()
		if err != nil {
			t.Fatalf("%s: %v", label, err)
		}
		for i, want := range twin.ProcessBatch(pkts, lib.PortA) {
			if outSig(got[i].Out) != outSig(want.Out) || (got[i].Err == nil) != (want.Err == nil) {
				t.Fatalf("%s: packet %d: upgraded %s/%v, twin %s/%v",
					label, i, outSig(got[i].Out), got[i].Err, outSig(want.Out), want.Err)
			}
		}
	}
	stage := func(d *microp4.Dataplane) func() error {
		return func() error { _, err := up.StageGeneration(d); return err }
	}
	cutOver := func() error { _, err := up.CutOver(); return err }
	canary := func(n int) {
		t.Helper()
		if err := up.StartCanary(n); err != nil {
			t.Fatal(err)
		}
		for i := 0; i < n; i++ {
			both(func(sw *microp4.Switch) { _, _ = sw.Process(genFwd(i%established), lib.PortA) })
		}
		if st := up.CanaryStatus(); st.Diverged || !st.Complete {
			t.Fatalf("canary of a behavior-preserving upgrade: %+v", st)
		}
	}
	same := func(label string) {
		t.Helper()
		for _, name := range dp.Tables() {
			if a, b := fmt.Sprint(up.TableEntries(name)), fmt.Sprint(twin.TableEntries(name)); a != b {
				t.Fatalf("%s: table %s: upgraded %s, twin %s", label, name, a, b)
			}
		}
		if a, b := flowSet(up), flowSet(twin); !slices.Equal(a, b) {
			t.Fatalf("%s: flow entries differ: upgraded %d, twin %d\n upgraded %v\n twin     %v",
				label, len(a), len(b), a, b)
		}
	}

	// Round 1, P9 → P9 v2: every table cleared while v2 is staged.
	batch("stage v2", stage(v2))
	cps := map[*microp4.Switch]*microp4.Checkpoint{}
	both(func(sw *microp4.Switch) {
		cps[sw] = sw.Checkpoint()
		for _, name := range dp.Tables() {
			sw.ClearTable(name)
		}
	})
	batch("cutover to v2", cutOver)
	a, _ := up.Process(genFwd(1), lib.PortA)
	b, _ := twin.Process(genFwd(1), lib.PortA)
	if outSig(a) != outSig(b) {
		t.Fatalf("tables cleared while v2 was staged: upgraded switch sends %q, twin %q", outSig(a), outSig(b))
	}
	same("after round 1")

	// Round 2, P9 v2 → P9: the rules come back by Restore while P9 is
	// staged, a learning batch runs, and a table is rewritten during the
	// canary.
	batch("stage P9", stage(dp))
	both(func(sw *microp4.Switch) { sw.Restore(cps[sw]) })
	batch("learn while staged", nil)
	canary(16)
	both(func(sw *microp4.Switch) {
		sw.ClearTable("dir_tbl")
		if err := sw.TryAddEntry("dir_tbl", []microp4.Key{microp4.Exact(lib.PortB)}, "dir_rev"); err != nil {
			t.Fatal(err)
		}
	})
	batch("cutover to P9", cutOver)
	if up.Generation() != 3 || up.StagedGeneration() != 0 {
		t.Fatalf("generation %d, staged %d after two cutovers", up.Generation(), up.StagedGeneration())
	}
	same("after round 2")
	for i := 0; i < 32; i++ {
		for _, p := range []struct {
			data []byte
			port uint64
		}{{genFwd(i), lib.PortA}, {genRev(i), lib.PortB}} {
			a, errA := up.Process(p.data, p.port)
			b, errB := twin.Process(p.data, p.port)
			if outSig(a) != outSig(b) || (errA == nil) != (errB == nil) {
				t.Fatalf("probe %d: upgraded %s/%v, twin %s/%v", i, outSig(a), errA, outSig(b), errB)
			}
		}
	}
}
