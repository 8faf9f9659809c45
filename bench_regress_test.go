package microp4_test

// Benchmark-trajectory guards (PR 5):
//
//   - TestExecHotPathNoAlloc pins the compiled engine's zero-alloc
//     invariant: with metrics off, Process + Release allocates nothing.
//   - TestObsOverheadGuard pins the cost of enabled observability with
//     latency sampling amortized (SampleEvery=256) to <10%.
//   - TestBenchRegression re-measures the serial engine cells and fails
//     when any regresses more than 3x against the checked-in
//     BENCH_5.json. UPDATE_BASELINE=1 regenerates the baseline, the
//     same escape hatch UPDATE_GOLDEN gives the golden files.
//
// The timing guards skip under the race detector and -short: both
// distort per-packet cost far beyond the thresholds being pinned.

import (
	"os"
	"testing"
	"time"

	"microp4"
	"microp4/internal/lib"
	"microp4/internal/obs"
	"microp4/internal/perf"
	"microp4/internal/pkt"
	"microp4/internal/sim"
)

const baselinePath = "BENCH_5.json"

// TestExecHotPathNoAlloc pins the tentpole invariant: the slot-compiled
// engine processes packets with zero heap allocations when metrics are
// off and results are released back to the pool — in all three modes.
// Serial exercises sim.Exec directly; batch and parallel exercise the
// full Switch architecture loop through ProcessBatchInto with a reused
// results slice, so outBuf pooling and the persistent worker pool are
// pinned too; fib64k is the batch mode with 65 536 routes installed and
// 8 192 of them probed, so the table index's hit path is pinned at
// production occupancy, not just at the dozen standard rules.
func TestExecHotPathNoAlloc(t *testing.T) {
	if raceEnabled {
		t.Skip("race mode randomly drops sync.Pool items, so pooling cannot be exact")
	}
	progs := []string{"P1", "P4", "P7", "P8", "P9", "P10", "P11"}
	t.Run("serial", func(t *testing.T) {
		for _, prog := range progs {
			exec, _, err := perf.Engines(prog)
			if err != nil {
				t.Fatal(err)
			}
			// P9/P10/P11 get their stateful mixes with an advancing clock
			// so the zero-alloc pin covers the flowtable path too:
			// lookups, free-list learns, refresh re-files, and wheel
			// advances — plus P10's grow/shrink header rewrites and
			// P11's stick-pinned backend rewrite.
			traffic := perf.TrafficFor(prog)
			var clock uint64
			var procErr error
			allocs := testing.AllocsPerRun(500, func() {
				for _, p := range traffic {
					clock++
					res, err := exec.Process(p, sim.Metadata{InPort: 1, InTimestamp: clock})
					if err != nil {
						procErr = err
						return
					}
					res.Release()
				}
			})
			if procErr != nil {
				t.Fatalf("%s: %v", prog, procErr)
			}
			if allocs != 0 {
				t.Errorf("%s: hot path allocates %v per run, want 0", prog, allocs)
			}
		}
	})
	for _, mode := range []struct {
		name    string
		workers int
		routes  int // extra /24 routes, every eighth one probed
	}{{"batch", 1, 0}, {"parallel", 4, 0}, {"fib64k", 1, 65536}} {
		t.Run(mode.name, func(t *testing.T) {
			progs := progs
			if mode.routes > 0 {
				progs = []string{"P4"}
			}
			for _, prog := range progs {
				sw, err := perf.Switch(prog)
				if err != nil {
					t.Fatal(err)
				}
				sw.SetWorkers(mode.workers)
				traffic := perf.TrafficFor(prog)
				for r := 0; r < mode.routes; r++ {
					prefix := 0x30000000 + uint64(r)<<8
					if err := sw.TryAddEntry("l3_i.ipv4_i.ipv4_lpm_tbl", []microp4.Key{microp4.LPM(prefix, 24)},
						"l3_i.ipv4_i.process", lib.NhA); err != nil {
						t.Fatal(err)
					}
					if r%8 == 0 {
						traffic = append(traffic, pkt.NewBuilder().Ethernet(lib.DmacA, 2, pkt.EtherTypeIPv4).
							IPv4(pkt.IPv4Opts{TTL: 64, Protocol: 6, Src: 1, Dst: uint32(prefix) | 1}).TCP(1, 80).Bytes())
					}
				}
				batch := make([][]byte, max(256, len(traffic)))
				for i := range batch {
					batch[i] = traffic[i%len(traffic)]
				}
				var results []microp4.BatchResult
				var procErr error
				runBatch := func() {
					results = sw.ProcessBatchInto(batch, 1, results)
					for i := range results {
						if results[i].Err != nil {
							procErr = results[i].Err
						}
						results[i].Release()
					}
					sw.Digests()
				}
				// A few warm-up batches settle the outBuf pool across all
				// workers before AllocsPerRun's own warm-up run measures.
				for i := 0; i < 4; i++ {
					runBatch()
				}
				allocs := testing.AllocsPerRun(50, runBatch)
				if procErr != nil {
					t.Fatalf("%s: %v", prog, procErr)
				}
				if perPkt := allocs / float64(len(batch)); perPkt != 0 {
					t.Errorf("%s/%s: %v allocs per batch (%.3f/pkt), want 0",
						prog, mode.name, allocs, perPkt)
				}
			}
		})
	}
}

// measureExec times the compiled engine over the standard traffic for
// dur and returns ns/packet.
func measureExec(t *testing.T, exec *sim.Exec, dur time.Duration) float64 {
	t.Helper()
	traffic := perf.Traffic()
	meta := sim.Metadata{InPort: 1}
	i := 0
	r, err := perf.Measure(dur, len(traffic), func() error {
		for range traffic {
			res, err := exec.Process(traffic[i%len(traffic)], meta)
			if err != nil {
				return err
			}
			res.Release()
			i++
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return r.NsPerPkt
}

// TestObsOverheadGuard pins the satellite-3 contract: with the latency
// histogram sampled every 256th packet, fully enabled metrics cost
// less than 10% over the metrics-off hot path. Several attempts guard
// against scheduler noise; any one passing attempt suffices.
func TestObsOverheadGuard(t *testing.T) {
	if raceEnabled {
		t.Skip("timing guard: race detector distorts per-packet cost")
	}
	if testing.Short() {
		t.Skip("timing guard: skipped in -short mode")
	}
	exec, _, err := perf.Engines("P4")
	if err != nil {
		t.Fatal(err)
	}
	m := sim.NewMetrics(obs.NewRegistry())
	m.SampleEvery.Store(256)
	const attempts = 5
	var worst float64
	for i := 0; i < attempts; i++ {
		exec.SetMetrics(nil)
		off := measureExec(t, exec, 80*time.Millisecond)
		exec.SetMetrics(m)
		on := measureExec(t, exec, 80*time.Millisecond)
		overhead := on/off - 1
		if overhead < 0.10 {
			return
		}
		if overhead > worst {
			worst = overhead
		}
	}
	t.Errorf("metrics overhead %.1f%% across %d attempts, want <10%%", worst*100, attempts)
}

// TestBenchRegression is the CI gate over BENCH_5.json: it re-measures
// every serial cell quickly and fails on a >3x ns/packet regression.
// Parallel cells don't gate — their numbers depend on the recorder's
// core count. Run with UPDATE_BASELINE=1 to re-record the baseline
// (or use `make bench`, which measures longer).
func TestBenchRegression(t *testing.T) {
	if raceEnabled {
		t.Skip("timing guard: race detector distorts per-packet cost")
	}
	if testing.Short() {
		t.Skip("timing guard: skipped in -short mode")
	}
	programs := []string{"P1", "P2", "P3", "P4", "P5", "P6", "P7", "P8", "P9", "P10", "P11"}
	if os.Getenv("UPDATE_BASELINE") != "" {
		rep, err := perf.RunSuite(programs, 300*time.Millisecond, 4, nil)
		if err != nil {
			t.Fatal(err)
		}
		if err := rep.Write(baselinePath); err != nil {
			t.Fatal(err)
		}
		t.Logf("rewrote %s", baselinePath)
		return
	}
	baseline, err := perf.Load(baselinePath)
	if err != nil {
		t.Fatalf("%v (regenerate with UPDATE_BASELINE=1)", err)
	}
	// Up to three attempts: a loaded CI machine can triple apparent
	// per-packet cost on its own.
	var violations []string
	for attempt := 0; attempt < 3; attempt++ {
		current, err := perf.RunSuite(programs, 60*time.Millisecond, 4, nil)
		if err != nil {
			t.Fatal(err)
		}
		violations = perf.Compare(baseline, current, 3.0)
		if len(violations) == 0 {
			return
		}
	}
	for _, v := range violations {
		t.Errorf("regression: %s", v)
	}
	t.Log("re-record the baseline with UPDATE_BASELINE=1 go test -run TestBenchRegression .")
}
