package microp4_test

// Hot-path guards:
//
//   - TestExecHotPathNoAlloc pins the compiled engine's zero-alloc
//     invariant: with metrics off, Process + Release allocates nothing;
//     its observed mode pins what metrics plus a hop span allocate.
//   - TestObsOverheadGuard pins the cost of enabled metrics with
//     latency sampling amortized (SampleEvery=256).
//
// Throughput and its regressions are judged by `go run ./bench`
// (bench/README.md), not here. The timing guard skips under the race
// detector and -short: both distort per-packet cost far beyond the
// threshold being pinned.

import (
	"testing"
	"time"

	"microp4"
	"microp4/internal/lib"
	"microp4/internal/obs"
	"microp4/internal/perf"
	"microp4/internal/pkt"
	"microp4/internal/sim"
	"microp4/internal/trace"
)

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
	t.Run("observed", func(t *testing.T) {
		sw, err := perf.Switch("P4")
		if err != nil {
			t.Fatal(err)
		}
		sw.EnableMetrics()
		sw.SetTracing(trace.NewRecorder(1024))
		traffic := perf.Traffic()
		var tick uint64
		var procErr error
		allocs := testing.AllocsPerRun(200, func() {
			for _, p := range traffic {
				tick++
				if _, _, err := sw.ProcessHop(p, 1, trace.HopContext{TraceID: tick, Node: "s1", Tick: tick}); err != nil {
					procErr = err
				}
			}
		})
		if procErr != nil {
			t.Fatal(procErr)
		}
		if perPkt := allocs / float64(len(traffic)); perPkt > observedAllocsPerPkt {
			t.Errorf("observed path allocates %.1f per packet, want at most %d", perPkt, observedAllocsPerPkt)
		} else {
			t.Logf("observed path: %.1f allocs per packet", perPkt)
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
				// Warm-up batches settle the outBuf pool before AllocsPerRun's
				// own warm-up run measures. A pooled buffer grows the first
				// time it carries a program's longest output, and a parallel
				// batch hands buffers to packets in a different order every
				// time: with a third of P10's packets the long kind, 32
				// batches leave a buffer ungrown with probability 2e-6.
				for i := 0; i < 32; i++ {
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

// observedAllocsPerPkt is what one forwarded P4 packet allocates on the
// serial Switch path with metrics and a span recorder attached and no
// bus subscriber: the span, its hop detail, the table-step and out-port
// lists filled from the per-packet record, and ProcessHop's copy of the
// output for the caller — nothing per decision site. It is the count
// PR 15 reached; it may only go down.
const observedAllocsPerPkt = 6

// measureExec times the compiled engine over n packets of the standard
// traffic and returns ns/packet.
func measureExec(t *testing.T, exec *sim.Exec, n int) float64 {
	t.Helper()
	traffic := perf.Traffic()
	meta := sim.Metadata{InPort: 1}
	run := func(n int) {
		for i := 0; i < n; i++ {
			res, err := exec.Process(traffic[i%len(traffic)], meta)
			if err != nil {
				t.Fatal(err)
			}
			res.Release()
		}
	}
	run(len(traffic)) // settle the pool and the lazily created metric series
	start := time.Now()
	run(n)
	return float64(time.Since(start).Nanoseconds()) / float64(n)
}

// TestObsOverheadGuard pins what enabled metrics cost over the
// metrics-off hot path with the latency histogram sampled every 256th
// packet. The bound was 10% when PR 5 wrote it and the path took 1.2 µs.
// A P4 packet takes about 525 ns now, and the twelve counters a forwarded
// packet updates (seven tables, the packet, rx and tx packets and bytes)
// are one locked add each: 70 ns back to back on the 2-core reference
// box, 13% before anything else. At the commit before this bound the
// guard read 10–15% in steady state (off 590, on 660) and failed eight
// runs in fourteen, passing when the metrics-off half came out slow. Here it
// reads 17–26% (off 525, on 650: the adds, plus filling and replaying the
// per-packet record, where the old hooks added to a slower bare path), so
// the bound is 30%; a map lookup, a lock or an allocation per decision
// site goes well past it. ROADMAP lists re-basing it on paired runs.
// Several attempts guard against scheduler noise; any one passing
// attempt suffices.
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
		off := measureExec(t, exec, 100000)
		exec.SetMetrics(m)
		on := measureExec(t, exec, 100000)
		overhead := on/off - 1
		t.Logf("off %.0f on %.0f overhead %.1f%%", off, on, overhead*100)
		if overhead < 0.30 {
			return
		}
		if overhead > worst {
			worst = overhead
		}
	}
	t.Errorf("metrics overhead %.1f%% across %d attempts, want <30%%", worst*100, attempts)
}
