package sim_test

import (
	"sync"
	"testing"

	"microp4/internal/lib"
	"microp4/internal/midend"
	"microp4/internal/pkt"
	"microp4/internal/sim"
)

// TestConcurrentControlPlane exercises the documented concurrency
// contract: the control plane (Tables) may be programmed while separate
// executor instances process packets on other goroutines. The race
// detector (go test -race) does the real verification; on top of it,
// every packet must find the base route installed before the readers
// started (or a longer prefix added since) whatever the writer is doing
// to the shared index: inserting /32s into the table being read,
// clearing and reinstalling a second bound table, restoring a snapshot.
func TestConcurrentControlPlane(t *testing.T) {
	main, mods, err := lib.CompileProgram("P4")
	if err != nil {
		t.Fatal(err)
	}
	res, err := midend.Build(main, mods...)
	if err != nil {
		t.Fatal(err)
	}
	tables := sim.NewTables()
	lib.InstallDefaultRules(tables, "P4", false)
	base := tables.Snapshot()

	const (
		v4Table = "l3_i.ipv4_i.ipv4_lpm_tbl"
		v6Table = "l3_i.ipv6_i.ipv6_lpm_tbl"
		dst     = lib.NetA | 1
	)
	data := pkt.NewBuilder().
		Ethernet(1, 2, pkt.EtherTypeIPv4).
		IPv4(pkt.IPv4Opts{TTL: 64, Protocol: 6, Src: 1, Dst: uint32(dst)}).
		TCP(1, 2).Bytes()

	var wg sync.WaitGroup
	// Writer: churns entries in a scratch table and in the live ones.
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 4000; i++ {
			tables.AddEntry("scratch", []sim.RuntimeKey{sim.Exact(uint64(i))}, "noop")
			// /32s around (and, every 16th, on) the probed address: the
			// hash for the /32 length appears, grows and is probed first.
			tables.AddEntry(v4Table, []sim.RuntimeKey{sim.LPM(dst+uint64(i%16), 32)},
				"l3_i.ipv4_i.process", lib.NhA+uint64(i%2)*(lib.NhB-lib.NhA))
			switch i % 64 {
			case 0:
				tables.ClearTable("scratch")
			case 21:
				tables.ClearTable(v6Table)
				tables.AddEntry(v6Table, []sim.RuntimeKey{sim.LPM(lib.NetV6Hi, 32)}, "l3_i.ipv6_i.process", lib.NhV6)
			case 42:
				tables.Restore(base)
			}
		}
	}()
	// Readers: each goroutine owns its executor (per-packet state is
	// engine-local; only Tables, and the indexes in it, are shared).
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			exec := sim.NewExec(res.Pipeline, tables)
			for i := 0; i < 600; i++ {
				out, err := exec.Process(data, sim.Metadata{InPort: uint64(i)})
				if err != nil {
					t.Errorf("process: %v", err)
					return
				}
				if out.Dropped || len(out.Out) != 1 || (out.Out[0].Port != lib.PortA && out.Out[0].Port != lib.PortB) {
					t.Errorf("packet %d missed the base route: %+v", i, out)
					return
				}
				out.Release()
			}
		}()
	}
	wg.Wait()
}
