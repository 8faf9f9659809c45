package sim_test

import (
	"testing"

	"microp4/internal/lib"
	"microp4/internal/midend"
	"microp4/internal/pkt"
	"microp4/internal/sim"
)

// TestLookupCostFlat pins what the table index is for: a routed
// packet's lookup costs the same with 16 routes and with 65 536. Cost
// is a count — how many entries the key is compared with — not wall
// time, so the test is exact and cannot flake; the zero-alloc packet
// path is pinned at both sizes beside it.
func TestLookupCostFlat(t *testing.T) {
	main, mods, err := lib.CompileProgram("P4")
	if err != nil {
		t.Fatal(err)
	}
	res, err := midend.Build(main, mods...)
	if err != nil {
		t.Fatal(err)
	}
	const v4Table = "l3_i.ipv4_i.ipv4_lpm_tbl"
	def := res.Pipeline.Tables[v4Table]
	route := func(i int) uint64 { return 0x30000000 + uint64(i)<<8 } // 48.x.y.0/24

	var counts [2][]int
	for c, n := range []int{16, 65536} {
		tables := sim.NewTables()
		lib.InstallDefaultRules(tables, "P4", false)
		for i := 0; i < n; i++ {
			tables.AddEntry(v4Table, []sim.RuntimeKey{sim.LPM(route(i)|0x55, 24)}, "l3_i.ipv4_i.process", lib.NhA)
		}
		exec := sim.NewExec(res.Pipeline, tables)
		// The first 16 routes exist at both sizes: probe a host in each,
		// a host under the standard /8 only, and a miss.
		probes := []uint64{lib.NetA | 7, 0x7F000001}
		for i := 0; i < 16; i++ {
			probes = append(probes, route(i)|9)
		}
		for _, dst := range probes {
			counts[c] = append(counts[c], tables.LookupCompared(v4Table, def, []uint64{dst}))
			data := pkt.NewBuilder().
				Ethernet(1, 2, pkt.EtherTypeIPv4).
				IPv4(pkt.IPv4Opts{TTL: 64, Protocol: 6, Src: 1, Dst: uint32(dst)}).
				TCP(1, 2).Bytes()
			wantDrop := dst == 0x7F000001
			var procErr error
			allocs := testing.AllocsPerRun(100, func() {
				out, err := exec.Process(data, sim.Metadata{InPort: 1})
				if err != nil || out.Dropped != wantDrop {
					procErr = err
					if err == nil {
						t.Errorf("%d routes, dst %#x: dropped = %v, want %v", n, dst, out.Dropped, wantDrop)
					}
				}
				out.Release()
			})
			if procErr != nil {
				t.Fatalf("%d routes, dst %#x: %v", n, dst, procErr)
			}
			if allocs != 0 && !raceEnabled {
				t.Errorf("%d routes, dst %#x: Process allocates %v per packet, want 0", n, dst, allocs)
			}
		}
	}
	for i := range counts[0] {
		if counts[0][i] != counts[1][i] {
			t.Errorf("probe %d: compared with %d entries at 16 routes, %d at 65536", i, counts[0][i], counts[1][i])
		}
		if counts[0][i] > 1 {
			t.Errorf("probe %d: compared with %d entries, want at most 1", i, counts[0][i])
		}
	}
}
