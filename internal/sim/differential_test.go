package sim_test

import (
	"bytes"
	"fmt"
	"math/rand"
	"testing"

	"microp4/internal/lib"
	"microp4/internal/linker"
	"microp4/internal/midend"
	"microp4/internal/perf"
	"microp4/internal/pkt"
	"microp4/internal/sim"
)

// engines builds, for one program of Table 1, the three execution paths
// that must agree: the reference interpreter on the composed modules,
// the compiled MAT-pipeline executor, and the reference interpreter on
// the monolithic baseline.
type engines struct {
	interp     *sim.Interp
	exec       *sim.Exec
	monoInterp *sim.Interp
	// The runtime tables behind each engine pair, for tests that mutate
	// control-plane state mid-scenario (e.g. backend-pool churn).
	composedTables *sim.Tables
	monoTables     *sim.Tables
}

func buildEngines(t testing.TB, prog string) *engines {
	t.Helper()
	main, mods, err := lib.CompileProgram(prog)
	if err != nil {
		t.Fatalf("%s: compile: %v", prog, err)
	}
	res, err := midend.Build(main, mods...)
	if err != nil {
		t.Fatalf("%s: midend: %v", prog, err)
	}
	composedTables := sim.NewTables()
	lib.InstallDefaultRules(composedTables, prog, false)

	// The interpreter executes the transformed (stack-unrolled) linked IR.
	interp := sim.NewInterp(res.Linked, composedTables)
	exec := sim.NewExec(res.Pipeline, composedTables)

	mono, err := lib.CompileMonolithic(prog)
	if err != nil {
		t.Fatalf("%s: compile mono: %v", prog, err)
	}
	tmono, err := midend.Transform(mono)
	if err != nil {
		t.Fatalf("%s: transform mono: %v", prog, err)
	}
	monoTables := sim.NewTables()
	lib.InstallDefaultRules(monoTables, prog, true)
	ml, err := linker.Link(tmono)
	if err != nil {
		t.Fatalf("%s: link mono: %v", prog, err)
	}
	return &engines{
		interp:         interp,
		exec:           exec,
		monoInterp:     sim.NewInterp(ml, monoTables),
		composedTables: composedTables,
		monoTables:     monoTables,
	}
}

// summarize renders a ProcResult for comparison.
func summarize(r *sim.ProcResult) string {
	if r.Dropped {
		return "DROP"
	}
	s := ""
	for _, o := range r.Out {
		s += fmt.Sprintf("port=%d len=%d %x;", o.Port, len(o.Data), o.Data)
	}
	return s
}

// checkAgreement runs one packet through all three engines and requires
// identical outcomes.
func (e *engines) checkAgreement(t *testing.T, name string, data []byte, meta sim.Metadata) {
	t.Helper()
	ri, err := e.interp.Process(data, meta)
	if err != nil {
		t.Fatalf("%s: interp: %v", name, err)
	}
	rx, err := e.exec.Process(data, meta)
	if err != nil {
		t.Fatalf("%s: exec: %v", name, err)
	}
	rm, err := e.monoInterp.Process(data, meta)
	if err != nil {
		t.Fatalf("%s: mono interp: %v", name, err)
	}
	si, sx, sm := summarize(ri), summarize(rx), summarize(rm)
	if si != sx {
		t.Errorf("%s: interpreter vs compiled pipeline diverge:\n  interp: %s\n  exec:   %s\n  in: %s",
			name, si, sx, pkt.Dump(data))
	}
	if si != sm {
		t.Errorf("%s: composed vs monolithic diverge:\n  composed: %s\n  mono:     %s\n  in: %s",
			name, si, sm, pkt.Dump(data))
	}
}

// ----------------------------------------------------------------------------
// Traffic

func ipv4Pkt(dst uint32, ttl uint8, proto uint8) []byte {
	b := pkt.NewBuilder().
		Ethernet(0x000000000001, 0x000000000002, pkt.EtherTypeIPv4).
		IPv4(pkt.IPv4Opts{TTL: ttl, Protocol: proto, Src: 0xC0A80002, Dst: dst})
	switch proto {
	case pkt.ProtoTCP:
		b.TCP(1234, 80)
	case pkt.ProtoUDP:
		b.UDP(1234, 53, 16)
	}
	return b.Payload([]byte("payloadpayload")).Bytes()
}

func ipv6Pkt(dstHi, dstLo uint64, hop uint8) []byte {
	return pkt.NewBuilder().
		Ethernet(0x000000000001, 0x000000000002, pkt.EtherTypeIPv6).
		IPv6(pkt.IPv6Opts{NextHdr: pkt.ProtoNoNext, HopLimit: hop,
			SrcHi: 0xFD00000000000001, SrcLo: 2, DstHi: dstHi, DstLo: dstLo}).
		Payload([]byte("sixsixsix")).Bytes()
}

func meta() sim.Metadata { return sim.Metadata{InPort: 7} }

// ----------------------------------------------------------------------------
// Per-program differential suites

func TestDifferentialP4Router(t *testing.T) {
	e := buildEngines(t, "P4")
	cases := map[string][]byte{
		"v4-netA":       ipv4Pkt(0x0A010203, 64, pkt.ProtoTCP),
		"v4-netB":       ipv4Pkt(0x14000001, 64, pkt.ProtoUDP),
		"v4-no-route":   ipv4Pkt(0x1E000001, 64, pkt.ProtoTCP),
		"v4-ttl-0":      ipv4Pkt(0x0A010203, 0, pkt.ProtoTCP),
		"v4-ttl-1":      ipv4Pkt(0x0A010203, 1, pkt.ProtoTCP),
		"v6-routed":     ipv6Pkt(lib.NetV6Hi|0x1, 0x99, 64),
		"v6-no-route":   ipv6Pkt(0x3001000000000000, 0x99, 64),
		"v6-hop-0":      ipv6Pkt(lib.NetV6Hi, 1, 0),
		"arp-unknown":   pkt.NewBuilder().Ethernet(1, 2, 0x0806).Payload([]byte{0, 1, 2, 3}).Bytes(),
		"truncated-eth": {0xAA, 0xBB, 0xCC},
		"truncated-v4": pkt.NewBuilder().
			Ethernet(1, 2, pkt.EtherTypeIPv4).Payload([]byte{0x45, 0}).Bytes(),
		"empty": {},
	}
	for name, data := range cases {
		e.checkAgreement(t, name, data, meta())
	}
}

func TestDifferentialP1Acl(t *testing.T) {
	e := buildEngines(t, "P1")
	cases := map[string][]byte{
		"tcp-22-denied": pkt.NewBuilder().
			Ethernet(lib.DmacA, 2, pkt.EtherTypeIPv4).
			IPv4(pkt.IPv4Opts{TTL: 64, Protocol: pkt.ProtoTCP, Src: 1, Dst: 2}).
			TCP(5555, 22).Bytes(),
		"tcp-80-allowed": pkt.NewBuilder().
			Ethernet(lib.DmacA, 2, pkt.EtherTypeIPv4).
			IPv4(pkt.IPv4Opts{TTL: 64, Protocol: pkt.ProtoTCP, Src: 1, Dst: 2}).
			TCP(5555, 80).Bytes(),
		"udp-allowed": pkt.NewBuilder().
			Ethernet(0x42, 2, pkt.EtherTypeIPv4).
			IPv4(pkt.IPv4Opts{TTL: 9, Protocol: pkt.ProtoUDP, Src: 1, Dst: 2}).
			UDP(53, 53, 12).Bytes(),
		"icmp-ish": pkt.NewBuilder().
			Ethernet(lib.DmacA, 2, pkt.EtherTypeIPv4).
			IPv4(pkt.IPv4Opts{TTL: 9, Protocol: 1, Src: 1, Dst: 2}).Bytes(),
		"non-ip": pkt.NewBuilder().Ethernet(lib.DmacA, 2, 0x88CC).Payload([]byte("lldp")).Bytes(),
	}
	for name, data := range cases {
		e.checkAgreement(t, name, data, meta())
	}
}

func TestDifferentialP2Mpls(t *testing.T) {
	e := buildEngines(t, "P2")
	inner := pkt.NewBuilder().IPv4(pkt.IPv4Opts{TTL: 33, Protocol: pkt.ProtoTCP, Src: 5, Dst: 0x0A000005}).TCP(1, 2).Bytes()
	cases := map[string][]byte{
		"mpls-swap": pkt.NewBuilder().
			Ethernet(1, 2, pkt.EtherTypeMPLS).MPLS(1000, 0, true, 60).
			Payload(inner).Bytes(),
		"mpls-pop": pkt.NewBuilder().
			Ethernet(1, 2, pkt.EtherTypeMPLS).MPLS(999, 0, true, 60).
			Payload(inner).Bytes(),
		"mpls-two-labels": pkt.NewBuilder().
			Ethernet(1, 2, pkt.EtherTypeMPLS).MPLS(1000, 0, false, 60).MPLS(42, 0, true, 61).
			Payload(inner).Bytes(),
		"mpls-unknown-label": pkt.NewBuilder().
			Ethernet(1, 2, pkt.EtherTypeMPLS).MPLS(777, 0, true, 60).
			Payload(inner).Bytes(),
		"plain-v4": ipv4Pkt(0x0A010203, 64, pkt.ProtoTCP),
		"plain-v6": ipv6Pkt(lib.NetV6Hi|5, 1, 17),
	}
	for name, data := range cases {
		e.checkAgreement(t, name, data, meta())
	}
}

func TestDifferentialP3Nat(t *testing.T) {
	e := buildEngines(t, "P3")
	mk := func(src uint32, proto uint8) []byte {
		b := pkt.NewBuilder().
			Ethernet(1, 2, pkt.EtherTypeIPv4).
			IPv4(pkt.IPv4Opts{TTL: 17, Protocol: proto, Src: src, Dst: 0x0A00AA01})
		if proto == pkt.ProtoTCP {
			b.TCP(3333, 443)
		} else if proto == pkt.ProtoUDP {
			b.UDP(3333, 53, 20)
		}
		return b.Payload([]byte("xyz")).Bytes()
	}
	cases := map[string][]byte{
		"nat-tcp-hit":  mk(0xC0A80002, pkt.ProtoTCP),
		"nat-udp-hit":  mk(0xC0A80003, pkt.ProtoUDP),
		"nat-miss":     mk(0x01020304, pkt.ProtoTCP),
		"nat-icmp-ish": mk(0xC0A80002, 1),
		"v6-bypass":    ipv6Pkt(lib.NetV6Hi|9, 1, 32),
	}
	for name, data := range cases {
		e.checkAgreement(t, name, data, meta())
	}
}

func TestDifferentialP5Nptv6(t *testing.T) {
	e := buildEngines(t, "P5")
	cases := map[string][]byte{
		"npt-translate": ipv6Pkt(lib.NetV6Hi|1, 7, 42),
		"v4-bypass":     ipv4Pkt(0x0A000001, 64, pkt.ProtoTCP),
		"v6-no-npt": pkt.NewBuilder().
			Ethernet(1, 2, pkt.EtherTypeIPv6).
			IPv6(pkt.IPv6Opts{NextHdr: 59, HopLimit: 5,
				SrcHi: 0x3000000000000000, SrcLo: 1, DstHi: lib.NetV6Hi, DstLo: 2}).Bytes(),
	}
	for name, data := range cases {
		e.checkAgreement(t, name, data, meta())
	}
}

func srv4Pkt(segs []uint32, lastFlags []bool) []byte {
	b := pkt.NewBuilder().
		Ethernet(1, 2, pkt.EtherTypeIPv4).
		IPv4(pkt.IPv4Opts{TTL: 9, Protocol: 250, Src: 3, Dst: 4})
	hdr := []byte{pkt.ProtoTCP, uint8(len(segs))}
	b.Payload(hdr)
	for i, s := range segs {
		var seg [4]byte
		v := s & 0x7FFFFFFF
		if lastFlags[i] {
			v |= 1 << 31
		}
		seg[0] = byte(v >> 24)
		seg[1] = byte(v >> 16)
		seg[2] = byte(v >> 8)
		seg[3] = byte(v)
		b.Payload(seg[:])
	}
	return b.Payload([]byte("tail")).Bytes()
}

func TestDifferentialP6Srv4(t *testing.T) {
	e := buildEngines(t, "P6")
	cases := map[string][]byte{
		"sr-two-segs": srv4Pkt([]uint32{0x0A000042, 0x14000042}, []bool{false, true}),
		"sr-one-seg":  srv4Pkt([]uint32{0x0A000042}, []bool{true}),
		"plain-v4":    ipv4Pkt(0x14000001, 64, pkt.ProtoTCP),
		"plain-v6":    ipv6Pkt(lib.NetV6Hi|3, 1, 9),
	}
	for name, data := range cases {
		e.checkAgreement(t, name, data, meta())
	}
}

func srv6Pkt(segsLeft uint8, segs [][2]uint64, hop uint8) []byte {
	return pkt.NewBuilder().
		Ethernet(1, 2, pkt.EtherTypeIPv6).
		IPv6(pkt.IPv6Opts{NextHdr: pkt.ProtoSRv6, HopLimit: hop,
			SrcHi: 1, SrcLo: 2, DstHi: 3, DstLo: 4}).
		SRv6(pkt.ProtoTCP, segsLeft, segs).
		Payload([]byte("srv6tail")).Bytes()
}

func TestDifferentialP7Srv6(t *testing.T) {
	e := buildEngines(t, "P7")
	segs2 := [][2]uint64{{lib.NetV6Hi, 0x11}, {lib.NetV6Hi, 0x22}}
	segs4 := [][2]uint64{{lib.NetV6Hi, 1}, {lib.NetV6Hi, 2}, {lib.NetV6Hi, 3}, {lib.NetV6Hi, 4}}
	cases := map[string][]byte{
		"srv6-2segs-active":  srv6Pkt(2, segs2, 33),
		"srv6-last-segment":  srv6Pkt(1, segs2, 33),
		"srv6-exhausted":     srv6Pkt(0, segs2, 33),
		"srv6-4segs":         srv6Pkt(3, segs4, 33),
		"plain-v6":           ipv6Pkt(lib.NetV6Hi|1, 6, 12),
		"plain-v4":           ipv4Pkt(0x0A000009, 64, pkt.ProtoUDP),
		"srv6-truncated-seg": srv6Pkt(2, segs2, 33)[:70],
	}
	for name, data := range cases {
		e.checkAgreement(t, name, data, meta())
	}
}

// telPkt builds a P8 telemetry-encapsulated packet: Ethernet 0x1266,
// the tel shim {count, nextType=IPv4}, the given raw records (newest
// first; the caller makes the oldest carry the last-bit), and an inner
// L3 packet (an ipv4Pkt/ipv6Pkt with its Ethernet header stripped).
func telPkt(count uint8, nextType uint16, recs [][3]byte, inner []byte) []byte {
	b := pkt.NewBuilder().Ethernet(1, 2, 0x1266)
	b.Payload([]byte{count, byte(nextType >> 8), byte(nextType)})
	for _, r := range recs {
		b.Payload(r[:])
	}
	return b.Payload(inner).Bytes()
}

func TestDifferentialP8Int(t *testing.T) {
	e := buildEngines(t, "P8")
	innerA := ipv4Pkt(0x0A010203, 64, pkt.ProtoTCP)[14:]
	innerB := ipv4Pkt(0x14000001, 9, pkt.ProtoUDP)[14:]
	inner6 := ipv6Pkt(lib.NetV6Hi|0x1, 0x99, 64)[14:]
	rec1 := [3]byte{0x81, 0x02, 0x40} // last=1 swid=1 lat=2 ttl=64
	rec2 := [3]byte{0x03, 0x00, 0x3F} // last=0 swid=3 lat=0 ttl=63
	cases := map[string][]byte{
		"tel-fresh":      telPkt(0, 0x0800, nil, innerA),
		"tel-second-hop": telPkt(1, 0x0800, [][3]byte{rec1}, innerB),
		"tel-third-hop":  telPkt(2, 0x0800, [][3]byte{rec2, rec1}, innerA),
		"tel-stack-full": telPkt(4, 0x0800, [][3]byte{rec2, rec2, rec2, rec1}, innerA),
		"tel-v6-inner":   telPkt(0, 0x86DD, nil, inner6),
		"tel-no-route":   telPkt(0, 0x0800, nil, ipv4Pkt(0x1E000001, 64, pkt.ProtoTCP)[14:]),
		"tel-ttl-0":      telPkt(0, 0x0800, nil, ipv4Pkt(0x0A010203, 0, pkt.ProtoTCP)[14:]),
		"tel-truncated":  telPkt(0, 0x0800, nil, innerA[:6]),
		"tel-bad-stack":  telPkt(3, 0x0800, [][3]byte{rec2, rec2}, innerA)[:30],
		"plain-v4":       ipv4Pkt(0x0A010203, 64, pkt.ProtoTCP),
		"plain-v6":       ipv6Pkt(lib.NetV6Hi|5, 1, 17),
		"arp-bypass":     pkt.NewBuilder().Ethernet(1, 2, 0x0806).Payload([]byte{0, 1, 2, 3}).Bytes(),
	}
	for name, data := range cases {
		e.checkAgreement(t, name, data, meta())
	}
}

// TestP8RecordPrepended pins the in-band format: one hop grows the
// packet by exactly one record, stamped with the installed switch id,
// the QUEUE_DEPTH latency bucket, and the post-decrement TTL.
func TestP8RecordPrepended(t *testing.T) {
	e := buildEngines(t, "P8")
	in := telPkt(0, 0x0800, nil, ipv4Pkt(0x0A010203, 64, pkt.ProtoTCP)[14:])
	m := sim.Metadata{InPort: 7, Qdepth: 5}
	r, err := e.exec.Process(in, m)
	if err != nil {
		t.Fatal(err)
	}
	if r.Dropped || len(r.Out) != 1 {
		t.Fatalf("unexpected result %+v", r)
	}
	out := r.Out[0].Data
	if len(out) != len(in)+3 {
		t.Fatalf("len = %d, want %d (one 3-byte record added)", len(out), len(in)+3)
	}
	if out[14] != 1 {
		t.Errorf("tel.count = %d, want 1", out[14])
	}
	// Record layout: last(1)|swid(7), lat, ttl.
	if out[17] != 0x81 {
		t.Errorf("rec[0] = %#x, want 0x81 (last=1, swid=1)", out[17])
	}
	if out[18] != 5 {
		t.Errorf("rec lat = %d, want Qdepth 5", out[18])
	}
	if out[19] != 63 {
		t.Errorf("rec ttl = %d, want 63 (post-decrement)", out[19])
	}
	r.Release()
}

// TestOutputBytesChange sanity-checks that the dataplane actually edits
// packets (guards against trivially-agreeing empty engines).
func TestOutputBytesChange(t *testing.T) {
	e := buildEngines(t, "P4")
	in := ipv4Pkt(0x0A010203, 64, pkt.ProtoTCP)
	r, err := e.exec.Process(in, meta())
	if err != nil {
		t.Fatal(err)
	}
	if r.Dropped || len(r.Out) != 1 {
		t.Fatalf("unexpected result %+v", r)
	}
	out := r.Out[0]
	if out.Port != lib.PortA {
		t.Errorf("port = %d, want %d", out.Port, lib.PortA)
	}
	if pkt.EthDst(out.Data) != lib.DmacA {
		t.Errorf("dmac = %#x, want %#x", pkt.EthDst(out.Data), uint64(lib.DmacA))
	}
	if pkt.IPv4TTL(out.Data, 14) != 63 {
		t.Errorf("ttl = %d, want 63", pkt.IPv4TTL(out.Data, 14))
	}
	if bytes.Equal(out.Data, in) {
		t.Error("output identical to input; dataplane had no effect")
	}
	// Payload preserved.
	if !bytes.Equal(out.Data[len(out.Data)-14:], []byte("payloadpayload")) {
		t.Errorf("payload corrupted: %s", pkt.Dump(out.Data))
	}
}

// TestTruncationSweep cuts every packet of every program's standard
// traffic, and of a seeded structured-random set, at every byte boundary and requires the compiled engine and
// the reference interpreter to agree on each prefix: output bytes and
// ports, drop and reject flags, error class (for a table error, its
// text). The compiled engine's header
// moves read a field with one wide load only when its bytes lie inside
// the packet and fall back to ReadBits otherwise; the sweep puts the end
// of the packet on every byte of every header, so each move takes the
// fallback at least once. Stateful programs run in lockstep on an
// advancing clock, so their flow tables see the same sequence.
func TestTruncationSweep(t *testing.T) {
	for _, prog := range []string{"P1", "P2", "P3", "P4", "P5", "P6", "P7", "P8", "P9", "P10", "P11"} {
		t.Run(prog, func(t *testing.T) {
			e := buildEngines(t, prog)
			outcome := func(r *sim.ProcResult, err error) string {
				if err != nil {
					class, _ := sim.ClassOf(err)
					if class == sim.ClassTable {
						// Both engines name the table, the action and the reason.
						return "error " + err.Error()
					}
					return "error class " + class.String()
				}
				return fmt.Sprintf("dropped=%v reject=%v %s", r.Dropped, r.ParserReject, summarize(r))
			}
			// The standard mix is IPv4 and IPv6 only; seeded structured-random
			// packets add the MPLS, SRv6 and malformed stacks, whose narrow
			// fields sit within eight bytes of where a header can end.
			traffic := perf.TrafficFor(prog)
			r := rand.New(rand.NewSource(14))
			for i := 0; i < 32; i++ {
				traffic = append(traffic, randPacket(r))
			}
			var clock uint64
			for i, p := range traffic {
				for n := 0; n <= len(p); n++ {
					clock++
					m := sim.Metadata{InPort: 1, InTimestamp: clock}
					want := outcome(e.interp.Process(p[:n], m))
					rx, err := e.exec.Process(p[:n], m)
					got := outcome(rx, err)
					rx.Release()
					if got != want {
						t.Fatalf("packet %d cut to %d of %d bytes:\n  interp: %s\n  exec:   %s\n  in: %s",
							i, n, len(p), want, got, pkt.Dump(p[:n]))
					}
				}
			}
		})
	}
}
