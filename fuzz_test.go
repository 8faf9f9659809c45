package microp4_test

import (
	"bytes"
	"fmt"
	"sync"
	"testing"

	"microp4"
	"microp4/internal/lib"
	"microp4/internal/pkt"
)

// fuzzEngines lazily builds one P4 dataplane with both engines behind
// identical rules. The router composition (parser chain, two LPM
// modules, deparser) is the widest attack surface in the library, and
// P4 is stateless, so one switch pair serves every fuzz iteration.
var (
	fuzzOnce sync.Once
	fuzzCmp  *microp4.Switch
	fuzzRef  *microp4.Switch
	fuzzErr  error
)

func fuzzEngines() (*microp4.Switch, *microp4.Switch, error) {
	fuzzOnce.Do(func() {
		t := &fuzzTB{}
		defer func() {
			if r := recover(); r != nil {
				fuzzErr = fmt.Errorf("building fuzz dataplane: %v", r)
			}
		}()
		dp := compileLib(t, "P4")
		install := func(sw *microp4.Switch) {
			sw.AddEntry("l3_i.ipv4_i.ipv4_lpm_tbl",
				[]microp4.Key{microp4.LPM(0x0A000000, 8)}, "l3_i.ipv4_i.process", 100)
			sw.AddEntry("l3_i.ipv6_i.ipv6_lpm_tbl",
				[]microp4.Key{microp4.LPM(0xFD00000000000000, 16)}, "l3_i.ipv6_i.process", 200)
			sw.AddEntry("forward_tbl", []microp4.Key{microp4.Exact(100)},
				"forward", 0xAA0000000001, 0xBB0000000001, 1)
			sw.AddEntry("forward_tbl", []microp4.Key{microp4.Exact(200)},
				"forward", 0xAA0000000002, 0xBB0000000002, 2)
		}
		fuzzCmp = dp.NewSwitchWith(microp4.EngineCompiled)
		fuzzRef = dp.NewSwitchWith(microp4.EngineReference)
		install(fuzzCmp)
		install(fuzzRef)
	})
	return fuzzCmp, fuzzRef, fuzzErr
}

// fuzzTB adapts compileLib's testing.TB dependency to the build-once
// path: a compile failure panics into fuzzErr instead of failing one
// arbitrary fuzz iteration.
type fuzzTB struct{ testing.TB }

func (*fuzzTB) Helper()                        {}
func (*fuzzTB) Fatal(args ...any)              { panic(fmt.Sprint(args...)) }
func (*fuzzTB) Fatalf(format string, a ...any) { panic(fmt.Sprintf(format, a...)) }
func (*fuzzTB) Errorf(format string, a ...any) { panic(fmt.Sprintf(format, a...)) }

// fuzzP11Engines lazily builds the P11 load-balancer switch pair with
// the full evaluation rule set. Unlike P4, P11 is stateful: the shared
// flowtable accumulates pinned flows across iterations, which is
// exactly the point — the differential check must hold on every
// reachable flow-state, not just a cold table. Both engines see the
// identical input sequence, so their states evolve in lockstep.
var (
	fuzzP11Once sync.Once
	fuzzP11Cmp  *microp4.Switch
	fuzzP11Ref  *microp4.Switch
	fuzzP11Err  error
)

func fuzzP11Engines() (*microp4.Switch, *microp4.Switch, error) {
	fuzzP11Once.Do(func() {
		t := &fuzzTB{}
		defer func() {
			if r := recover(); r != nil {
				fuzzP11Err = fmt.Errorf("building P11 fuzz dataplane: %v", r)
			}
		}()
		dp := compileLib(t, "P11")
		fuzzP11Cmp = dp.NewSwitchWith(microp4.EngineCompiled)
		fuzzP11Ref = dp.NewSwitchWith(microp4.EngineReference)
		installLibRules(fuzzP11Cmp, "P11")
		installLibRules(fuzzP11Ref, "P11")
	})
	return fuzzP11Cmp, fuzzP11Ref, fuzzP11Err
}

// FuzzProcessP11 is the stateful differential target: arbitrary bytes
// through the load balancer on both engines, with VIP traffic seeding
// the corpus so the mutator reaches the hash → stick → rewrite →
// checksum pipeline, not just the parser.
func FuzzProcessP11(f *testing.F) {
	vip := pkt.NewBuilder().
		Ethernet(lib.DmacA, 2, pkt.EtherTypeIPv4).
		IPv4(pkt.IPv4Opts{TTL: 64, Protocol: 6, Src: 0x0A000001, Dst: lib.VipAddr}).
		TCP(33000, lib.VipPort).Payload([]byte("GET ")).Bytes()
	f.Add(vip, uint16(0))
	f.Add(vip[:30], uint16(1)) // truncated mid-TCP
	ssh := pkt.NewBuilder().
		Ethernet(lib.DmacA, 2, pkt.EtherTypeIPv4).
		IPv4(pkt.IPv4Opts{TTL: 64, Protocol: 6, Src: 0x0A000002, Dst: 0x14000001}).
		TCP(5555, 22).Bytes()
	f.Add(ssh, uint16(2))
	udp := pkt.NewBuilder().
		Ethernet(lib.DmacA, 2, pkt.EtherTypeIPv4).
		IPv4(pkt.IPv4Opts{TTL: 64, Protocol: 17, Src: 0x0A000003, Dst: lib.VipAddr}).
		UDP(4444, lib.VipPort, 8).Bytes()
	f.Add(udp, uint16(3))
	f.Add([]byte{}, uint16(0))

	f.Fuzz(func(t *testing.T, data []byte, port uint16) {
		if len(data) > 4096 {
			t.Skip("oversized")
		}
		cmp, ref, err := fuzzP11Engines()
		if err != nil {
			t.Fatal(err)
		}
		in := append([]byte(nil), data...)
		oc, errC := cmp.Process(in, uint64(port))
		or, errR := ref.Process(in, uint64(port))
		if errC != nil || errR != nil {
			t.Fatalf("engines errored on fuzz input: compiled=%v reference=%v\n%s",
				errC, errR, pkt.Dump(data))
		}
		if !bytes.Equal(in, data) {
			t.Fatalf("Process mutated its input buffer\n%s", pkt.Dump(data))
		}
		if len(oc) != len(or) {
			t.Fatalf("engines disagree: %d vs %d outputs\n%s", len(oc), len(or), pkt.Dump(data))
		}
		for i := range oc {
			if oc[i].Port != or[i].Port || !bytes.Equal(oc[i].Data, or[i].Data) {
				t.Fatalf("output %d disagrees: port %d vs %d\ncompiled:  %s\nreference: %s\nin: %s",
					i, oc[i].Port, or[i].Port, pkt.Dump(oc[i].Data), pkt.Dump(or[i].Data), pkt.Dump(data))
			}
		}
	})
}

// FuzzProcess feeds arbitrary bytes to Switch.Process on BOTH engines
// and cross-checks them: identical outputs, no panics (the recover path
// would surface as an EngineFault error), and no spurious errors —
// malformed packets must parse-reject into clean drops, never crash.
func FuzzProcess(f *testing.F) {
	valid := pkt.NewBuilder().
		Ethernet(0xFF, 0xEE, pkt.EtherTypeIPv4).
		IPv4(pkt.IPv4Opts{TTL: 64, Protocol: 6, Src: 0x0B000001, Dst: 0x0A000042}).
		TCP(1234, 80).Payload([]byte("seed")).Bytes()
	f.Add(valid, uint16(0))
	f.Add(valid[:20], uint16(1))   // truncated mid-IPv4
	f.Add([]byte{}, uint16(0))     // empty
	f.Add([]byte{0xFF}, uint16(7)) // one byte
	v6 := pkt.NewBuilder().
		Ethernet(1, 2, pkt.EtherTypeIPv6).
		IPv6(pkt.IPv6Opts{NextHdr: 59, HopLimit: 3, SrcHi: 0xFD00000000000001, DstHi: 0xFD00000000000002}).
		Bytes()
	f.Add(v6, uint16(2))

	f.Fuzz(func(t *testing.T, data []byte, port uint16) {
		if len(data) > 4096 {
			t.Skip("oversized")
		}
		cmp, ref, err := fuzzEngines()
		if err != nil {
			t.Fatal(err)
		}
		in := append([]byte(nil), data...)
		oc, errC := cmp.Process(in, uint64(port))
		or, errR := ref.Process(in, uint64(port))
		if errC != nil || errR != nil {
			t.Fatalf("engines errored on fuzz input: compiled=%v reference=%v\n%s",
				errC, errR, pkt.Dump(data))
		}
		if !bytes.Equal(in, data) {
			t.Fatalf("Process mutated its input buffer\n%s", pkt.Dump(data))
		}
		if len(oc) != len(or) {
			t.Fatalf("engines disagree: %d vs %d outputs\n%s", len(oc), len(or), pkt.Dump(data))
		}
		for i := range oc {
			if oc[i].Port != or[i].Port || !bytes.Equal(oc[i].Data, or[i].Data) {
				t.Fatalf("output %d disagrees: port %d vs %d\ncompiled:  %s\nreference: %s\nin: %s",
					i, oc[i].Port, or[i].Port, pkt.Dump(oc[i].Data), pkt.Dump(or[i].Data), pkt.Dump(data))
			}
		}
	})
}
