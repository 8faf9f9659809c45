package microp4_test

// The parallel batch path's dispatcher and helper pool (PR 16): which
// bucket a frame lands in (FlowBucket), and when helper goroutines
// start, park and exit. What the buckets are for — per-flow order — is
// batch_diff_test.go's TestBatchFlowOrder.

import (
	"bytes"
	"runtime"
	"sync/atomic"
	"testing"
	"time"

	"microp4"
	"microp4/internal/lib"
	"microp4/internal/perf"
	"microp4/internal/pkt"
)

// tuple is one direction of a connection.
type tuple struct {
	srcMAC, dstMAC   uint64
	srcHi, srcLo     uint64 // IPv4 uses srcLo/dstLo only
	dstHi, dstLo     uint64
	srcPort, dstPort uint16
	proto            uint8
}

func (t tuple) reversed() tuple {
	return tuple{t.dstMAC, t.srcMAC, t.dstHi, t.dstLo, t.srcHi, t.srcLo, t.dstPort, t.srcPort, t.proto}
}

func (t tuple) l4(b *pkt.Builder, payload []byte) []byte {
	switch t.proto {
	case pkt.ProtoTCP:
		b = b.TCP(t.srcPort, t.dstPort)
	case pkt.ProtoUDP:
		b = b.UDP(t.srcPort, t.dstPort, uint16(8+len(payload)))
	}
	return b.Payload(payload).Bytes()
}

func (t tuple) v4(payload []byte) []byte {
	return t.l4(pkt.NewBuilder().Ethernet(t.dstMAC, t.srcMAC, pkt.EtherTypeIPv4).
		IPv4(pkt.IPv4Opts{TTL: 64, Protocol: t.proto, Src: uint32(t.srcLo), Dst: uint32(t.dstLo)}), payload)
}

func (t tuple) v6(payload []byte) []byte {
	return t.l4(pkt.NewBuilder().Ethernet(t.dstMAC, t.srcMAC, pkt.EtherTypeIPv6).
		IPv6(pkt.IPv6Opts{NextHdr: t.proto, HopLimit: 64, SrcHi: t.srcHi, SrcLo: t.srcLo, DstHi: t.dstHi, DstLo: t.dstLo}), payload)
}

func (t tuple) arp(payload []byte) []byte {
	return pkt.NewBuilder().Ethernet(t.dstMAC, t.srcMAC, 0x0806).Payload(payload).Bytes()
}

// TestFlowBucket: both directions of a connection share a bucket, the
// payload has no say, and distinct connections spread over the buckets.
func TestFlowBucket(t *testing.T) {
	const nb = 16
	shapes := map[string]func(tuple, []byte) []byte{"v4": tuple.v4, "v6": tuple.v6, "arp": tuple.arp}
	for name, frame := range shapes {
		for _, proto := range []uint8{pkt.ProtoTCP, pkt.ProtoUDP, 1} {
			used := map[int]bool{}
			for f := 0; f < 256; f++ {
				c := tuple{srcMAC: 0x020000000000 | uint64(f), dstMAC: lib.DmacA,
					srcHi: 0xFD00_0000_0000_0001, srcLo: uint64(lib.NetA) | uint64(f+1),
					dstHi: 0xFD00_0000_0000_0002, dstLo: uint64(lib.NetB) | 9,
					srcPort: uint16(1000 + f), dstPort: 443, proto: proto}
				b := microp4.FlowBucket(frame(c, []byte("request")), nb)
				if r := microp4.FlowBucket(frame(c.reversed(), []byte("a much longer reply")), nb); r != b {
					t.Fatalf("%s proto %d flow %d: forward in bucket %d, return in %d", name, proto, f, b, r)
				}
				used[b] = true
			}
			if len(used) < nb/2 {
				t.Errorf("%s proto %d: 256 connections fill %d of %d buckets", name, proto, len(used), nb)
			}
		}
	}
	// The ports count under TCP and UDP only: the same two hosts talk
	// over many connections, and those should not share one bucket.
	used := map[int]bool{}
	for port := uint16(0); port < 64; port++ {
		c := tuple{srcLo: uint64(lib.NetA) | 1, dstLo: uint64(lib.NetB) | 1, srcPort: 5000 + port, dstPort: 80, proto: pkt.ProtoTCP}
		used[microp4.FlowBucket(c.v4(nil), nb)] = true
	}
	if len(used) < nb/2 {
		t.Errorf("64 connections between two hosts fill %d of %d buckets", len(used), nb)
	}
}

// TestFlowBucketTruncated cuts every frame shape at every length: never
// a panic, never a bucket out of range, and bucket 0 below an Ethernet
// header.
func TestFlowBucketTruncated(t *testing.T) {
	c := tuple{srcMAC: 2, dstMAC: 3, srcHi: 4, srcLo: 5, dstHi: 6, dstLo: 7, srcPort: 8, dstPort: 9, proto: pkt.ProtoTCP}
	for _, full := range [][]byte{c.v4([]byte("xy")), c.v6([]byte("xy")), c.arp([]byte("xy"))} {
		for n := 0; n <= len(full); n++ {
			for _, nb := range []int{1, 4, 7, 1024} {
				b := microp4.FlowBucket(full[:n], nb)
				if b < 0 || b >= nb || (n < 14 && b != 0) {
					t.Fatalf("frame %x cut to %d bytes: bucket %d of %d", full, n, b, nb)
				}
			}
		}
	}
	// An IPv4 header length that points past the frame must not be
	// followed.
	lying := c.v4(nil)
	lying[14] = 0x4F
	microp4.FlowBucket(lying, 8)
}

// FuzzFlowBucket: any bytes at any bucket count stay in range, and the
// bucket depends on nothing past the L4 ports.
func FuzzFlowBucket(f *testing.F) {
	c := tuple{srcMAC: 2, dstMAC: 3, srcHi: 4, srcLo: 5, dstHi: 6, dstLo: 7, srcPort: 8, dstPort: 9, proto: pkt.ProtoUDP}
	for _, seed := range [][]byte{c.v4([]byte("payload")), c.v6([]byte("payload")), c.arp(nil), {}, {0xFF}} {
		f.Add(seed, uint16(8))
	}
	f.Fuzz(func(t *testing.T, frame []byte, n uint16) {
		nb := int(n)%4096 + 1
		b := microp4.FlowBucket(frame, nb)
		if b < 0 || b >= nb {
			t.Fatalf("bucket %d of %d for %x", b, nb, frame)
		}
		// Ethernet + IPv6 + ports is the longest prefix the hash may read;
		// IPv4 options can push the ports no further than byte 78.
		const prefix = 14 + 60 + 4
		if len(frame) > prefix {
			other := bytes.Clone(frame)
			for i := prefix; i < len(other); i++ {
				other[i] ^= 0x5A
			}
			if ob := microp4.FlowBucket(other, nb); ob != b {
				t.Fatalf("bytes past offset %d moved %x from bucket %d to %d", prefix, frame, b, ob)
			}
		}
	})
}

func p4Batch(n int) [][]byte {
	mix := perf.Traffic()
	batch := make([][]byte, n)
	for i := range batch {
		batch[i] = mix[i%len(mix)]
	}
	return batch
}

// TestPoolWidthIsSetWorkers: alternating small and large batches, and a
// batch smaller than the worker count, start each helper exactly once;
// small batches run on the caller.
func TestPoolWidthIsSetWorkers(t *testing.T) {
	sw, err := perf.Switch("P4")
	if err != nil {
		t.Fatal(err)
	}
	sw.SetWorkers(4)
	small, large := p4Batch(3), p4Batch(256)
	if len(small) >= microp4.MinParallelBatch || len(large) < microp4.MinParallelBatch {
		t.Fatalf("batches of %d and %d packets do not straddle the parallel threshold %d", len(small), len(large), microp4.MinParallelBatch)
	}
	var results []microp4.BatchResult
	run := func(batch [][]byte) {
		results = sw.ProcessBatchInto(batch, lib.PortA, results)
		for i := range results {
			if results[i].Err != nil || len(results[i].Out) != 1 {
				t.Fatalf("packet %d: %d outputs, err %v", i, len(results[i].Out), results[i].Err)
			}
			results[i].Release()
		}
	}
	run(small)
	if n := sw.HelperStarts(); n != 0 {
		t.Fatalf("a %d-packet batch started %d helpers", len(small), n)
	}
	for i := 0; i < 500; i++ {
		run(small)
		run(large)
	}
	if n := sw.HelperStarts(); n != 3 {
		t.Errorf("1000 alternating batches at 4 workers started helpers %d times, want 3", n)
	}
}

// TestHelpersExitWhenIdle: switches that ran a parallel batch and were
// dropped leave no goroutine behind and are collected.
func TestHelpersExitWhenIdle(t *testing.T) {
	base := runtime.NumGoroutine()
	var collected atomic.Int32
	for i := 0; i < 50; i++ {
		sw, err := perf.Switch("P4")
		if err != nil {
			t.Fatal(err)
		}
		sw.SetWorkers(4)
		for _, r := range sw.ProcessBatch(p4Batch(128), lib.PortA) {
			if r.Err != nil {
				t.Fatal(r.Err)
			}
		}
		if n := sw.HelperStarts(); n != 3 {
			t.Fatalf("switch %d started %d helpers, want 3", i, n)
		}
		runtime.SetFinalizer(sw, func(*microp4.Switch) { collected.Add(1) })
	}
	// One idle period parks and retires them; the rest of the deadline
	// is slack for a loaded machine.
	deadline := time.Now().Add(20 * microp4.HelperIdle)
	for runtime.NumGoroutine() > base || collected.Load() < 50 {
		if time.Now().After(deadline) {
			t.Fatalf("%v after the last batch: %d goroutines (baseline %d), %d of 50 switches collected",
				20*microp4.HelperIdle, runtime.NumGoroutine(), base, collected.Load())
		}
		time.Sleep(microp4.HelperIdle / 10)
		runtime.GC()
	}
}
