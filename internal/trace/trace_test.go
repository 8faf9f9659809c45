package trace

import (
	"bytes"
	"fmt"
	"testing"
)

func span(id uint64, name string) *Span {
	return &Span{TraceID: id, SpanID: id, Kind: "hop", Name: name}
}

func TestRecorderRingWindow(t *testing.T) {
	r := NewRecorder(3) // rounds up to 4
	for i := uint64(1); i <= 10; i++ {
		r.Record(span(i, fmt.Sprint(i)))
	}
	if r.Len() != 10 {
		t.Fatalf("Len = %d, want 10", r.Len())
	}
	spans := r.Spans()
	if len(spans) != 4 {
		t.Fatalf("ring kept %d spans, want capacity 4", len(spans))
	}
	for i, sp := range spans {
		if want := uint64(7 + i); sp.SpanID != want {
			t.Errorf("spans[%d] = %d, want %d (oldest-first window)", i, sp.SpanID, want)
		}
	}
}

func TestRecorderNilSafe(t *testing.T) {
	var r *Recorder
	if r.NextID() != 0 || r.Len() != 0 || r.Spans() != nil || r.Faults() != nil {
		t.Error("nil recorder methods must no-op")
	}
	r.Record(span(1, "x"))
	r.NoteFault(span(1, "x"), []byte{1})
	var buf bytes.Buffer
	if err := r.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	spans, faults, err := ReadJSON(buf.Bytes())
	if err != nil {
		t.Fatalf("nil recorder's export is not valid: %v", err)
	}
	if len(spans) != 0 || len(faults) != 0 {
		t.Errorf("nil recorder exported %d spans, %d faults", len(spans), len(faults))
	}
}

func TestNoteFaultPinsRecentAndPacket(t *testing.T) {
	r := NewRecorder(64)
	for i := uint64(1); i <= 40; i++ {
		r.Record(span(i, fmt.Sprint(i)))
	}
	pktBytes := []byte{0xDE, 0xAD}
	faulting := span(99, "boom")
	r.NoteFault(faulting, pktBytes)
	pktBytes[0] = 0 // the dump must have copied

	faults := r.Faults()
	if len(faults) != 1 {
		t.Fatalf("pinned %d dumps, want 1", len(faults))
	}
	d := faults[0]
	if d.Span != faulting {
		t.Error("dump does not pin the faulting span")
	}
	if !bytes.Equal(d.Packet, []byte{0xDE, 0xAD}) {
		t.Errorf("dump packet = % x, want the original bytes copied", d.Packet)
	}
	if len(d.Recent) != faultDumpRecent {
		t.Fatalf("dump pinned %d recent spans, want %d", len(d.Recent), faultDumpRecent)
	}
	if first := d.Recent[0].SpanID; first != 40-faultDumpRecent+1 {
		t.Errorf("recent window starts at %d, want %d", first, 40-faultDumpRecent+1)
	}

	// Eviction: only the newest maxFaultDumps dumps survive.
	for i := 0; i < maxFaultDumps+5; i++ {
		r.NoteFault(span(uint64(100+i), "boom"), nil)
	}
	faults = r.Faults()
	if len(faults) != maxFaultDumps {
		t.Fatalf("kept %d dumps, want %d", len(faults), maxFaultDumps)
	}
	if faults[len(faults)-1].Span.SpanID != uint64(100+maxFaultDumps+4) {
		t.Error("eviction dropped the newest dump instead of the oldest")
	}
}

func TestWriteReadJSONRoundTrip(t *testing.T) {
	r := NewRecorder(16)
	s := span(1, "hop")
	s.Event(5, "retry", "s1 seq 2")
	r.Record(s)
	r.NoteFault(span(2, "boom"), []byte{1, 2, 3})

	var buf bytes.Buffer
	if err := r.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	spans, faults, err := ReadJSON(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	if len(spans) != 1 || spans[0].Name != "hop" || len(spans[0].Events) != 1 {
		t.Errorf("round-trip lost span detail: %+v", spans)
	}
	if len(faults) != 1 || !bytes.Equal(faults[0].Packet, []byte{1, 2, 3}) {
		t.Errorf("round-trip lost fault dump: %+v", faults)
	}

	if _, _, err := ReadJSON([]byte(`{"schema":"up4trace/v0"}`)); err == nil {
		t.Error("foreign schema accepted")
	}
	if _, _, err := ReadJSON([]byte("not json")); err == nil {
		t.Error("garbage accepted")
	}
}
