// Package trace is the distributed packet-tracing core of the µP4
// reproduction: per-packet trace contexts propagated end-to-end through
// the simulated network, one span per switch hop (parse / per-table
// lookup / deparse, disposition), one span per link traversal (carrying
// the injected fault events), and one span per control-plane
// transaction phase — all feeding a bounded lock-free flight-recorder
// ring that dumps on engine faults and exports as JSON.
//
// It is the host-side half of the §8.2 debugging story: the
// telemetry.up4 library module stamps the same hop facts (switch id,
// latency bucket, TTL) into the packet in-band, and the two views are
// cross-checked byte for byte in the evaluation tests.
//
// Determinism contract: span identity, structure, ticks, and events
// derive only from the virtual clock and seeded fault streams —
// identical seed and traffic means identical spans, modulo the
// wall-clock ns timing fields, which Canonical zeroes for comparisons.
package trace

import (
	"encoding/json"
	"fmt"
	"io"
	"sync"
	"sync/atomic"

	"microp4/internal/sim"
)

// Schema identifies the JSON export layout; bump on incompatible change.
const Schema = "up4trace/v1"

// Event is one timestamped annotation on a span: a link fault, a
// control-plane retry, a breaker transition.
type Event struct {
	Tick   uint64 `json:"tick"`
	Kind   string `json:"kind"`
	Detail string `json:"detail,omitempty"`
}

// Span is one unit of traced work. Kind selects which optional fields
// are meaningful:
//
//	"hop"  — a packet processed by one switch: InPort, Qdepth, and Hop
//	         (the engine-recorded parse/table/deparse detail).
//	"link" — a packet traversing one netsim link: Events carry the
//	         injected faults; Err is "lost" when nothing was delivered.
//	"txn"  — one control-plane transaction phase (stage, prepare,
//	         commit, abort): Events carry per-peer sends, retries,
//	         timeouts, and breaker holds.
type Span struct {
	TraceID  uint64 `json:"trace_id"`
	SpanID   uint64 `json:"span_id"`
	ParentID uint64 `json:"parent_id,omitempty"`
	Kind     string `json:"kind"`
	Name     string `json:"name"`
	Start    uint64 `json:"start"` // virtual tick
	End      uint64 `json:"end"`

	InPort uint64       `json:"in_port,omitempty"`
	Qdepth uint64       `json:"qdepth,omitempty"`
	Hop    *sim.HopSpan `json:"hop,omitempty"`

	Events []Event `json:"events,omitempty"`
	Err    string  `json:"err,omitempty"`
}

// Event appends one annotation. Nil-safe.
func (s *Span) Event(tick uint64, kind, detail string) {
	if s != nil {
		s.Events = append(s.Events, Event{Tick: tick, Kind: kind, Detail: detail})
	}
}

// Canonical returns a deep copy with every wall-clock-dependent field
// zeroed (the hop's parse/exec/deparse nanoseconds), leaving only the
// seed-deterministic structure. Two chaos runs with the same seed and
// traffic must produce byte-identical canonical spans.
func (s *Span) Canonical() Span {
	c := *s
	if s.Hop != nil {
		h := *s.Hop
		h.ParseNs, h.ExecNs, h.DeparseNs = 0, 0, 0
		h.Tables = append([]sim.TableStep(nil), s.Hop.Tables...)
		h.OutPorts = append([]uint64(nil), s.Hop.OutPorts...)
		c.Hop = &h
	}
	c.Events = append([]Event(nil), s.Events...)
	return c
}

// FaultDump is one pinned engine-fault snapshot: the faulting span, the
// packet bytes that triggered it, and the ring's most recent spans at
// the moment of the fault.
type FaultDump struct {
	Span   *Span   `json:"span"`
	Packet []byte  `json:"packet"` // base64 in JSON
	Recent []*Span `json:"recent,omitempty"`
}

// DefaultCapacity is the flight-recorder ring size when NewRecorder is
// given no preference.
const DefaultCapacity = 4096

// faultDumpRecent bounds how many trailing spans each fault dump pins.
const faultDumpRecent = 32

// maxFaultDumps bounds the pinned dumps (oldest evicted first).
const maxFaultDumps = 16

// Recorder is the bounded lock-free flight recorder: a power-of-two
// ring of span pointers overwritten oldest-first, a span/trace id
// allocator, and a small mutex-guarded side list of pinned engine-fault
// dumps. Record is one atomic add plus one atomic pointer store —
// multiple workers may record concurrently; readers (Spans, WriteJSON)
// see a consistent-enough snapshot for post-run export.
//
// A nil *Recorder is the tracing-off state: every method no-ops (and
// allocates nothing), so call sites stay unconditional.
type Recorder struct {
	slots []atomic.Pointer[Span]
	mask  uint64
	seq   atomic.Uint64 // next ring slot (total spans recorded)
	ids   atomic.Uint64 // last allocated span/trace id

	mu     sync.Mutex
	faults []FaultDump
}

// NewRecorder returns a flight recorder holding the last `capacity`
// spans (rounded up to a power of two; <=0 selects DefaultCapacity).
func NewRecorder(capacity int) *Recorder {
	if capacity <= 0 {
		capacity = DefaultCapacity
	}
	n := 1
	for n < capacity {
		n <<= 1
	}
	return &Recorder{slots: make([]atomic.Pointer[Span], n), mask: uint64(n - 1)}
}

// NextID allocates a fresh nonzero span or trace id. Nil-safe (0).
func (r *Recorder) NextID() uint64 {
	if r == nil {
		return 0
	}
	return r.ids.Add(1)
}

// Record stores one span in the ring, overwriting the oldest when full.
// The recorder keeps the pointer: a span may gain Events after being
// recorded (control-plane retries arrive later on the virtual clock),
// but only single-threaded with the eventual reader. Nil-safe.
func (r *Recorder) Record(s *Span) {
	if r == nil || s == nil {
		return
	}
	i := r.seq.Add(1) - 1
	r.slots[i&r.mask].Store(s)
}

// Len returns how many spans have ever been recorded. Nil-safe.
func (r *Recorder) Len() uint64 {
	if r == nil {
		return 0
	}
	return r.seq.Load()
}

// Spans snapshots the ring oldest-to-newest. Nil-safe (nil).
func (r *Recorder) Spans() []*Span {
	if r == nil {
		return nil
	}
	total := r.seq.Load()
	n := total
	if n > uint64(len(r.slots)) {
		n = uint64(len(r.slots))
	}
	out := make([]*Span, 0, n)
	for i := total - n; i < total; i++ {
		if s := r.slots[i&r.mask].Load(); s != nil {
			out = append(out, s)
		}
	}
	return out
}

// NoteFault pins an engine-fault dump: the faulting span, a copy of the
// offending packet bytes, and the last spans leading up to it. At most
// maxFaultDumps are kept (oldest evicted). Nil-safe.
func (r *Recorder) NoteFault(s *Span, packet []byte) {
	if r == nil {
		return
	}
	spans := r.Spans()
	if len(spans) > faultDumpRecent {
		spans = spans[len(spans)-faultDumpRecent:]
	}
	d := FaultDump{Span: s, Packet: append([]byte(nil), packet...), Recent: spans}
	r.mu.Lock()
	r.faults = append(r.faults, d)
	if len(r.faults) > maxFaultDumps {
		r.faults = r.faults[len(r.faults)-maxFaultDumps:]
	}
	r.mu.Unlock()
}

// Faults returns the pinned engine-fault dumps, oldest first. Nil-safe.
func (r *Recorder) Faults() []FaultDump {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return append([]FaultDump(nil), r.faults...)
}

// export is the JSON document layout of WriteJSON.
type export struct {
	Schema   string      `json:"schema"`
	Recorded uint64      `json:"recorded"` // total spans ever recorded
	Spans    []*Span     `json:"spans"`    // the ring's surviving window
	Faults   []FaultDump `json:"faults,omitempty"`
}

// WriteJSON renders the recorder — schema tag, the ring's surviving
// span window oldest-first, and any pinned fault dumps — as one
// indented JSON document. Nil-safe: a nil recorder writes an empty
// document with the schema tag, so `-trace-out` always yields valid
// JSON.
func (r *Recorder) WriteJSON(w io.Writer) error {
	doc := export{Schema: Schema, Recorded: r.Len(), Spans: r.Spans(), Faults: r.Faults()}
	if doc.Spans == nil {
		doc.Spans = []*Span{}
	}
	data, err := json.MarshalIndent(doc, "", "  ")
	if err != nil {
		return err
	}
	_, err = w.Write(append(data, '\n'))
	return err
}

// ReadJSON parses a WriteJSON document, checking the schema tag — the
// consumer half of `up4run -trace-out`, used by the CI smoke test.
func ReadJSON(data []byte) ([]*Span, []FaultDump, error) {
	var doc export
	if err := json.Unmarshal(data, &doc); err != nil {
		return nil, nil, err
	}
	if doc.Schema != Schema {
		return nil, nil, fmt.Errorf("trace: schema %q, want %q", doc.Schema, Schema)
	}
	return doc.Spans, doc.Faults, nil
}

// HopContext is the trace context a network hands a switch for one hop:
// which trace the packet belongs to, the span it descends from, where
// and when it is being processed, and how long it waited in flight
// (the deterministic queue-depth proxy the telemetry.up4 module reads
// via im.get_value(QUEUE_DEPTH)).
type HopContext struct {
	TraceID  uint64
	ParentID uint64
	Node     string
	Tick     uint64
	Qdepth   uint64
}
