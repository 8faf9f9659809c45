package microp4

import "microp4/internal/trace"

// SetTracing attaches (or, with nil, detaches) a distributed-tracing
// flight recorder. With a recorder attached, ProcessHop records one
// "hop" span per packet — parse/table/deparse detail, disposition, and
// output ports — and ProcessBatch records the same spans, self-rooted.
// An engine fault under ProcessHop additionally pins a dump of the
// faulting packet bytes and the spans leading up to it (see
// trace.Recorder.Faults). With no recorder attached the packet path
// carries no tracing work beyond one atomic load.
func (s *Switch) SetTracing(rec *trace.Recorder) { s.tracer.Store(rec) }

// Tracing returns the recorder attached by SetTracing, or nil.
func (s *Switch) Tracing() *trace.Recorder { return s.tracer.Load() }

// ProcessHop is Process carrying a distributed-tracing context: the
// network names the trace the packet belongs to, the span it descends
// from, and the virtual-time facts of this hop (tick, queue depth).
// It returns the recorded hop span's id so the caller can parent
// downstream link spans under it. The queue depth is also surfaced to
// the dataplane as the QUEUE_DEPTH intrinsic — what telemetry.up4
// stamps in-band.
//
// Without a recorder attached it degrades to exactly Process (span id
// 0). Semantics (clock ticks, digests, recirculation, multicast) are
// identical to Process either way.
func (s *Switch) ProcessHop(pkt []byte, inPort uint64, hc trace.HopContext) ([]Output, uint64, error) {
	return s.processOne(pkt, inPort, hc, s.tracer.Load())
}
