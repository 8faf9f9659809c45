package sim

import "time"

// HopSpan is one packet's hop-level view of its crossing of an engine:
// per-table lookup outcomes, parse/execute/deparse wall timings, and
// the packet's disposition. It is pure data — the trace subsystem
// (internal/trace) wraps it into a span for the flight recorder — so
// sim stays dependency-free.
//
// A HopSpan is a reader of the per-packet record (record.go): the
// engine fills it once per pass, when the pass is over. A nil *HopSpan
// (the default in Metadata) is not filled. It is owned by a single
// packet's Process call and needs no locking.
type HopSpan struct {
	ParseNs   int64 // reference engine: parser FSM wall time (all frames)
	ExecNs    int64 // total engine wall time for the pass
	DeparseNs int64 // reference engine: deparser wall time (all frames)

	Tables []TableStep // lookups in execution order

	Disposition string   // "forward", "drop", "multicast", "error"
	OutPorts    []uint64 // egress ports (forward/multicast)
	Recircs     int      // recirculation passes taken
	Err         string   // typed error, when the pass failed
}

// TableStep is one table lookup within a hop.
type TableStep struct {
	Table   string `json:"table"`
	Outcome string `json:"outcome"` // "hit", "default", "miss"
	Action  string `json:"action,omitempty"`
}

// observe adds one finished pass to the span: the pass's wall times,
// its table steps in order, and how it ended. A recirculated packet's
// passes accumulate; the last pass's disposition stands.
func (h *HopSpan) observe(r *record, res *ProcResult, err error, elapsed time.Duration) {
	h.ExecNs += elapsed.Nanoseconds()
	h.ParseNs += r.stageNs[stageParse]
	h.DeparseNs += r.stageNs[stageDeparse]
	names := r.names()
	for i := range r.steps {
		s := &r.steps[i]
		if s.kind != stepTable {
			continue
		}
		if h.Tables == nil {
			h.Tables = make([]TableStep, 0, len(r.steps)-i)
		}
		h.Tables = append(h.Tables, TableStep{Table: names[s.name], Outcome: s.outcome.String(), Action: names[s.aux]})
	}
	switch {
	case err != nil:
		h.Disposition, h.Err = "error", err.Error()
	case res.Dropped || len(res.Out) == 0:
		h.Disposition = "drop"
	default:
		h.Disposition = "forward"
		for _, o := range res.Out {
			h.OutPorts = append(h.OutPorts, o.Port)
		}
		if res.Recirculate && res.McastGroup == 0 {
			h.Recircs++ // the architecture sends this pass's output round again
		}
	}
}

// String renders a LookupOutcome for spans and traces.
func (o LookupOutcome) String() string {
	switch o {
	case LookupHit:
		return "hit"
	case LookupDefault:
		return "default"
	case LookupMiss:
		return "miss"
	}
	return "unknown"
}
