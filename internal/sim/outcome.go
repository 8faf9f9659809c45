package sim

import "fmt"

// Outcome is the externally visible result of one packet, the contract
// two executions must agree on: the error class ("" when processing
// succeeded), the drop/recirculate/multicast disposition, the digests
// raised and the transmitted packets in order. The equivalence gate
// compares engines on every field; the upgrade canary compares a live
// generation with a staged one above the engine layer, where only the
// error class, digests and outputs are visible, and leaves the
// disposition fields zero.
type Outcome struct {
	ErrClass     string
	Dropped      bool
	ParserReject bool
	Recirculate  bool
	Mcast        uint64
	Digests      []uint64
	Out          []OutPkt
}

// ErrClassOf renders an error as an outcome class: "" for nil, the
// taxonomy class for typed runtime errors, and the error text for
// anything outside the taxonomy (which would itself be a divergence
// worth reporting).
func ErrClassOf(err error) string {
	if err == nil {
		return ""
	}
	if class, ok := ClassOf(err); ok {
		return class.String()
	}
	return "untyped:" + err.Error()
}

// OutcomeOf summarizes one engine run. It copies the digests and the
// packet bytes, so the outcome outlives a pooled result's Release.
func OutcomeOf(res *ProcResult, err error) Outcome {
	if err != nil {
		return Outcome{ErrClass: ErrClassOf(err)}
	}
	o := Outcome{
		Dropped:      res.Dropped,
		ParserReject: res.ParserReject,
		Recirculate:  res.Recirculate,
		Mcast:        res.McastGroup,
		Digests:      append([]uint64(nil), res.Digests...),
	}
	for _, p := range res.Out {
		o.Out = append(o.Out, OutPkt{Port: p.Port, Data: append([]byte(nil), p.Data...)})
	}
	return o
}

func (o Outcome) String() string {
	if o.ErrClass != "" {
		return "error:" + o.ErrClass
	}
	s := ""
	if o.Dropped {
		s = "DROP"
		if o.ParserReject {
			s += "(parser)"
		}
	}
	for _, p := range o.Out {
		s += fmt.Sprintf("[port=%d len=%d %x]", p.Port, len(p.Data), p.Data)
	}
	if o.Recirculate {
		s += " recirc"
	}
	if o.Mcast != 0 {
		s += fmt.Sprintf(" mcast=%d", o.Mcast)
	}
	if len(o.Digests) > 0 {
		s += fmt.Sprintf(" digests=%v", o.Digests)
	}
	return s
}

// FirstOutcomeDiff compares two outcomes and describes the first
// divergence, or returns "" when they are identical. Two executions
// failing with the same error class agree (the packet is lost either
// way). The order is error class, disposition, digests, then outputs
// by port, length and byte.
func FirstOutcomeDiff(a, b Outcome) string {
	if a.ErrClass != b.ErrClass {
		return fmt.Sprintf("error class: %q vs %q", a.ErrClass, b.ErrClass)
	}
	if a.ErrClass != "" {
		return "" // agreed failure
	}
	switch {
	case a.Dropped != b.Dropped:
		return fmt.Sprintf("dropped: %v vs %v", a.Dropped, b.Dropped)
	case a.ParserReject != b.ParserReject:
		return fmt.Sprintf("parser reject: %v vs %v", a.ParserReject, b.ParserReject)
	case a.Recirculate != b.Recirculate:
		return fmt.Sprintf("recirculate: %v vs %v", a.Recirculate, b.Recirculate)
	case a.Mcast != b.Mcast:
		return fmt.Sprintf("mcast group: %d vs %d", a.Mcast, b.Mcast)
	}
	if len(a.Digests) != len(b.Digests) {
		return fmt.Sprintf("digest count: %d vs %d", len(a.Digests), len(b.Digests))
	}
	for i := range a.Digests {
		if a.Digests[i] != b.Digests[i] {
			return fmt.Sprintf("digest[%d]: %#x vs %#x", i, a.Digests[i], b.Digests[i])
		}
	}
	if len(a.Out) != len(b.Out) {
		return fmt.Sprintf("output count: %d vs %d", len(a.Out), len(b.Out))
	}
	for i := range a.Out {
		if a.Out[i].Port != b.Out[i].Port {
			return fmt.Sprintf("out[%d] port: %d vs %d", i, a.Out[i].Port, b.Out[i].Port)
		}
		x, y := a.Out[i].Data, b.Out[i].Data
		if len(x) != len(y) {
			return fmt.Sprintf("out[%d] length: %d vs %d", i, len(x), len(y))
		}
		for j := range x {
			if x[j] != y[j] {
				return fmt.Sprintf("out[%d] byte %d: %#02x vs %#02x", i, j, x[j], y[j])
			}
		}
	}
	return ""
}
