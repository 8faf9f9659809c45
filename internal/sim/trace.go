package sim

import (
	"fmt"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
)

// TraceEvent is one observable step of packet processing — the paper's
// §8.2 debugging direction: "programs can be linked against µP4 debug
// modules ... logging information in the dataplane". The simulator
// exposes the equivalent hooks directly.
type TraceEvent struct {
	Seq    uint64 `json:"seq"`              // monotonic per-bus sequence number
	Kind   string `json:"kind"`             // engines: "table", "parser-state", "module"; other publishers bring their own
	Module string `json:"module,omitempty"` // emitting module instance path ("" = main)
	Name   string `json:"name"`             // table/action/state/module name
	Detail string `json:"detail,omitempty"` // matched action, key values, etc.
}

func (e TraceEvent) String() string {
	if e.Detail == "" {
		return fmt.Sprintf("%-12s %s", e.Kind, e.Name)
	}
	return fmt.Sprintf("%-12s %-40s %s", e.Kind, e.Name, e.Detail)
}

// Tracer receives trace events during processing. A nil tracer is off.
type Tracer func(TraceEvent)

// Bus is a multi-sink trace event distributor. Emitters check Active()
// (one atomic load) before even constructing an event — the engines
// once per packet, not per site (record.go) — so an idle bus costs
// nothing on the packet hot path; Publish stamps each event with
// a monotonic sequence number shared by all subscribers. Subscription
// management is copy-on-write: Publish never locks.
type Bus struct {
	seq    atomic.Uint64
	subs   cow[int, Tracer]
	mu     sync.Mutex // guards subscription changes
	nextID int
}

// NewBus returns an empty bus.
func NewBus() *Bus { return &Bus{} }

// Active reports whether any subscriber is attached. Nil-safe.
func (b *Bus) Active() bool { return b != nil && len(b.subs.all()) != 0 }

// Publish stamps e with the next sequence number and delivers it to
// every subscriber. No-op when the bus is nil or has no subscribers.
func (b *Bus) Publish(e TraceEvent) {
	if !b.Active() {
		return
	}
	e.Seq = b.seq.Add(1)
	for _, fn := range b.subs.all() {
		fn(e)
	}
}

// Subscribe attaches a sink and returns its detach function. The sink
// may be called concurrently when packets are processed from multiple
// goroutines; use CollectTrace (or your own locking) for shared state.
func (b *Bus) Subscribe(t Tracer) (cancel func()) {
	if t == nil {
		return func() {}
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	id := b.nextID
	b.nextID++
	b.subs.put(id, t, false)
	return func() {
		b.mu.Lock()
		defer b.mu.Unlock()
		b.subs.put(id, nil, true)
	}
}

// CollectTrace returns a tracer appending into a slice. The append is
// mutex-guarded so one collector may be shared by concurrent switches
// (the network-test scenarios) without racing.
func CollectTrace(out *[]TraceEvent) Tracer {
	var mu sync.Mutex
	return func(e TraceEvent) {
		mu.Lock()
		*out = append(*out, e)
		mu.Unlock()
	}
}

// moduleOf derives the emitting module instance from a fully qualified
// name ("l3_i.ipv4_i.ipv4_lpm_tbl" → "l3_i.ipv4_i"; unprefixed names
// belong to the main program): table names carry the instance path on
// both engines.
func moduleOf(fq string) string {
	if i := strings.LastIndexByte(fq, '.'); i >= 0 {
		return fq[:i]
	}
	return ""
}

// observe is the bus's reading of a finished record: one event per
// table, parser-state and module step, in execution order, published
// after the packet's pass. Event text is formatted here — the engines
// recorded ids and key values — and only for a bus that had a
// subscriber when the packet began.
func (b *Bus) observe(r *record) {
	names := r.names()
	for i := range r.steps {
		s := &r.steps[i]
		ev := TraceEvent{Name: names[s.name]}
		switch s.kind {
		case stepTable:
			ev.Kind, ev.Module, ev.Detail = "table", moduleOf(ev.Name), "miss (no default)"
			if s.outcome != LookupMiss {
				action := "?" // one the program does not have
				if s.aux != noName {
					action = names[s.aux]
				}
				t := append(append(r.text[:0], "-> "...), action...)
				t = append(t, " ("...)
				for j, v := range r.keys[s.keyOff : s.keyOff+int32(s.keyN)] {
					if j > 0 {
						t = append(t, ", "...)
					}
					t = append(t, "0x"...)
					t = strconv.AppendUint(t, v, 16)
				}
				r.text = append(t, ')')
				ev.Detail = string(r.text)
			}
		case stepState:
			ev.Kind, ev.Module = "parser-state", names[s.aux]
		case stepModule:
			ev.Kind, ev.Module, ev.Detail = "module", ev.Name, "apply "+names[s.aux]
		default:
			continue
		}
		b.Publish(ev)
	}
}
