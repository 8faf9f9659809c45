package sim_test

import (
	"fmt"
	"reflect"
	"strings"
	"testing"

	"microp4/internal/lib"
	"microp4/internal/obs"
	"microp4/internal/perf"
	"microp4/internal/pkt"
	"microp4/internal/sim"
)

// watched is one engine with every reader of the per-packet record
// attached: metrics, a collecting bus subscriber, and — per packet — a
// hop span.
type watched struct {
	name    string
	process func([]byte, sim.Metadata) (*sim.ProcResult, error)
	m       *sim.Metrics
	events  []sim.TraceEvent
}

func watch(e *engines) [2]*watched {
	ws := [2]*watched{
		{name: "compiled", process: e.exec.Process, m: sim.NewMetrics(obs.NewRegistry())},
		{name: "reference", process: e.interp.Process, m: sim.NewMetrics(obs.NewRegistry())},
	}
	e.exec.SetMetrics(ws[0].m)
	e.exec.SetTracer(sim.CollectTrace(&ws[0].events))
	e.interp.SetMetrics(ws[1].m)
	e.interp.SetTracer(sim.CollectTrace(&ws[1].events))
	return ws
}

// wrongArity reinstalls P4's forward_tbl entry for next hop A with one
// argument where the action takes three — state the control schema
// refuses, installed beneath it.
func wrongArity(e *engines) []byte {
	e.composedTables.ClearTable("forward_tbl")
	e.composedTables.AddEntry("forward_tbl", []sim.RuntimeKey{sim.Exact(lib.NhA)}, "forward", lib.DmacA)
	return pkt.NewBuilder().Ethernet(lib.DmacA, 2, pkt.EtherTypeIPv4).
		IPv4(pkt.IPv4Opts{TTL: 64, Protocol: 6, Src: 1, Dst: lib.NetA | 1}).TCP(1, 80).Bytes()
}

// TestErroredPacketIsObserved pins what a packet that ends in a typed
// error leaves behind, on both engines: the same error text, the packet
// and its rx port, bytes and latency sample counted beside the error,
// the span closed with its wall time — and no observer left in the
// compiled engine's pooled state.
func TestErroredPacketIsObserved(t *testing.T) {
	e := buildEngines(t, "P4")
	in := wrongArity(e)
	const want = "table forward_tbl: action forward: takes 3 args, got 1"
	for _, w := range watch(e) {
		span := &sim.HopSpan{}
		res, err := w.process(in, sim.Metadata{InPort: 3, Span: span})
		if res != nil || err == nil || err.Error() != want {
			t.Fatalf("%s: result %v, error %v; want error %q", w.name, res, err, want)
		}
		for name, got := range map[string]uint64{
			"table errors": w.m.TableErrors.Value(),
			"packets":      w.m.Packets.Value(),
			"rx packets":   w.m.Port(3).RxPackets.Value(),
			"latency":      w.m.Latency.Count(),
		} {
			if got != 1 {
				t.Errorf("%s: %s = %d, want 1", w.name, name, got)
			}
		}
		if got := w.m.Port(3).RxBytes.Value(); got != uint64(len(in)) {
			t.Errorf("%s: rx bytes = %d, want %d", w.name, got, len(in))
		}
		if span.Disposition != "error" || span.Err != want || span.ExecNs <= 0 {
			t.Errorf("%s: span ends %q, err %q, %d ns; want error, the error text and a wall time",
				w.name, span.Disposition, span.Err, span.ExecNs)
		}
		if n := len(span.Tables); n == 0 || span.Tables[n-1].Table != "forward_tbl" {
			t.Errorf("%s: span tables %v do not end at forward_tbl", w.name, span.Tables)
		}
	}
	if raceEnabled {
		return // the race detector drops pool items at random
	}
	m, span, bus, ok := e.exec.PooledObservers()
	if !ok {
		t.Fatal("the errored packet's state did not return to the pool")
	}
	if m != nil || span != nil || bus != nil {
		t.Errorf("pooled state still holds observers: metrics %v span %v bus %v", m, span, bus)
	}
}

// TestNamesInternedAtBuild pins where record ids come from: NewExec and
// NewInterp intern every name their records can hold, so packets — also
// ones that hit an entry naming an action the program does not have —
// add none, whoever watches.
func TestNamesInternedAtBuild(t *testing.T) {
	e := buildEngines(t, "P4")
	ws := watch(e)
	built := e.composedTables.NameCount()
	traffic := append(perf.Traffic(), wrongArity(e),
		pkt.NewBuilder().Ethernet(lib.DmacA, 2, pkt.EtherTypeIPv4).
			IPv4(pkt.IPv4Opts{TTL: 64, Protocol: 6, Src: 1, Dst: lib.NetB | 1}).TCP(1, 80).Bytes())
	e.composedTables.AddEntry("forward_tbl", []sim.RuntimeKey{sim.Exact(lib.NhB)}, "no_such_action")
	for _, w := range ws {
		unknown := 0
		for i, p := range traffic {
			span := &sim.HopSpan{}
			_, err := w.process(p, sim.Metadata{InPort: 1, Span: span})
			if err == nil || !strings.Contains(err.Error(), "unknown action") {
				continue
			}
			unknown++
			if last := span.Tables[len(span.Tables)-1]; last.Outcome != "hit" || last.Action != "" {
				t.Errorf("%s: packet %d: %v, but the span's last step is %+v", w.name, i, err, last)
			}
		}
		if unknown == 0 {
			t.Errorf("%s: no packet hit the entry with the unknown action", w.name)
		}
	}
	if got := e.composedTables.NameCount(); got != built || built == 0 {
		t.Errorf("%d names after traffic, %d when the engines were built", got, built)
	}
}

// TestTableSeriesOutliveNameTable pins what a cut-over relies on: table
// ids are per generation (per Tables), the series are per name, so one
// Metrics counting for engines of two name tables in turn — ids that
// mean different tables — keeps every series right.
func TestTableSeriesOutliveNameTable(t *testing.T) {
	m := sim.NewMetrics(obs.NewRegistry())
	want := tally{}
	for round := 0; round < 3; round++ {
		for _, prog := range []string{"P4", "P1"} {
			e := buildEngines(t, prog)
			e.exec.SetMetrics(m)
			for _, p := range perf.TrafficFor(prog) {
				span := &sim.HopSpan{}
				res, err := e.exec.Process(p, sim.Metadata{InPort: 1, Span: span})
				if err != nil {
					t.Fatal(err)
				}
				res.Release()
				for _, s := range span.Tables {
					want[[2]string{s.Table, s.Outcome}]++
				}
			}
		}
	}
	for key, n := range want {
		tm := m.Table(key[0])
		got := map[string]uint64{"hit": tm.Hits.Value(), "default": tm.Defaults.Value(), "miss": tm.Misses.Value()}[key[1]]
		if got != uint64(n) {
			t.Errorf("counter %v = %d, spans tallied %d", key, got, n)
		}
	}
}

// tally counts table decisions by table and a second label.
type tally map[[2]string]int

// userSteps is a span's decisions on the program's own tables: the
// compiled engine also records the $parser_tbl/$deparser_tbl MATs it
// runs in place of parsers and deparsers, which the reference
// interpreter (it runs the parsers themselves) has no counterpart for.
func userSteps(span *sim.HopSpan) []sim.TableStep {
	var out []sim.TableStep
	for _, s := range span.Tables {
		if !strings.Contains(s.Table, "$") {
			out = append(out, s)
		}
	}
	return out
}

// TestReadersAgree drives P1–P11's standard traffic through both
// engines with metrics, a hop span and a bus subscriber attached. The
// three are readers of one per-packet record, so per packet the table
// counters' deltas, the span's table steps and the "table" events must
// tell the same story, and the span's ending must be the result's; and
// the two engines must have made the same decisions on the program's
// tables, in the same order — a comparison of what the engines decided,
// not only of the bytes they produced.
func TestReadersAgree(t *testing.T) {
	for _, prog := range []string{"P1", "P2", "P3", "P4", "P5", "P6", "P7", "P8", "P9", "P10", "P11"} {
		t.Run(prog, func(t *testing.T) {
			e := buildEngines(t, prog)
			ws := watch(e)
			counted := [2]tally{{}, {}}
			var clock uint64
			for i, p := range perf.TrafficFor(prog) {
				clock++
				var spans [2]*sim.HopSpan
				for k, w := range ws {
					span := &sim.HopSpan{}
					spans[k] = span
					w.events = w.events[:0]
					res, err := w.process(p, sim.Metadata{InPort: 1, InTimestamp: clock, Span: span})
					if err != nil {
						t.Fatalf("packet %d: %s: %v", i, w.name, err)
					}
					at := fmt.Sprintf("packet %d: %s", i, w.name)

					byAction, fromEvents := tally{}, tally{}
					for _, s := range span.Tables {
						byAction[[2]string{s.Table, s.Action}]++
						counted[k][[2]string{s.Table, s.Outcome}]++
					}
					for _, ev := range w.events {
						if ev.Kind != "table" {
							continue
						}
						action := ""
						if ev.Detail != "miss (no default)" {
							action = strings.Fields(ev.Detail)[1] // "-> action (keys)"
						}
						fromEvents[[2]string{ev.Name, action}]++
					}
					if !reflect.DeepEqual(byAction, fromEvents) {
						t.Errorf("%s: span says %v, events say %v", at, byAction, fromEvents)
					}
					for key, n := range counted[k] {
						tm := w.m.Table(key[0])
						got := map[string]uint64{"hit": tm.Hits.Value(), "default": tm.Defaults.Value(),
							"miss": tm.Misses.Value()}[key[1]]
						if got != uint64(n) {
							t.Errorf("%s: counter %v = %d after spans tallied %d", at, key, got, n)
						}
					}
					if len(span.Tables) == 0 {
						t.Errorf("%s: no table step recorded", at)
					}

					var ports []uint64
					for _, o := range res.Out {
						ports = append(ports, o.Port)
					}
					disposition, recircs := "forward", 0
					if res.Dropped || len(res.Out) == 0 {
						disposition = "drop"
					} else if res.Recirculate && res.McastGroup == 0 {
						recircs = 1
					}
					if span.Disposition != disposition || !reflect.DeepEqual(span.OutPorts, ports) ||
						span.Recircs != recircs || span.Err != "" {
						t.Errorf("%s: span ends %q ports %v recircs %d err %q; result: %s ports %v recircs %d",
							at, span.Disposition, span.OutPorts, span.Recircs, span.Err, disposition, ports, recircs)
					}
					res.Release()
				}
				if c, r := userSteps(spans[0]), userSteps(spans[1]); !reflect.DeepEqual(c, r) {
					t.Errorf("packet %d: engines decided differently:\n compiled:  %v\n reference: %v", i, c, r)
				}
			}
		})
	}
}
