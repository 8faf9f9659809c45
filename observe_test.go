package microp4_test

// Observation tests at the Switch surface: what an errored packet leaves
// in the metrics and the hop span, and the catalogue of every name the
// observation path emits (DESIGN.md "Observation", testdata/
// catalogue.golden). The per-packet agreement of the three readers and
// of the two engines' decisions is pinned one layer down, in
// internal/sim's TestReadersAgree.

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"

	"microp4"
	"microp4/internal/lib"
	"microp4/internal/perf"
	"microp4/internal/pkt"
	"microp4/internal/trace"
)

// routedV4 is an IPv4 TCP packet the standard P4 rules route via next
// hop A.
func routedV4() []byte {
	return pkt.NewBuilder().Ethernet(lib.DmacA, 2, pkt.EtherTypeIPv4).
		IPv4(pkt.IPv4Opts{TTL: 64, Protocol: 6, Src: 1, Dst: lib.NetA | 1}).TCP(1, 80).Bytes()
}

// breakForward gives forward_tbl an entry for next hop A with one
// argument where the action takes three: state the control schema
// refuses, so it goes in beneath the schema.
func breakForward(sw *microp4.Switch) {
	sw.AddEntry("l3_i.ipv4_i.ipv4_lpm_tbl", []microp4.Key{microp4.LPM(lib.NetA, 8)}, "l3_i.ipv4_i.process", lib.NhA)
	sw.ClearTable("forward_tbl")
	sw.InstallUnchecked("forward_tbl", []microp4.Key{microp4.Exact(lib.NhA)}, "forward", lib.DmacA)
}

// TestErroredPacketsAreCounted sends packets that end in a *TableError
// through both engines, one at a time and as a 2-worker batch. Each is a
// packet the switch received: it must show in the packet, rx-port,
// rx-byte and latency series beside the error counter, and its span
// must carry the error and the time spent.
func TestErroredPacketsAreCounted(t *testing.T) {
	const n, inPort = 8, 3
	const wantErr = "table forward_tbl: action forward: takes 3 args, got 1"
	dp := compileLib(t, "P4")
	in := routedV4()
	for name, engine := range map[string]microp4.Engine{"compiled": microp4.EngineCompiled, "reference": microp4.EngineReference} {
		for _, workers := range []int{0, 2} { // 0: serial ProcessHop
			t.Run(fmt.Sprintf("%s/workers=%d", name, workers), func(t *testing.T) {
				sw := dp.NewSwitchWith(engine)
				breakForward(sw)
				sw.EnableMetrics()
				rec := trace.NewRecorder(64)
				sw.SetTracing(rec)
				var errs []error
				if workers == 0 {
					for i := 0; i < n; i++ {
						_, _, err := sw.ProcessHop(in, inPort, trace.HopContext{TraceID: uint64(i + 1), Node: "s1"})
						errs = append(errs, err)
					}
				} else {
					sw.SetWorkers(workers)
					batch := make([][]byte, n)
					for i := range batch {
						batch[i] = in
					}
					for _, r := range sw.ProcessBatch(batch, inPort) {
						errs = append(errs, r.Err)
					}
				}
				for i, err := range errs {
					if err == nil || err.Error() != wantErr {
						t.Fatalf("packet %d: error %v, want %q", i, err, wantErr)
					}
				}
				got := counterSnapshot(t, sw)
				for series, want := range map[string]uint64{
					"up4_table_errors_total[]":                n,
					"up4_switch_packets_total[]":              n,
					"up4_port_rx_packets_total[port=3]":       n,
					"up4_port_rx_bytes_total[port=3]":         uint64(n * len(in)),
					"up4_packet_latency_ns[]_count":           n,
					"up4_switch_drops_total[]":                0,
					"up4_table_hits_total[table=forward_tbl]": n,
				} {
					if got[series] != want {
						t.Errorf("%s = %d, want %d", series, got[series], want)
					}
				}
				spans := rec.Spans()
				if len(spans) != n {
					t.Fatalf("%d spans recorded, want %d", len(spans), n)
				}
				for _, sp := range spans {
					if h := sp.Hop; h.Disposition != "error" || h.Err != wantErr || h.ExecNs <= 0 {
						t.Errorf("span %d: disposition %q, err %q, %d ns; want error, the error text and a wall time",
							sp.SpanID, h.Disposition, h.Err, h.ExecNs)
					}
				}
			})
		}
	}
}

// missSrc applies a table that declares no default action: a lookup
// that matches nothing is a miss, not a default.
const missSrc = `
struct empty_t { }
header eth_h { bit<48> dstMac; bit<48> srcMac; bit<16> etherType; }
struct hdr_t { eth_h eth; }
program Miss : implements Unicast {
  parser P(extractor ex, pkt p, out hdr_t h, inout empty_t m, im_t im) {
    state start { ex.extract(p, h.eth); transition accept; }
  }
  control C(pkt p, inout hdr_t h, inout empty_t m, im_t im) {
    action unicast(bit<9> port) { im.set_out_port(port); }
    table dmac_tbl {
      key = { h.eth.dstMac : exact; }
      actions = { unicast; }
    }
    apply { dmac_tbl.apply(); }
  }
  control D(emitter em, pkt p, in hdr_t h) { apply { em.emit(p, h.eth); } }
}
Miss(P, C, D) main;
`

// observed collects every name a switch's observation path emits.
type observed struct {
	t     *testing.T
	names map[string]bool
}

// attach turns on metrics, a subscriber and a span recorder and returns
// how to send a packet; call the returned done once the traffic is
// through to fold in the series and span names.
func (o *observed) attach(sw *microp4.Switch) (send func([]byte), done func()) {
	reg := sw.EnableMetrics()
	rec := trace.NewRecorder(256)
	sw.SetTracing(rec)
	sw.Subscribe(func(e microp4.TraceEvent) { o.names["event "+e.Kind] = true })
	var tick uint64
	send = func(p []byte) {
		tick++
		// Errors are part of the catalogue (a table error is driven on
		// purpose); the span and the counters say which.
		_, _, _ = sw.ProcessHop(p, 1, trace.HopContext{TraceID: tick, Node: "s", Tick: tick})
	}
	done = func() {
		var buf bytes.Buffer
		if err := reg.WriteJSON(&buf); err != nil {
			o.t.Fatal(err)
		}
		var doc struct {
			Metrics []struct {
				Name   string            `json:"name"`
				Labels map[string]string `json:"labels"`
			} `json:"metrics"`
		}
		if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
			o.t.Fatal(err)
		}
		for _, m := range doc.Metrics {
			keys := make([]string, 0, len(m.Labels))
			for k := range m.Labels {
				keys = append(keys, k)
			}
			sort.Strings(keys)
			o.names[fmt.Sprintf("series %s{%s}", m.Name, strings.Join(keys, ","))] = true
		}
		for _, sp := range rec.Spans() {
			raw, err := json.Marshal(sp.Hop)
			if err != nil {
				o.t.Fatal(err)
			}
			var hop map[string]json.RawMessage
			if err := json.Unmarshal(raw, &hop); err != nil {
				o.t.Fatal(err)
			}
			for field := range hop {
				o.names["hop "+field] = true
			}
			var steps []map[string]string
			if err := json.Unmarshal(hop["Tables"], &steps); err != nil {
				o.t.Fatal(err)
			}
			for _, s := range steps {
				for field := range s {
					o.names["hop.Tables "+field] = true
				}
				o.names["outcome "+s["outcome"]] = true
			}
			o.names["disposition "+sp.Hop.Disposition] = true
		}
	}
	return send, done
}

// TestObservationCatalogue drives forward, drop, parser reject, a table
// miss, multicast, recirculation (within and beyond the budget), a table
// error and flowtable learns through switches with every observer
// attached, and requires the names emitted — metric series with their
// label keys, trace event kinds, hop-span fields, dispositions and
// lookup outcomes — to be exactly those in testdata/catalogue.golden,
// the list DESIGN.md "Observation" documents. Re-record with
// UPDATE_GOLDEN=1 after adding a name there.
func TestObservationCatalogue(t *testing.T) {
	o := &observed{t: t, names: map[string]bool{}}
	drive := func(sw *microp4.Switch, pkts ...[]byte) {
		send, done := o.attach(sw)
		for _, p := range pkts {
			send(p)
		}
		done()
	}
	custom := func(file, src string) *microp4.Dataplane {
		main, err := microp4.CompileModule(file, src)
		if err != nil {
			t.Fatal(err)
		}
		dp, err := microp4.Build(main)
		if err != nil {
			t.Fatal(err)
		}
		return dp
	}
	unrouted := pkt.NewBuilder().Ethernet(lib.DmacA, 2, pkt.EtherTypeIPv4).
		IPv4(pkt.IPv4Opts{TTL: 64, Protocol: 6, Src: 1, Dst: 0x7F000001}).TCP(1, 80).Bytes()
	for _, engine := range []microp4.Engine{microp4.EngineCompiled, microp4.EngineReference} {
		// P4: forward, drop, parser reject (a packet cut inside its IPv4
		// header), then the table error.
		p4 := compileLib(t, "P4").NewSwitchWith(engine)
		p4.AddEntry("l3_i.ipv4_i.ipv4_lpm_tbl", []microp4.Key{microp4.LPM(lib.NetA, 8)}, "l3_i.ipv4_i.process", lib.NhA)
		p4.AddEntry("forward_tbl", []microp4.Key{microp4.Exact(lib.NhA)}, "forward", lib.DmacA, lib.SmacA, lib.PortA)
		drive(p4, routedV4(), unrouted, routedV4()[:20])
		breakForward(p4)
		drive(p4, routedV4())
	}
	for _, prog := range []string{"P9", "P11"} { // flowtable learns
		sw, err := perf.Switch(prog)
		if err != nil {
			t.Fatal(err)
		}
		drive(sw, perf.TrafficFor(prog)[:8]...)
	}
	flood := custom("flood.up4", multicastSrc).NewSwitch()
	flood.SetMulticastGroup(1, 2, 3, 4)
	drive(flood, pkt.NewBuilder().Ethernet(0xFFFFFFFFFFFF, 5, 0x0800).Payload([]byte("x")).Bytes())
	drive(custom("loop.up4", recircSrc).NewSwitch(), []byte{3, 0xAB, 0xCD}, []byte{200, 0x11, 0x22})
	drive(custom("miss.up4", missSrc).NewSwitch(), pkt.NewBuilder().Ethernet(1, 5, 0x0800).Payload([]byte("x")).Bytes())

	emitted := make([]string, 0, len(o.names))
	for name := range o.names {
		emitted = append(emitted, name)
	}
	sort.Strings(emitted)
	got := strings.Join(emitted, "\n") + "\n"
	golden := filepath.Join("testdata", "catalogue.golden")
	if os.Getenv("UPDATE_GOLDEN") != "" {
		if err := os.WriteFile(golden, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("%v (run with UPDATE_GOLDEN=1 to create it)", err)
	}
	catalogued := map[string]bool{}
	for _, name := range strings.Split(strings.TrimSpace(string(want)), "\n") {
		catalogued[name] = true
		if !o.names[name] {
			t.Errorf("catalogued but not emitted: %s", name)
		}
	}
	for _, name := range emitted {
		if !catalogued[name] {
			t.Errorf("emitted but not catalogued: %s", name)
		}
	}
}
