package main

import (
	"fmt"
	"sort"
)

// This file is the benchmark's catalogue: the workloads, the end-to-end
// metrics with their regression bounds, and the per-layer metrics with
// the end-to-end metric each one is predicted to move. BENCHMARK.json
// is the driver-facing projection of it (see README.md, "Driver
// contract"), and schema_test.go keeps the two from drifting.

type workloadDef struct {
	Name string
	Why  string
}

// workloadDefs are the seven workloads, in the order the suite runs
// them. Names are fixed: later issues cite them.
var workloadDefs = []workloadDef{
	{"fwd_std", "P4 router, ~12 standard rules, serial Process: bare engine cost; bypasses lookup-scaling work, shows bit-access and dispatch work; op = one packet"},
	{"fib_64k", "same traffic with 65536 /24 routes: table lookup does over 99% of the work, so lookup structure changes show here and nowhere else; op = one packet"},
	{"rule_churn", "4096 routes with an add+probe per 32 packets and periodic clear+reinstall: table writes beside reads, punishes costly index rebuilds; op = one packet"},
	{"flow_batch", "P11 balancer, 256-packet batches on 2 workers, 80/20 hot/cold flows: flowtable extern, batch dispatch and worker pool carry the cost; op = one packet"},
	{"obs_on", "fwd_std with metrics, a trace subscriber, a span recorder and per-packet latency sampling: the observation mechanisms do most of the work; op = one packet"},
	{"net_3hop", "three P4 switches in a netsim line, bursts injected and run to quiescence: event loop, link queues and per-hop copies; op = one packet across the line"},
	{"ctl_ops", "2PC transactions over lossy links (op = one committed transaction + probe; only this phase is driver-gated), P9 cutovers, flow sync and failover (judged by -compare)"},
}

func workloadNames() []string {
	out := make([]string, len(workloadDefs))
	for i, w := range workloadDefs {
		out[i] = w.Name
	}
	return out
}

const (
	lower  = "lower"
	higher = "higher"
)

// e2eDef is one end-to-end metric. Bound is the share of the baseline
// by which it may worsen before -compare calls it regressed; with Abs
// set it is an absolute amount instead (allocation counts near zero and
// the failure ratio, where a share of zero means nothing).
type e2eDef struct {
	Name   string
	Unit   string
	Better string
	Bound  float64
	Abs    bool
	Def    string
}

// e2eDefs are the thirteen end-to-end metrics. Packet workloads report
// the first six (rule_churn adds rule_update_us_p50); ctl_ops reports
// setup_s, fail_ratio and the last six. A metric a workload does not
// produce is omitted from the suite output, never printed as 0.
var e2eDefs = []e2eDef{
	{"setup_s", "s", lower, 0.25, false, "median of the fresh set-ups: compile, Build, NewSwitch/topology, rule install"},
	{"pps", "packets/s", higher, 0.10, false, "wire bytes in to wire bytes out, median of per-round rates"},
	{"pkt_ns_p50", "ns", lower, 0.10, false, "median over passes (8 bursts, or 64 batches) of pass time / packets, all measured rounds pooled"},
	{"pkt_ns_p90", "ns", lower, 0.25, false, "90th percentile of the same samples"},
	{"allocs_per_pkt", "allocs", lower, 0.05, true, "runtime.MemStats.Mallocs delta over measured rounds / packets"},
	{"fail_ratio", "ratio", lower, 0, true, "unexpected errors, oracle mismatches, aborted or invisible control operations, lost flows / attempted"},
	{"rule_update_us_p50", "us", lower, 0.15, false, "TryAddEntry call to the return of the probe packet's Process showing the new port"},
	{"txn_per_s", "txns/s", higher, 0.10, false, "committed 2PC transactions / wall time, median of phase-A rounds"},
	{"commit_visible_us_p50", "us", lower, 0.15, false, "Transaction call to probe egress at s3"},
	{"cutover_stall_us_p50", "us", lower, 0.15, false, "CutOver + first packet on the new generation"},
	{"cutover_stall_us_p90", "us", lower, 0.25, false, "same, 90th percentile"},
	{"sync_flows_per_s", "flows/s", higher, 0.10, false, "flows learned on the active and acknowledged by the standby / wall time to quiescence"},
	{"failover_first_pkt_us_p50", "us", lower, 0.20, false, "Promote + first established-flow return packet out of the standby"},
}

func e2eByName(name string) (e2eDef, bool) {
	for _, m := range e2eDefs {
		if m.Name == name {
			return m, true
		}
	}
	return e2eDef{}, false
}

// contractDef is one end-to-end metric of the driver contract: the
// driver requires every workload to print every declared metric, none
// ever zero, each bounded as a share of the parent's value. So the
// contract declares setup_s and three measures of a workload's own unit
// of work, its "op", each taken from the suite metric named here. On the
// six packet workloads an op is one packet. On ctl_ops it is one
// committed 2PC transaction with its probe (phase A); phases B and C
// have no metric in this form, so the driver does not gate them — their
// metrics, like every other suite metric, are judged by -compare. The two
// metrics with absolute bounds cannot be declared at all (allocs_per_pkt
// is 0.0004 on flow_batch, fail_ratio is 0 everywhere); failures travel
// in the result line's attempted/failed instead.
type contractDef struct {
	Name, Unit, Better string
	Bound              float64
	Packet             string  // the suite metric behind it on a packet workload
	Ctl                string  // and on ctl_ops
	CtlScale           float64 // ctl_ops value * CtlScale is in Unit
}

// contractE2E are the end-to-end metrics BENCHMARK.json declares.
var contractE2E = []contractDef{
	{"setup_s", "s", lower, 0.25, "setup_s", "setup_s", 1},
	{"ops_per_s", "1/s", higher, 0.10, "pps", "txn_per_s", 1},
	{"op_ns_p50", "ns", lower, 0.10, "pkt_ns_p50", "commit_visible_us_p50", 1e3},
	{"op_ns_p90", "ns", lower, 0.25, "pkt_ns_p90", "commit_visible_us_p90", 1e3},
}

func contractNames() []string {
	out := make([]string, len(contractE2E))
	for i, c := range contractE2E {
		out[i] = c.Name
	}
	return out
}

// target names the end-to-end metric, on a workload, that a per-layer
// metric is predicted to move.
type target struct {
	Metric   string
	Workload string
}

// layerDef is one per-layer metric, measured only in the traced run.
type layerDef struct {
	Name   string
	Unit   string
	Better string
	Layer  string
	Exact  bool     // must repeat bit-for-bit per seed
	Moves  []target // the interaction table: what it should move, where
}

func mv(metric string, workloads ...string) []target {
	var out []target
	for _, w := range workloads {
		out = append(out, target{metric, w})
	}
	return out
}

func join(ts ...[]target) []target {
	var out []target
	for _, t := range ts {
		out = append(out, t...)
	}
	return out
}

var allPrograms = []string{"P1", "P2", "P3", "P4", "P5", "P6", "P7", "P8", "P9", "P10", "P11"}

// traceOverheadMetric is the benchmark's own layer metric: traced over
// untraced pkt_ns_p50 of the workload being run. The suite's traced run
// reports it once per workload as traceOverheadMetric + "." + name.
const traceOverheadMetric = "bench.trace_overhead_ratio"

// layerDefs builds the per-layer catalogue. Every entry names what it
// should move; entries predicted to move nothing at run time (guards)
// point at setup_s.
func layerDefs() []layerDef {
	everySetup := mv("setup_s", workloadNames()...)
	var d []layerDef
	add := func(name, unit, better, layer string, exact bool, moves []target) {
		d = append(d, layerDef{name, unit, better, layer, exact, moves})
	}

	add("frontend.compile_ms.all", "ms", lower, "frontend", false, everySetup)
	add("frontend.compile_ms.P10", "ms", lower, "frontend", false, everySetup)
	add("midend.build_ms.all", "ms", lower, "midend", false, everySetup)
	add("midend.build_ms.P10", "ms", lower, "midend", false, everySetup)
	for _, p := range []string{"P4", "P10"} {
		add("mat.tables."+p, "count", lower, "mat", true, everySetup)
		add("mat.const_entries."+p, "count", lower, "mat", true, mv("pkt_ns_p50", "fwd_std"))
	}
	add("tna.report_ms.P4", "ms", lower, "backend/tna", false, mv("setup_s", "fwd_std"))

	for _, p := range allPrograms {
		moves := mv("setup_s", "fwd_std") // guard cells: no workload runs this program
		switch p {
		case "P4":
			moves = join(mv("pkt_ns_p50", "fwd_std", "obs_on", "net_3hop"), mv("pps", "fwd_std"))
		case "P9":
			moves = mv("cutover_stall_us_p50", "ctl_ops")
		case "P11":
			moves = join(mv("pkt_ns_p50", "flow_batch"), mv("pps", "flow_batch"))
		}
		add("sim.exec.ns_per_pkt."+p, "ns", lower, "sim", false, moves)
	}
	for _, c := range []string{"size64", "size1500", "reject"} {
		add("sim.exec.ns_per_pkt."+c, "ns", lower, "sim", false, mv("pkt_ns_p50", "fwd_std"))
	}
	add("sim.interp.ns_per_pkt.P4", "ns", lower, "sim", false, mv("setup_s", "fwd_std"))
	add("sim.interp.ns_per_pkt.P10", "ns", lower, "sim", false, mv("setup_s", "fwd_std"))
	add("sim.newswitch_ms.P10", "ms", lower, "sim", false, everySetup)

	fib := join(mv("pps", "fib_64k"), mv("pkt_ns_p50", "fib_64k"), mv("pkt_ns_p90", "fib_64k"))
	add("tables.lookup_ns.lpm_e16", "ns", lower, "sim.Tables", false, mv("pkt_ns_p50", "fwd_std"))
	add("tables.lookup_ns.lpm_e1k", "ns", lower, "sim.Tables", false, mv("pkt_ns_p50", "rule_churn"))
	add("tables.lookup_ns.lpm_e64k", "ns", lower, "sim.Tables", false, fib)
	add("tables.lookup_ns.miss_e1k", "ns", lower, "sim.Tables", false, mv("pkt_ns_p50", "rule_churn"))
	add("tables.lookup_ns.exact_e1k", "ns", lower, "sim.Tables", false, mv("pkt_ns_p50", "flow_batch"))
	add("tables.lookup_ns.ternary_e1k", "ns", lower, "sim.Tables", false, mv("pkt_ns_p50", "flow_batch"))
	writes := join(mv("rule_update_us_p50", "rule_churn"), mv("pps", "rule_churn"), mv("setup_s", "fib_64k"))
	add("tables.add_entry_ns.e1k", "ns", lower, "sim.Tables", false, writes)
	add("tables.add_entry_ns.e64k", "ns", lower, "sim.Tables", false, writes)
	add("tables.clear_us.e64k", "us", lower, "sim.Tables", false, writes)
	snap := join(mv("txn_per_s", "ctl_ops"), mv("commit_visible_us_p50", "ctl_ops"))
	add("tables.checkpoint_us.e64k", "us", lower, "sim.Tables", false, snap)
	add("tables.restore_us.e64k", "us", lower, "sim.Tables", false, snap)
	add("tables.lookup_share.fib_64k", "ratio", lower, "sim.Tables", false, fib)

	fb := join(mv("pps", "flow_batch"), mv("pkt_ns_p50", "flow_batch"))
	add("flow.upsert_hit_ns", "ns", lower, "flow", false, fb)
	add("flow.upsert_churn_ns.4k", "ns", lower, "flow", false, fb)
	add("flow.upsert_churn_ns.64k", "ns", lower, "flow", false, fb)
	add("flow.stick_ns", "ns", lower, "flow", false, fb)
	add("flow.lookup_ns", "ns", lower, "flow", false, fb)
	add("flow.advance_ns", "ns", lower, "flow", false, fb)
	add("flow.snapshot_us.4k", "us", lower, "flow", false,
		join(mv("cutover_stall_us_p50", "ctl_ops"), mv("cutover_stall_us_p90", "ctl_ops")))
	add("flow.unsynced_us.4k", "us", lower, "flow", false,
		join(mv("sync_flows_per_s", "ctl_ops"), mv("failover_first_pkt_us_p50", "ctl_ops")))
	add("flow.hit_ratio.flow_batch", "ratio", higher, "flow", true, fb)

	add("switch.batch.ns_per_pkt.w1", "ns", lower, "microp4", false, fb)
	add("switch.batch.ns_per_pkt.w2", "ns", lower, "microp4", false, fb)
	add("switch.batch.scaling_w2", "ratio", higher, "microp4", false, fb)
	add("switch.batch.dispatch_ns", "ns", lower, "microp4", false, fb)
	add("switch.pkt_ns_p99.fwd_std", "ns", lower, "microp4", false, mv("pkt_ns_p90", "fwd_std"))
	cut := join(mv("cutover_stall_us_p50", "ctl_ops"), mv("cutover_stall_us_p90", "ctl_ops"))
	add("switch.stage_generation_us", "us", lower, "microp4", false, cut)
	add("switch.cutover_us", "us", lower, "microp4", false, cut)
	add("switch.checkpoint_us.4k", "us", lower, "microp4", false, snap)
	add("switch.restore_us.4k", "us", lower, "microp4", false, snap)
	add("switch.canary_mirror_ns", "ns", lower, "microp4", false, cut)

	ob := join(mv("pkt_ns_p50", "obs_on"), mv("pkt_ns_p90", "obs_on"), mv("pps", "obs_on"))
	oa := mv("allocs_per_pkt", "obs_on")
	add("obs.metrics_overhead_ns", "ns", lower, "obs", false, ob)
	add("obs.bus_overhead_ns", "ns", lower, "obs", false, ob)
	add("trace.hop_overhead_ns", "ns", lower, "trace", false, ob)
	add("obs.allocs_per_pkt.metrics", "allocs", lower, "obs", false, oa)
	add("obs.allocs_per_pkt.bus", "allocs", lower, "obs", false, oa)
	add("trace.allocs_per_pkt.hop", "allocs", lower, "trace", false, oa)
	add("obs.overhead_ratio", "ratio", lower, "obs", false, ob)
	add("obs.scrape_ms", "ms", lower, "obs", false, mv("setup_s", "obs_on"))

	nh := join(mv("pps", "net_3hop"), mv("pkt_ns_p50", "net_3hop"))
	add("netsim.run.ns_per_hop.noop", "ns", lower, "netsim", false, nh)
	add("netsim.run.ns_per_hop.lossy", "ns", lower, "netsim", false,
		join(mv("txn_per_s", "ctl_ops"), mv("sync_flows_per_s", "ctl_ops")))
	add("netsim.allocs_per_hop", "allocs", lower, "netsim", false, mv("allocs_per_pkt", "net_3hop"))
	add("netsim.share.net_3hop", "ratio", lower, "netsim", false, nh)

	txn := join(mv("txn_per_s", "ctl_ops"), mv("commit_visible_us_p50", "ctl_ops"))
	add("ctrlplane.txn_us.lossless", "us", lower, "ctrlplane", false, txn)
	add("ctrlplane.txn.ticks_p50", "count", lower, "ctrlplane", true, txn)
	add("ctrlplane.txn.frames_per_txn", "count", lower, "ctrlplane", true, txn)
	add("ctrlplane.txn.retries_per_txn", "count", lower, "ctrlplane", true, txn)
	add("ctrlplane.txn.timeouts_per_txn", "count", lower, "ctrlplane", true, txn)
	syn := mv("sync_flows_per_s", "ctl_ops")
	add("ctrlplane.sync_us_per_flow.lossless", "us", lower, "ctrlplane", false, syn)
	add("ctrlplane.replica.rounds", "count", lower, "ctrlplane", true, syn)
	add("ctrlplane.replica.resyncs", "count", lower, "ctrlplane", true, syn)
	add("ctrlplane.standby.applied", "count", lower, "ctrlplane", true, syn)

	add(traceOverheadMetric, "ratio", lower, "bench", false, mv("pkt_ns_p50", workloadNames()...))
	return d
}

// checkCatalog verifies the catalogue is self-consistent: unique names,
// known directions, and every layer metric pointing at an end-to-end
// metric and workload that exist.
func checkCatalog() error {
	seen := map[string]bool{}
	note := func(name string) error {
		if seen[name] {
			return fmt.Errorf("catalogue: name %q used twice", name)
		}
		seen[name] = true
		return nil
	}
	wl := map[string]bool{}
	for _, w := range workloadDefs {
		if err := note(w.Name); err != nil {
			return err
		}
		wl[w.Name] = true
	}
	for _, m := range e2eDefs {
		if err := note(m.Name); err != nil {
			return err
		}
		if m.Better != lower && m.Better != higher {
			return fmt.Errorf("catalogue: %s: direction %q", m.Name, m.Better)
		}
	}
	for _, l := range layerDefs() {
		if err := note(l.Name); err != nil {
			return err
		}
		if len(l.Moves) == 0 {
			return fmt.Errorf("catalogue: layer metric %s names nothing it should move", l.Name)
		}
		for _, t := range l.Moves {
			if _, ok := e2eByName(t.Metric); !ok || !wl[t.Workload] {
				return fmt.Errorf("catalogue: layer metric %s moves unknown %s on %s", l.Name, t.Metric, t.Workload)
			}
		}
	}
	return nil
}

func sortedKeys[V any](m map[string]V) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}
