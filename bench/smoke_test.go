package main

import (
	"io"
	"math"
	"sort"
	"strings"
	"testing"
	"time"

	"microp4"
)

// wantE2E is which of the thirteen end-to-end metrics each workload
// family produces.
func wantE2E(workload string) []string {
	switch workload {
	case "ctl_ops":
		return []string{"setup_s", "fail_ratio", "txn_per_s", "commit_visible_us_p50", "cutover_stall_us_p50",
			"cutover_stall_us_p90", "sync_flows_per_s", "failover_first_pkt_us_p50"}
	case "rule_churn":
		return []string{"setup_s", "pps", "pkt_ns_p50", "pkt_ns_p90", "allocs_per_pkt", "fail_ratio", "rule_update_us_p50"}
	}
	return []string{"setup_s", "pps", "pkt_ns_p50", "pkt_ns_p90", "allocs_per_pkt", "fail_ratio"}
}

func finite(v float64) bool { return !math.IsNaN(v) && !math.IsInf(v, 0) }

// TestSmoke runs all seven workloads and the traced run at 3 rounds of
// 50 ms: zero failures, every declared metric present and finite (the
// suite's thirteen, the driver contract's subset, and every per-layer
// metric), and the exact counts identical when measured again from the
// same seed.
func TestSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the whole benchmark")
	}
	cfg := config{Seed: 3, Rounds: 3, RoundDur: 50 * time.Millisecond, Setups: 2}
	emitted := map[string]bool{}
	for _, w := range workloads() {
		res, err := runWorkload(w, &cfg)
		if err != nil {
			t.Fatalf("%s: %v", w.def.Name, err)
		}
		if res.Failed != 0 || res.Attempted == 0 {
			t.Errorf("%s: %d of %d operations failed", w.def.Name, res.Failed, res.Attempted)
		}
		want := wantE2E(w.def.Name)
		sort.Strings(want)
		if got := sortedKeys(res.Metrics); strings.Join(got, " ") != strings.Join(want, " ") {
			t.Errorf("%s emits %v, want %v", w.def.Name, got, want)
		}
		for name, m := range res.Metrics {
			emitted[name] = true
			def, _ := e2eByName(name)
			if !finite(m.Value) || m.Unit != def.Unit || m.N == 0 {
				t.Errorf("%s: %s = %v %q over %d samples", w.def.Name, name, m.Value, m.Unit, m.N)
			}
			if name != "fail_ratio" && name != "allocs_per_pkt" && m.Value <= 0 {
				t.Errorf("%s: %s = %v, want > 0", w.def.Name, name, m.Value)
			}
		}
		view, err := contractMetrics(res)
		if err != nil {
			t.Errorf("%s: %v", w.def.Name, err)
		}
		if got := sortedKeys(view); strings.Join(got, " ") != strings.Join(sortedCopy(contractNames()), " ") {
			t.Errorf("%s: driver view has %v, want %v", w.def.Name, got, contractNames())
		}
		for name, m := range view {
			if !finite(m.Value) || m.Value <= 0 || m.N != 0 || m.Samples != nil {
				t.Errorf("%s: driver view %s = %+v, want a bare positive value and unit", w.def.Name, name, m)
			}
		}
	}
	for _, def := range e2eDefs {
		if !emitted[def.Name] {
			t.Errorf("no workload emits %s", def.Name)
		}
	}

	layers, err := tracedSuite(io.Discard, cfg, "")
	if err != nil {
		t.Fatal(err)
	}
	// tracedSuite already checked the set of names against the catalogue
	// (checkLayers); what is left is that the per-workload expansion is
	// there and the trace did not distort beyond reason even at 50 ms.
	for _, w := range workloadDefs {
		m, ok := layers[traceOverheadMetric+"."+w.Name]
		if !ok || m.Value <= 0 {
			t.Errorf("trace overhead of %s = %+v", w.Name, m)
		}
	}
	if n, want := len(layers), len(layerDefs())-1+len(workloadDefs); n != want {
		t.Errorf("%d per-layer metrics, want %d", n, want)
	}

	// Exact counts depend on the seed alone: measure them again.
	again := newLayerRun(cfg)
	for _, group := range []func() error{again.compiler, again.flowTable, again.control} {
		if err := group(); err != nil {
			t.Fatal(err)
		}
	}
	for _, d := range layerDefs() {
		if !d.Exact {
			continue
		}
		second, ok := again.out[d.Name]
		if !ok {
			t.Errorf("exact count %s was not re-measured", d.Name)
			continue
		}
		if first := layers[d.Name]; first.Value != second.Value {
			t.Errorf("exact count %s: %v then %v from the same seed", d.Name, first.Value, second.Value)
		}
	}
}

// TestSanityRelations: the relations are evaluated, not just printed,
// and each one can come out either way.
func TestSanityRelations(t *testing.T) {
	layers := func(share, e1k, e64k, obs, w2 float64) map[string]metricValue {
		return map[string]metricValue{
			"tables.lookup_share.fib_64k": {Value: share}, "tables.lookup_ns.lpm_e1k": {Value: e1k},
			"tables.lookup_ns.lpm_e64k": {Value: e64k}, "obs.overhead_ratio": {Value: obs}, "switch.batch.scaling_w2": {Value: w2},
		}
	}
	for _, r := range sanityRelations(layers(0.995, 9300, 637000, 3.3, 1.35), 2) {
		if !r.Holds {
			t.Errorf("today's numbers: %s does not hold", r.Claim)
		}
	}
	// An indexed table, a cheap observation path, a pool that does not scale.
	after := sanityRelations(layers(0.30, 60, 90, 1.2, 0.9), 2)
	if len(after) != 4 {
		t.Fatalf("%d relations, want 4", len(after))
	}
	for _, r := range after {
		if r.Holds {
			t.Errorf("flattened numbers: %s still holds", r.Claim)
		}
	}
	if n := len(sanityRelations(layers(0.995, 9300, 637000, 3.3, 0.9), 1)); n != 3 {
		t.Errorf("%d relations on one cpu, want 3 (no scaling claim)", n)
	}
}

// TestStackDepthScan is the scan behind atDepth: the 64 Ki-route table
// scanned at each of the stack depths a timed loop cycles through, one
// by one. In a build where some depth aliases, that depth reads about
// twice the others (the log names it); cycling is sound as long as such
// depths are one or two of the 64, so that the cycled loop reads within a
// few percent of the typical depth in every build.
func TestStackDepthScan(t *testing.T) {
	if testing.Short() {
		t.Skip("installs 65536 routes and scans them 200 times")
	}
	_, sw, err := stdSwitch("P4", microp4.EngineCompiled)
	if err != nil {
		t.Fatal(err)
	}
	if err := installRoutes(sw, routeSet(1, fibRoutes)); err != nil {
		t.Fatal(err)
	}
	var fails int64
	scan := serial(sw, routedV4(1)[:1], 0, &fails)
	ns := make([]float64, stackLevels)
	for level := range ns {
		ns[level] = math.Inf(1)
		for try := 0; try < 3; try++ { // the fastest of three: a disturbance is not a depth
			t0 := time.Now()
			atDepth(level, scan)
			ns[level] = math.Min(ns[level], float64(time.Since(t0)))
		}
	}
	if fails > 0 {
		t.Fatalf("%d scans returned errors", fails)
	}
	typical := median(ns)
	var slow []int
	for level, v := range ns {
		if v > 1.5*typical {
			slow = append(slow, level)
			t.Logf("depth %d: %.0f us, %.2fx the typical %.0f us", level, v/1e3, v/typical, typical/1e3)
		}
	}
	if len(slow) == 0 {
		t.Logf("no slow depth in this build (typical scan %.0f us)", typical/1e3)
	}
	if len(slow) > 2 {
		t.Errorf("%d of %d depths are slow (%v): cycling no longer bounds the effect", len(slow), stackLevels, slow)
	}
	cycled := 0.0
	for _, v := range ns {
		cycled += v / float64(len(ns))
	}
	if cycled > 1.05*typical {
		t.Errorf("a loop cycling the depths reads %.3fx the typical depth, want <= 1.05x", cycled/typical)
	}
}

func sortedCopy(xs []string) []string {
	out := append([]string(nil), xs...)
	sort.Strings(out)
	return out
}
