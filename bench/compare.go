package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
)

// verdict is -compare's judgement of one workload x metric row.
type verdict string

const (
	verdictOK         verdict = "ok"
	verdictRegressed  verdict = "regressed"
	verdictUnresolved verdict = "unresolved" // spread wider than the bound
)

// row is one compared workload x metric pair. Diff is how much worse b
// is than a: a share of a for relative bounds, an absolute amount for
// absolute ones; negative means better.
type row struct {
	Workload, Metric string
	A, B             float64
	Diff             float64
	Spread           float64 // the wider of the two sides' round-to-round spreads
	Bound            float64
	Abs              bool
	Verdict          verdict
}

// worseBy returns how much worse b is than a for a metric whose better
// direction is given: positive when b is worse.
func worseBy(better string, a, b float64, abs bool) float64 {
	d := b - a
	if better == higher {
		d = a - b
	}
	if abs {
		return d
	}
	if a == 0 {
		if d == 0 {
			return 0
		}
		return math.Inf(sign(d))
	}
	return d / math.Abs(a)
}

func sign(x float64) int {
	if x < 0 {
		return -1
	}
	return 1
}

// allBetter reports whether every sample of b reads strictly better
// than every sample of a.
func allBetter(better string, a, b []float64) bool {
	if len(a) == 0 || len(b) == 0 {
		return false
	}
	minA, maxA := minMax(a)
	minB, maxB := minMax(b)
	if better == higher {
		return minB > maxA
	}
	return maxB < minA
}

// allWorse is allBetter with the sides exchanged.
func allWorse(better string, a, b []float64) bool { return allBetter(better, b, a) }

func minMax(xs []float64) (lo, hi float64) {
	lo, hi = xs[0], xs[0]
	for _, x := range xs[1:] {
		lo, hi = math.Min(lo, x), math.Max(hi, x)
	}
	return lo, hi
}

// judgeMetric applies the benchmark's rule to one pair. The row is
// regressed when b is worse than a by more than the bound — unless the
// spread is wider than the bound and the two sides' samples overlap, in
// which case the difference cannot be told from noise and the row is
// unresolved. A noisy row whose samples do not overlap is resolved by
// that: all of b better is ok, all of b worse is judged by the bound
// like a quiet row.
func judgeMetric(def e2eDef, workload string, a, b metricValue) row {
	r := row{Workload: workload, Metric: def.Name, A: a.Value, B: b.Value, Bound: def.Bound, Abs: def.Abs,
		Diff: worseBy(def.Better, a.Value, b.Value, def.Abs), Verdict: verdictOK}
	r.Spread = math.Max(spread(a.Samples), spread(b.Samples))
	if def.Abs {
		// Absolute bounds guard counts (allocations, failures); their
		// spread is in the same absolute terms.
		r.Spread = math.Max(iqr(a.Samples), iqr(b.Samples))
	}
	noisy := r.Spread > def.Bound
	switch {
	case noisy && allBetter(def.Better, a.Samples, b.Samples):
	case noisy && !allWorse(def.Better, a.Samples, b.Samples):
		r.Verdict = verdictUnresolved
	case r.Diff > def.Bound:
		r.Verdict = verdictRegressed
	}
	return r
}

func iqr(xs []float64) float64 {
	if len(xs) < 2 {
		return 0
	}
	return percentile(xs, 0.75) - percentile(xs, 0.25)
}

// judgeSuites compares two suite results row by row. A workload or
// metric present on one side only is reported as regressed: a number
// that disappeared cannot be called unchanged.
func judgeSuites(a, b *suiteResult) []row {
	var rows []row
	bw := map[string]*result{}
	for _, r := range b.Workloads {
		bw[r.Workload] = r
	}
	for _, ra := range a.Workloads {
		rb := bw[ra.Workload]
		for _, def := range e2eDefs {
			ma, okA := ra.Metrics[def.Name]
			if !okA {
				continue
			}
			var mb metricValue
			okB := rb != nil
			if okB {
				mb, okB = rb.Metrics[def.Name]
			}
			if !okB {
				rows = append(rows, row{Workload: ra.Workload, Metric: def.Name, A: ma.Value, B: math.NaN(), Verdict: verdictRegressed})
				continue
			}
			rows = append(rows, judgeMetric(def, ra.Workload, ma, mb))
		}
	}
	return rows
}

// exactDiffs lists the exact per-layer counts that differ between two
// traced results (they must repeat bit for bit per seed).
func exactDiffs(a, b *suiteResult) []string {
	if len(a.Layers) == 0 || len(b.Layers) == 0 {
		return nil
	}
	var out []string
	for _, l := range layerDefs() {
		if !l.Exact {
			continue
		}
		va, vb := a.Layers[l.Name], b.Layers[l.Name]
		if va.Value != vb.Value {
			out = append(out, fmt.Sprintf("%s: %v vs %v", l.Name, va.Value, vb.Value))
		}
	}
	return out
}

func printRows(w io.Writer, rows []row) {
	fmt.Fprintf(w, "%-11s %-26s %14s %14s %9s %8s %8s  %s\n", "workload", "metric", "a", "b", "worse by", "spread", "bound", "verdict")
	for _, r := range rows {
		pct := func(x float64) string {
			if r.Abs {
				return fmt.Sprintf("%+.4f", x)
			}
			return fmt.Sprintf("%+.1f%%", 100*x)
		}
		fmt.Fprintf(w, "%-11s %-26s %14.4f %14.4f %9s %8s %8s  %s\n", r.Workload, r.Metric, r.A, r.B,
			pct(r.Diff), pct(r.Spread), pct(r.Bound), r.Verdict)
	}
}

// mustResolve are the metrics on which two runs of the same code have
// to agree outright: -selfcheck fails when one of them is unresolved.
var mustResolve = map[string]bool{"pps": true, "pkt_ns_p50": true, "allocs_per_pkt": true, "fail_ratio": true,
	"txn_per_s": true, "sync_flows_per_s": true}

// judge prints the comparison of two suite results and returns the
// process exit code: non-zero on any regressed row or differing exact
// count and, with sameCode set (-selfcheck: both sides are this code on
// this machine), on an unresolved row of a mustResolve metric.
func judge(w io.Writer, a, b *suiteResult, sameCode bool) int {
	rows := judgeSuites(a, b)
	printRows(w, rows)
	counts := map[verdict]int{}
	noisy := 0
	for _, r := range rows {
		counts[r.Verdict]++
		if sameCode && r.Verdict == verdictUnresolved && mustResolve[r.Metric] {
			fmt.Fprintf(w, "too noisy to agree: %s %s\n", r.Workload, r.Metric)
			noisy++
		}
	}
	diffs := exactDiffs(a, b)
	for _, d := range diffs {
		fmt.Fprintln(w, "exact count differs:", d)
	}
	fmt.Fprintf(w, "%d rows: %d ok, %d unresolved, %d regressed; %d exact counts differ\n",
		len(rows), counts[verdictOK], counts[verdictUnresolved], counts[verdictRegressed], len(diffs))
	if counts[verdictRegressed] > 0 || len(diffs) > 0 || noisy > 0 {
		return 1
	}
	return 0
}

func loadSuite(path string) (*suiteResult, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var s suiteResult
	if err := json.Unmarshal(data, &s); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	if s.Schema != resultSchema {
		return nil, fmt.Errorf("%s: schema %q, want %q", path, s.Schema, resultSchema)
	}
	return &s, nil
}

func compareFiles(w io.Writer, pathA, pathB string, fail func(error) int) int {
	a, err := loadSuite(pathA)
	if err != nil {
		return fail(err)
	}
	b, err := loadSuite(pathB)
	if err != nil {
		return fail(err)
	}
	// Run length is the benchmark's and the same on both sides; results
	// taken with different settings measure different things.
	if a.Seed != b.Seed || a.Rounds != b.Rounds || a.RoundSecs != b.RoundSecs {
		return fail(fmt.Errorf("%s (seed %d, %d rounds of %gs) and %s (seed %d, %d rounds of %gs) were not taken with the same settings",
			pathA, a.Seed, a.Rounds, a.RoundSecs, pathB, b.Seed, b.Rounds, b.RoundSecs))
	}
	return judge(w, a, b, false)
}
