package main

import (
	"bytes"
	"io"
	"math"
	"path/filepath"
	"strings"
	"testing"
	"time"
)

func near(a, b float64) bool { return math.Abs(a-b) <= 1e-9*math.Max(1, math.Abs(b)) }

func TestMedianAndPercentile(t *testing.T) {
	if !math.IsNaN(median(nil)) {
		t.Error("median of nothing should be NaN")
	}
	for _, c := range []struct {
		xs   []float64
		p    float64
		want float64
	}{
		{[]float64{5}, 0.5, 5},
		{[]float64{3, 1, 2}, 0.5, 2},
		{[]float64{4, 1, 3, 2}, 0.5, 2.5},
		{[]float64{1, 2, 3, 4, 5}, 0, 1},
		{[]float64{1, 2, 3, 4, 5}, 1, 5},
		{[]float64{1, 2, 3, 4, 5}, 0.9, 4.6},
		{[]float64{10, 20}, 0.25, 12.5},
	} {
		if got := percentile(c.xs, c.p); !near(got, c.want) {
			t.Errorf("percentile(%v, %v) = %v, want %v", c.xs, c.p, got, c.want)
		}
	}
	xs := []float64{3, 1, 2}
	median(xs)
	if xs[0] != 3 || xs[1] != 1 || xs[2] != 2 {
		t.Errorf("median reordered its input: %v", xs)
	}
}

// TestTailRule: a percentile is reported only when at least ten samples
// lie beyond it.
func TestTailRule(t *testing.T) {
	for _, c := range []struct {
		n    int
		p    float64
		want bool
	}{
		{999, 0.99, false}, {1000, 0.99, true}, {99, 0.9, false}, {100, 0.9, true}, {20, 0.5, true}, {19, 0.5, false},
	} {
		if got := supports(c.n, c.p); got != c.want {
			t.Errorf("supports(%d, %v) = %v, want %v", c.n, c.p, got, c.want)
		}
	}
	var few, many timing
	few.startRound()
	many.startRound()
	for i := 0; i < 999; i++ {
		few.add(float64(i))
	}
	for i := 0; i < 1000; i++ {
		many.add(float64(i))
	}
	if s := few.summarize(); !math.IsNaN(s.P99) {
		t.Errorf("p99 over 999 samples reported as %v", s.P99)
	}
	if s := many.summarize(); math.IsNaN(s.P99) || s.P99 < 980 {
		t.Errorf("p99 over 1000 samples = %v", s.P99)
	}
}

// TestRoundAggregation: percentiles pool every burst of every round;
// the per-round medians are kept beside them for spread.
func TestRoundAggregation(t *testing.T) {
	var tm timing
	tm.startRound()
	for _, v := range []float64{1, 2, 3} {
		tm.add(v)
	}
	tm.startRound()
	for _, v := range []float64{10, 20, 30, 40, 50} {
		tm.add(v)
	}
	tm.startRound() // a round that produced nothing is skipped, not a zero
	s := tm.summarize()
	if s.N != 8 {
		t.Errorf("pooled N = %d, want 8", s.N)
	}
	if !near(s.P50, 15) { // pooled 1 2 3 10 20 30 40 50
		t.Errorf("pooled p50 = %v, want 15", s.P50)
	}
	if len(s.RoundP50) != 2 || s.RoundP50[0] != 2 || s.RoundP50[1] != 30 {
		t.Errorf("per-round medians = %v, want [2 30]", s.RoundP50)
	}
	if got := scale([]float64{1000, 2500}, 1e-3); got[0] != 1 || got[1] != 2.5 {
		t.Errorf("scale = %v", got)
	}
}

// TestPassSampling: a timing sample is one whole pass of bursts; an
// unfinished pass is dropped at the next round's start, and kept only by
// a round that finished none.
func TestPassSampling(t *testing.T) {
	rec := &recorder{pass: 4}
	rec.startRound()
	for _, ns := range []time.Duration{100, 200, 300, 400, 500, 500, 500, 500, 900} {
		rec.burst(ns*10, 10)
	}
	rec.endRound()
	rec.startRound() // the 900 burst's pass is dropped here
	rec.burst(70, 10)
	rec.endRound() // too short for one pass: kept as the round's one sample
	want := [][]float64{{250, 500}, {7}}
	for r, round := range rec.pkt.rounds {
		if len(round) != len(want[r]) {
			t.Fatalf("samples by round = %v, want %v", rec.pkt.rounds, want)
		}
		for i := range round {
			if !near(round[i], want[r][i]) {
				t.Errorf("round %d sample %d = %v, want %v", r, i, round[i], want[r][i])
			}
		}
	}
	if rec.packets != 10 {
		t.Errorf("packets this round = %d, want 10", rec.packets)
	}
}

func TestSpread(t *testing.T) {
	if s := spread([]float64{7}); s != 0 {
		t.Errorf("spread of one sample = %v", s)
	}
	// quartiles of 1..5 are 2 and 4, median 3.
	if s := spread([]float64{1, 2, 3, 4, 5}); !near(s, 2.0/3) {
		t.Errorf("spread = %v, want 2/3", s)
	}
}

func TestWorseByBothDirections(t *testing.T) {
	for _, c := range []struct {
		better string
		a, b   float64
		abs    bool
		want   float64
	}{
		{lower, 100, 110, false, 0.10},   // latency up 10 %: worse
		{lower, 100, 90, false, -0.10},   // latency down: better
		{higher, 100, 90, false, 0.10},   // rate down 10 %: worse
		{higher, 100, 120, false, -0.20}, // rate up: better
		{lower, 0.01, 0.07, true, 0.06},  // absolute: allocations up by 0.06
		{lower, 0, 0, false, 0},
	} {
		if got := worseBy(c.better, c.a, c.b, c.abs); !near(got, c.want) {
			t.Errorf("worseBy(%s, %v, %v, abs=%v) = %v, want %v", c.better, c.a, c.b, c.abs, got, c.want)
		}
	}
	if got := worseBy(lower, 0, 1, false); !math.IsInf(got, 1) {
		t.Errorf("worse than a zero baseline = %v, want +Inf", got)
	}
}

func mvOf(v float64, samples ...float64) metricValue {
	return metricValue{Value: v, Samples: samples}
}

func TestJudgeMetric(t *testing.T) {
	pps, _ := e2eByName("pps")           // higher is better, 10 %
	p50, _ := e2eByName("pkt_ns_p50")    // lower is better, 10 %
	al, _ := e2eByName("allocs_per_pkt") // lower, +0.05 absolute
	fr, _ := e2eByName("fail_ratio")     // lower, +0 absolute
	tight := func(v float64) metricValue { return mvOf(v, v*0.99, v, v*1.01) }
	for _, c := range []struct {
		name string
		def  e2eDef
		a, b metricValue
		want verdict
	}{
		{"rate within bound", pps, tight(1000), tight(950), verdictOK},
		{"rate down 20 %", pps, tight(1000), tight(800), verdictRegressed},
		{"rate up 20 %", pps, tight(1000), tight(1200), verdictOK},
		{"latency up 20 %", p50, tight(1000), tight(1200), verdictRegressed},
		{"latency down 20 %", p50, tight(1000), tight(800), verdictOK},
		{"noisy and overlapping", p50, mvOf(1000, 700, 1000, 1300, 1600), mvOf(1050, 800, 1050, 1400, 1500), verdictUnresolved},
		{"noisy but every sample better", p50, mvOf(1000, 800, 1000, 1400, 1500), mvOf(500, 300, 500, 600, 700), verdictOK},
		{"noisy and every sample worse", p50, mvOf(1000, 800, 1000, 1400, 1500), mvOf(3000, 2000, 3000, 3600, 4200), verdictRegressed},
		{"noisy rate, every sample worse", pps, mvOf(1000, 700, 1000, 1300, 1600), mvOf(300, 200, 300, 400, 500), verdictRegressed},
		{"allocations +0.01", al, mvOf(0.0004, 0.0004, 0.0004), mvOf(0.0104, 0.0104, 0.0104), verdictOK},
		{"allocations +0.5", al, mvOf(1.9, 1.9, 1.9), mvOf(2.4, 2.4, 2.4), verdictRegressed},
		{"any failure at all", fr, mvOf(0), mvOf(1e-6), verdictRegressed},
		{"still no failures", fr, mvOf(0), mvOf(0), verdictOK},
	} {
		if got := judgeMetric(c.def, "w", c.a, c.b); got.Verdict != c.want {
			t.Errorf("%s: %s (worse by %v, spread %v), want %s", c.name, got.Verdict, got.Diff, got.Spread, c.want)
		}
	}
}

// TestJudgeSuites: a metric that vanished is a regression, and the exit
// code follows the verdicts.
func TestJudgeSuites(t *testing.T) {
	mk := func(pps float64, withP50 bool) *suiteResult {
		r := newResult("fwd_std")
		r.set("pps", pps, 3, []float64{pps, pps, pps})
		if withP50 {
			r.set("pkt_ns_p50", 1000, 3, []float64{1000, 1000, 1000})
		}
		return &suiteResult{Schema: resultSchema, Workloads: []*result{r}}
	}
	rows := judgeSuites(mk(1000, true), mk(1000, true))
	if len(rows) != 2 || rows[0].Verdict != verdictOK || rows[1].Verdict != verdictOK {
		t.Errorf("identical suites: %+v", rows)
	}
	rows = judgeSuites(mk(1000, true), mk(1000, false))
	if rows[1].Verdict != verdictRegressed {
		t.Errorf("vanished metric judged %s", rows[1].Verdict)
	}
	if code := judge(io.Discard, mk(1000, true), mk(700, true), false); code == 0 {
		t.Error("a 30 % rate drop exited 0")
	}
	if code := judge(io.Discard, mk(1000, true), mk(1010, true), false); code != 0 {
		t.Error("an unchanged suite exited non-zero")
	}

	// Two runs of the same code must agree on the mustResolve metrics: an
	// unresolved pps fails -selfcheck, an unresolved pkt_ns_p90 does not,
	// and -compare fails on neither.
	noisy := func(metric string) *suiteResult {
		r := newResult("fwd_std")
		r.set(metric, 1000, 4, []float64{600, 1000, 1400, 1800})
		return &suiteResult{Schema: resultSchema, Workloads: []*result{r}}
	}
	for _, c := range []struct {
		metric   string
		sameCode bool
		want     int
	}{
		{"pps", true, 1}, {"pps", false, 0}, {"pkt_ns_p90", true, 0},
	} {
		if code := judge(io.Discard, noisy(c.metric), noisy(c.metric), c.sameCode); code != c.want {
			t.Errorf("unresolved %s, same code %v: exit %d, want %d", c.metric, c.sameCode, code, c.want)
		}
	}
}

// TestCompareRefusesOtherSettings: result files taken with another seed,
// round count or round length are not compared.
func TestCompareRefusesOtherSettings(t *testing.T) {
	dir := t.TempDir()
	write := func(name string, s suiteResult) string {
		s.Schema = resultSchema
		path := filepath.Join(dir, name)
		if err := writeJSONFile(path, &s); err != nil {
			t.Fatal(err)
		}
		return path
	}
	base := suiteResult{Seed: 1, Rounds: 10, RoundSecs: 1}
	a := write("a.json", base)
	for name, other := range map[string]suiteResult{
		"seed":   {Seed: 2, Rounds: 10, RoundSecs: 1},
		"rounds": {Seed: 1, Rounds: 3, RoundSecs: 1},
		"length": {Seed: 1, Rounds: 10, RoundSecs: 0.5},
	} {
		var stderr bytes.Buffer
		if code := run([]string{"-compare", a, write(name+".json", other)}, io.Discard, &stderr, false); code == 0 {
			t.Errorf("compared results that differ in %s", name)
		} else if !strings.Contains(stderr.String(), "same settings") {
			t.Errorf("differing %s: %s", name, stderr.String())
		}
	}
	if code := run([]string{"-compare", a, write("same.json", base)}, io.Discard, io.Discard, false); code != 0 {
		t.Errorf("equal settings: exit %d", code)
	}
}
