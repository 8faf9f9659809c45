package main

import (
	"math"
	"sort"
)

// median returns the middle value of xs (mean of the two middle values
// for an even count), or NaN for an empty slice. xs is not modified.
func median(xs []float64) float64 {
	return percentile(xs, 0.5)
}

// percentile returns the p-quantile (0 <= p <= 1) of xs by linear
// interpolation between closest ranks, or NaN for an empty slice. xs is
// not modified.
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return sortedPercentile(s, p)
}

func sortedPercentile(s []float64, p float64) float64 {
	if len(s) == 0 {
		return math.NaN()
	}
	pos := p * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
}

// tailSamples is how many samples must lie beyond a percentile before
// it is reported: a p99 over 300 samples is three points, not a number.
const tailSamples = 10

// supports reports whether n samples are enough to report the
// p-quantile, i.e. at least tailSamples of them lie beyond it.
func supports(n int, p float64) bool {
	return float64(n)*(1-p) >= tailSamples-1e-9 // 100*(1-0.9) is 9.999999999999998
}

// spread is the interquartile range of xs as a share of their median —
// the run-to-run (or round-to-round) noise a bound is compared against.
// It is 0 for fewer than two samples or a zero median.
func spread(xs []float64) float64 {
	if len(xs) < 2 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	med := sortedPercentile(s, 0.5)
	if med == 0 {
		return 0
	}
	return math.Abs((sortedPercentile(s, 0.75) - sortedPercentile(s, 0.25)) / med)
}

// timing is a pooled set of per-unit durations in nanoseconds, grouped
// by the round that produced them so both the pooled percentiles and
// the per-round medians (the samples -compare judges spread by) come
// from one record.
type timing struct {
	rounds [][]float64
}

func (t *timing) startRound() { t.rounds = append(t.rounds, nil) }

func (t *timing) add(ns float64) {
	r := len(t.rounds) - 1
	t.rounds[r] = append(t.rounds[r], ns)
}

func (t *timing) pooled() []float64 {
	var all []float64
	for _, r := range t.rounds {
		all = append(all, r...)
	}
	return all
}

// summary is what one timing is reported as.
type summary struct {
	N        int       // pooled sample count
	P50, P90 float64   // pooled percentiles
	P99      float64   // NaN unless supports(N, 0.99)
	RoundP50 []float64 // per-round medians
	RoundP90 []float64
}

func (t *timing) summarize() summary {
	all := t.pooled()
	sort.Float64s(all)
	s := summary{N: len(all), P50: sortedPercentile(all, 0.5), P90: sortedPercentile(all, 0.9), P99: math.NaN()}
	if supports(len(all), 0.99) {
		s.P99 = sortedPercentile(all, 0.99)
	}
	for _, r := range t.rounds {
		if len(r) == 0 {
			continue
		}
		s.RoundP50 = append(s.RoundP50, percentile(r, 0.5))
		s.RoundP90 = append(s.RoundP90, percentile(r, 0.9))
	}
	return s
}

// scale multiplies every element of xs by f, returning a new slice.
func scale(xs []float64, f float64) []float64 {
	out := make([]float64, len(xs))
	for i, x := range xs {
		out[i] = x * f
	}
	return out
}
