package main

import (
	"math"
	"sort"
	"time"
)

// tailLadder lists the percentiles op_tail_ms may report, in hundredths of
// a percent, highest first. A fixed ladder of the usual levels keeps the
// reported level a round number; it is stated next to the value with its
// sample count.
var tailLadder = []int{9999, 9990, 9900, 9500, 9000, 7500, 5000}

// minBeyond is how many samples must lie above a tail percentile for it to
// be reported: fewer than ten and the value is one or two outliers.
const minBeyond = 10

// rank returns the 1-based nearest-rank position of percentile p (in
// hundredths of a percent) among n samples: ceil(p*n/10000), in integers so
// that 99.5% of 2000 is exactly rank 1990.
func rank(p, n int) int {
	k := (p*n + 9999) / 10000
	if k < 1 {
		k = 1
	}
	return k
}

// tailLevel returns the highest ladder percentile (hundredths of a percent)
// that leaves at least minBeyond of n samples above its rank. With fewer
// than minBeyond+1 samples no percentile qualifies and the level is 10000,
// the maximum.
func tailLevel(n int) int {
	for _, p := range tailLadder {
		if n-rank(p, n) >= minBeyond {
			return p
		}
	}
	return 10000
}

// percentile returns the nearest-rank percentile p (hundredths of a
// percent) of sorted.
func percentile(sorted []float64, p int) float64 {
	if len(sorted) == 0 {
		return math.NaN()
	}
	return sorted[rank(p, len(sorted))-1]
}

// median returns the interpolated median of xs without reordering it.
func median(xs []float64) float64 {
	s := sortedCopy(xs)
	n := len(s)
	switch {
	case n == 0:
		return math.NaN()
	case n%2 == 1:
		return s[n/2]
	default:
		return (s[n/2-1] + s[n/2]) / 2
	}
}

func sortedCopy(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sum := 0.0
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// latencySummary is the median and tail of one set of operation latencies.
type latencySummary struct {
	N         int     `json:"n"`
	P50MS     float64 `json:"p50_ms"`
	TailLevel float64 `json:"tail_percentile"`
	TailMS    float64 `json:"tail_ms"`
	Beyond    int     `json:"samples_beyond_tail"`
}

// failedLatencyMS stands in for the latency of a failed operation: a
// request that failed or was refused counts as missing every latency limit,
// so it sorts above every real sample. It is finite so that a summary
// dominated by failures still encodes as JSON.
const failedLatencyMS = 1e9

// summarize computes the median and the tail percentile of latencies in
// milliseconds, both by nearest rank, so the tail is never below the
// median.
func summarize(latMS []float64) latencySummary {
	s := sortedCopy(latMS)
	level := tailLevel(len(s))
	out := latencySummary{N: len(s), TailLevel: float64(level) / 100}
	if len(s) == 0 {
		return out
	}
	out.P50MS = percentile(s, 5000)
	out.TailMS = percentile(s, level)
	out.Beyond = len(s) - rank(level, len(s))
	return out
}
