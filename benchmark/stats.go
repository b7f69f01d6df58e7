package main

import (
	"math"
	"sort"
	"time"
)

// percentile returns the p-th percentile (0..100) of xs by linear
// interpolation between closest ranks; 0 for an empty slice. xs need
// not be sorted and is not modified.
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if len(s) == 1 {
		return s[0]
	}
	pos := p / 100 * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
}

func median(xs []float64) float64 { return percentile(xs, 50) }

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	t := 0.0
	for _, x := range xs {
		t += x
	}
	return t / float64(len(xs))
}

// quartiles returns Q1, median and Q3 by the exclusive method Python's
// statistics.quantiles(values, n=4) uses, so spreads computed here match
// the ones the driver computes. Fewer than two values give that value
// three times.
func quartiles(xs []float64) (q1, med, q3 float64) {
	if len(xs) == 0 {
		return 0, 0, 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if len(s) == 1 {
		return s[0], s[0], s[0]
	}
	at := func(k int) float64 {
		// As in Python: the rank k*(len+1)/4 is clamped to 1..len-1 and
		// the remainder taken against the clamped rank, so the ends
		// extrapolate.
		j := k * (len(s) + 1) / 4
		if j < 1 {
			j = 1
		}
		if j > len(s)-1 {
			j = len(s) - 1
		}
		delta := k*(len(s)+1) - j*4
		return (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	return at(1), at(2), at(3)
}

// sample is one client-observed operation: when it completed relative
// to the window start, how long it took, and whether its answer was
// right.
type sample struct {
	done time.Duration
	lat  time.Duration
	ok   bool
}

// sliceThroughput splits the window into n equal slices and returns the
// median, over slices, of correct operations completed per second.
// Operations that complete after the window are not counted.
func sliceThroughput(samples []sample, window time.Duration, n int) float64 {
	if n <= 0 || window <= 0 {
		return 0
	}
	counts := make([]float64, n)
	width := window / time.Duration(n)
	for _, s := range samples {
		if !s.ok || s.done < 0 || s.done >= window {
			continue
		}
		i := int(s.done / width)
		if i >= n {
			i = n - 1
		}
		counts[i]++
	}
	for i := range counts {
		counts[i] /= width.Seconds()
	}
	return median(counts)
}

func ms(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }
func us(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e3 }
