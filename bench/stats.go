package main

import (
	"math"
	"sort"
	"time"
)

// median returns the middle value of xs (mean of the two middle values
// for an even count), or 0 for an empty slice. xs is not modified.
func median(xs []float64) float64 {
	return quantile(xs, 0.5)
}

// quantile returns the q-quantile of xs by linear interpolation between
// order statistics. xs is not modified.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
}

// highQuantile is the tail statistic the choosing-metrics guide asks
// for: p99 when at least ten samples lie beyond it, otherwise the
// highest percentile (of 95, 90, 75) that has ten beyond it, otherwise
// the median. It reports which percentile it used.
func highQuantile(xs []float64) (value float64, pct int) {
	for _, p := range []int{99, 95, 90, 75} {
		if float64(len(xs))*float64(100-p)/100 >= 10 {
			return quantile(xs, float64(p)/100), p
		}
	}
	return median(xs), 50
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
func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }
