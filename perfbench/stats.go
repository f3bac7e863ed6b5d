package main

import (
	"math"
	"sort"
	"time"
)

// samples collects operation latencies for one kind of operation.
type samples []time.Duration

// quantile returns the q-quantile (0..1) of the samples by linear
// interpolation between order statistics, in milliseconds.
func (s samples) quantile(q float64) float64 {
	if len(s) == 0 {
		return math.NaN()
	}
	v := make([]float64, len(s))
	for i, d := range s {
		v[i] = ms(d)
	}
	sort.Float64s(v)
	pos := q * float64(len(v)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return v[lo] + (v[hi]-v[lo])*(pos-float64(lo))
}

// beyond reports how many samples lie strictly above the q-quantile: the
// benchmark names a tail percentile only when at least ten do.
func (s samples) beyond(q float64) int {
	t := s.quantile(q)
	n := 0
	for _, d := range s {
		if ms(d) > t {
			n++
		}
	}
	return n
}

func ms(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }

func median(v []float64) float64 {
	if len(v) == 0 {
		return math.NaN()
	}
	c := append([]float64(nil), v...)
	sort.Float64s(c)
	n := len(c)
	if n%2 == 1 {
		return c[n/2]
	}
	return (c[n/2-1] + c[n/2]) / 2
}

// ratio is a/b, or 0 when b is 0 (a layer that saw no work).
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
