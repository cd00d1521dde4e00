package main

import (
	"math"
	"sort"
)

// summary is a timing series reduced the way every metric is
// reported: median, quartiles and the sample count behind them.
type summary struct {
	Median, Q1, Q3 float64
	N              int
}

// percentile returns the p-quantile (0..1) of vals by linear
// interpolation between closest ranks. vals need not be sorted; an
// empty series yields 0.
func percentile(vals []float64, p float64) float64 {
	if len(vals) == 0 {
		return 0
	}
	s := append([]float64(nil), vals...)
	sort.Float64s(s)
	return percentileSorted(s, p)
}

func percentileSorted(s []float64, p float64) float64 {
	if len(s) == 1 {
		return s[0]
	}
	pos := p * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
}

// summarize reduces a series to its median and quartiles.
func summarize(vals []float64) summary {
	if len(vals) == 0 {
		return summary{}
	}
	s := append([]float64(nil), vals...)
	sort.Float64s(s)
	return summary{
		Median: percentileSorted(s, 0.5),
		Q1:     percentileSorted(s, 0.25),
		Q3:     percentileSorted(s, 0.75),
		N:      len(s),
	}
}

// relIQR is the interquartile distance as a share of the median — the
// spread every regression bound is compared against.
func (s summary) relIQR() float64 {
	if s.Median == 0 {
		return 0
	}
	return math.Abs(s.Q3-s.Q1) / math.Abs(s.Median)
}
