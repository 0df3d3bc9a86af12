package main

import (
	"math"
	"sort"
	"time"
)

// quantile is the Harrell–Davis estimate of the p-quantile: a
// Beta-weighted average of all order statistics. Latencies here mix
// queries of one to eight legs, so their distribution has gaps near
// the median; the sample median jumps across a gap from run to run,
// and this estimator varies less for the same data.
func quantile(d []time.Duration, p float64) time.Duration {
	n := len(d)
	if n == 0 {
		return 0
	}
	s := append([]time.Duration(nil), d...)
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	a, b := p*float64(n+1), (1-p)*float64(n+1)
	var est, prev float64
	for i := 1; i <= n; i++ {
		cur := regIncBeta(a, b, float64(i)/float64(n))
		est += (cur - prev) * float64(s[i-1])
		prev = cur
	}
	return time.Duration(math.Round(est))
}

// regIncBeta is the regularized incomplete beta function I_x(a, b),
// by its continued fraction (modified Lentz).
func regIncBeta(a, b, x float64) float64 {
	switch {
	case x <= 0:
		return 0
	case x >= 1:
		return 1
	case x > (a+1)/(a+b+2):
		return 1 - regIncBeta(b, a, 1-x)
	}
	lab, _ := math.Lgamma(a + b)
	la, _ := math.Lgamma(a)
	lb, _ := math.Lgamma(b)
	front := math.Exp(lab - la - lb + a*math.Log(x) + b*math.Log1p(-x))
	const tiny = 1e-300
	clamp := func(v float64) float64 {
		if math.Abs(v) < tiny {
			return tiny
		}
		return v
	}
	c, d := 1.0, 1/clamp(1-(a+b)*x/(a+1))
	h := d
	for m := 1.0; m <= 500; m++ {
		num := m * (b - m) * x / ((a + 2*m - 1) * (a + 2*m))
		d = 1 / clamp(1+num*d)
		c = clamp(1 + num/c)
		h *= d * c
		num = -(a + m) * (a + b + m) * x / ((a + 2*m) * (a + 2*m + 1))
		d = 1 / clamp(1+num*d)
		c = clamp(1 + num/c)
		h *= d * c
		if math.Abs(d*c-1) < 1e-13 {
			break
		}
	}
	return front * h / a
}

// median is the nearest-rank median of a handful of timings, such as
// the set-ups of one run.
func median(d []time.Duration) time.Duration {
	if len(d) == 0 {
		return 0
	}
	s := append([]time.Duration(nil), d...)
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	return s[(len(s)-1)/2]
}
