package main

import (
	"math"
	"sort"
	"time"
)

// percentile is the nearest-rank p-quantile (0 < p ≤ 1) of sorted values:
// the smallest value with at least p of the sample at or below it.
func percentile(sorted []float64, p float64) float64 {
	if len(sorted) == 0 {
		return math.NaN()
	}
	i := int(math.Ceil(p*float64(len(sorted)))) - 1
	return sorted[min(max(i, 0), len(sorted)-1)]
}

func median(v []float64) float64 {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	if len(s) == 0 {
		return math.NaN()
	}
	if len(s)%2 == 1 {
		return s[len(s)/2]
	}
	return (s[len(s)/2-1] + s[len(s)/2]) / 2
}

// summary is the client-visible outcome of one measured window.
type summary struct {
	attempted, failed int
	firstErr          error
	throughput        float64 // correct responses per second
	p50, p95, p99     float64 // ms, send → last body byte
	bytesOut          int64
}

// summarize reduces the closed loop's samples to the window [from, to].
// A client contributes only whole cycles (cycle consecutive requests,
// counted from its first) that lie inside the window; its rate is its
// correct responses over the span those cycles cover, and throughput is the
// sum of the clients' rates. A failed request counts as attempted and as
// missing any latency limit: its latency is entered as the whole window.
func summarize(samples [][]sample, cycle int, from, to time.Duration) summary {
	var s summary
	var lat []float64
	for _, cs := range samples {
		var first, last time.Duration
		ok, seen := 0, false
		for k := 0; (k+1)*cycle <= len(cs); k++ {
			c := cs[k*cycle : (k+1)*cycle]
			if c[0].start < from || c[cycle-1].end > to {
				continue
			}
			if !seen {
				first, seen = c[0].start, true
			}
			last = c[cycle-1].end
			for _, x := range c {
				s.attempted++
				if x.err != nil {
					s.failed++
					if s.firstErr == nil {
						s.firstErr = x.err
					}
					lat = append(lat, float64(to-from)/float64(time.Millisecond))
					continue
				}
				ok++
				s.bytesOut += int64(x.bytes)
				lat = append(lat, float64(x.end-x.start)/float64(time.Millisecond))
			}
		}
		if last > first {
			s.throughput += float64(ok) / (last - first).Seconds()
		}
	}
	sort.Float64s(lat)
	s.p50, s.p95, s.p99 = percentile(lat, 0.50), percentile(lat, 0.95), percentile(lat, 0.99)
	return s
}

// span is one timed call into a layer during the traced run. Spans of one
// request share req; parent is the index of the span that caused this one
// (-1 for a request's root).
type span struct {
	Name   string        `json:"name"`
	Req    int           `json:"req"`
	Parent int           `json:"parent"`
	Start  time.Duration `json:"startNs"`
	End    time.Duration `json:"endNs"`
}

// selfTimes returns, per span, its duration minus the part of its interval
// that its child spans cover (overlapping children are not counted twice).
func selfTimes(spans []span) []time.Duration {
	children := make([][]int, len(spans))
	for i, sp := range spans {
		if sp.Parent >= 0 {
			children[sp.Parent] = append(children[sp.Parent], i)
		}
	}
	self := make([]time.Duration, len(spans))
	for i, sp := range spans {
		kids := children[i]
		sort.Slice(kids, func(a, b int) bool { return spans[kids[a]].Start < spans[kids[b]].Start })
		covered, upto := time.Duration(0), sp.Start
		for _, k := range kids {
			lo, hi := max(spans[k].Start, upto), min(spans[k].End, sp.End)
			if hi > lo {
				covered += hi - lo
				upto = hi
			}
		}
		self[i] = sp.End - sp.Start - covered
	}
	return self
}
