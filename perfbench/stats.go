package main

import (
	"hash/fnv"
	"math"
	"sort"

	"ofc/internal/sim"
	"ofc/internal/trace"
)

// phaseStat is one span name's share of a trace: how many spans carry
// it and their summed self time.
type phaseStat struct {
	Count int
	Self  sim.Time
}

// selfTimes aggregates spans by name. A span's self time is its
// duration minus the union of its direct children's intervals (clipped
// to the span), so overlapping children — parallel stage invocations,
// a write-back racing a load — are not subtracted twice.
func selfTimes(spans []trace.Span) map[string]phaseStat {
	children := make(map[trace.SpanID][]int, len(spans))
	for i := range spans {
		if p := spans[i].Parent; p != 0 {
			children[p] = append(children[p], i)
		}
	}
	out := make(map[string]phaseStat)
	var iv [][2]sim.Time
	for i := range spans {
		sp := &spans[i]
		iv = iv[:0]
		for _, c := range children[sp.ID] {
			iv = append(iv, [2]sim.Time{spans[c].Start, spans[c].End})
		}
		st := out[sp.Name]
		st.Count++
		st.Self += sp.Duration() - unionLen(iv, sp.Start, sp.End)
		out[sp.Name] = st
	}
	return out
}

// unionLen returns the length of the union of intervals after clipping
// each to [lo, hi]. It sorts iv in place.
func unionLen(iv [][2]sim.Time, lo, hi sim.Time) sim.Time {
	sort.Slice(iv, func(i, j int) bool { return iv[i][0] < iv[j][0] })
	var total sim.Time
	curS, curE := sim.Time(0), sim.Time(0)
	open := false
	for _, in := range iv {
		s, e := max(in[0], lo), min(in[1], hi)
		if e <= s {
			continue
		}
		switch {
		case !open:
			curS, curE, open = s, e, true
		case s <= curE:
			curE = max(curE, e)
		default:
			total += curE - curS
			curS, curE = s, e
		}
	}
	if open {
		total += curE - curS
	}
	return total
}

// perRequest normalizes a run total by the request count.
func perRequest(total float64, requests int) float64 {
	if requests <= 0 {
		return 0
	}
	return total / float64(requests)
}

// ratio returns num/den, or 0 when nothing was attempted.
func ratio(num, den int64) float64 {
	if den <= 0 {
		return 0
	}
	return float64(num) / float64(den)
}

// samplesBeyond counts the samples ranked strictly above the q-th
// quantile of n samples under the ceiling nearest-rank rule that
// trace.Quantile and metrics.Histogram share (the quantile is the
// sample at rank ⌈q·n⌉).
func samplesBeyond(n int, q float64) int {
	if n <= 0 {
		return 0
	}
	rank := int(math.Ceil(q * float64(n)))
	if rank < 1 {
		rank = 1
	}
	if rank > n {
		rank = n
	}
	return n - rank
}

// minSamplesBeyond is how many samples a reported percentile must have
// above it to be reported at all.
const minSamplesBeyond = 10

// medianF returns the middle value of xs by trace.Quantile's rank rule
// (the lower middle for an even count). xs is not modified.
func medianF(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	ranks := make([]sim.Time, len(s))
	for i := range ranks {
		ranks[i] = sim.Time(i)
	}
	return s[trace.Quantile(ranks, 0.5)]
}

// fingerprint hashes the sorted per-request virtual latencies, so a
// claim that no virtual output moved can be checked from two runs'
// output alone.
func fingerprint(sortedNs []int64) uint64 {
	h := fnv.New64a()
	var b [8]byte
	for _, v := range sortedNs {
		for i := range b {
			b[i] = byte(uint64(v) >> (8 * i))
		}
		h.Write(b[:])
	}
	return h.Sum64()
}
