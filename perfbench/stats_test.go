package main

import (
	"testing"

	"ofc/internal/sim"
	"ofc/internal/trace"
)

func TestUnionLen(t *testing.T) {
	iv := func(pairs ...sim.Time) [][2]sim.Time {
		var out [][2]sim.Time
		for i := 0; i < len(pairs); i += 2 {
			out = append(out, [2]sim.Time{pairs[i], pairs[i+1]})
		}
		return out
	}
	cases := []struct {
		name   string
		iv     [][2]sim.Time
		lo, hi sim.Time
		want   sim.Time
	}{
		{"empty", nil, 0, 100, 0},
		{"disjoint", iv(10, 20, 30, 45), 0, 100, 25},
		{"overlapping", iv(10, 40, 30, 60), 0, 100, 50},
		{"nested", iv(10, 90, 20, 30, 40, 50), 0, 100, 80},
		{"touching", iv(10, 20, 20, 30), 0, 100, 20},
		{"unsorted", iv(50, 60, 10, 20, 15, 25), 0, 100, 25},
		{"clipped to the parent", iv(-10, 10, 90, 120), 0, 100, 20},
		{"outside the parent", iv(100, 110, -5, 0), 0, 100, 0},
		{"zero length", iv(30, 30), 0, 100, 0},
	}
	for _, c := range cases {
		if got := unionLen(c.iv, c.lo, c.hi); got != c.want {
			t.Errorf("%s: unionLen = %v, want %v", c.name, got, c.want)
		}
	}
}

// span builds a hand-made span for the self-time tests.
func span(id, parent trace.SpanID, name string, start, end sim.Time) trace.Span {
	return trace.Span{Trace: 1, ID: id, Parent: parent, Name: name, Start: start, End: end}
}

func TestSelfTimesSubtractChildUnion(t *testing.T) {
	spans := []trace.Span{
		span(1, 0, "invoke", 0, 100),
		span(2, 1, "execute", 10, 40),
		span(3, 1, "execute", 30, 60), // overlaps its sibling by 10
		span(4, 2, "extract", 15, 20),
		span(5, 0, "persist", 50, 70), // a second root
	}
	got := selfTimes(spans)
	want := map[string]phaseStat{
		"invoke":  {Count: 1, Self: 100 - 50},      // children cover [10,60]
		"execute": {Count: 2, Self: (30 - 5) + 30}, // the first loses its extract child
		"extract": {Count: 1, Self: 5},
		"persist": {Count: 1, Self: 20},
	}
	if len(got) != len(want) {
		t.Fatalf("selfTimes returned %d phases, want %d: %v", len(got), len(want), got)
	}
	for name, w := range want {
		if got[name] != w {
			t.Errorf("%s: got %+v, want %+v", name, got[name], w)
		}
	}
}

func TestSelfTimesSumToRootDuration(t *testing.T) {
	// Properly nested children: the self times of a tree add up to the
	// root's duration, so per-phase self time partitions latency.
	spans := []trace.Span{
		span(1, 0, "invoke", 0, 1000),
		span(2, 1, "advice", 0, 100),
		span(3, 2, "predict", 20, 30),
		span(4, 1, "execute", 100, 1000),
		span(5, 4, "acquire", 100, 200),
		span(6, 4, "extract", 200, 300),
		span(7, 6, "cache.get", 210, 290),
		span(8, 4, "transform", 300, 900),
		span(9, 4, "load", 900, 1000),
	}
	var total sim.Time
	for _, st := range selfTimes(spans) {
		total += st.Self
	}
	if total != 1000 {
		t.Fatalf("self times sum to %v, want the root's 1000", total)
	}
}

func TestPerRequestAndRatio(t *testing.T) {
	if got := perRequest(150, 100); got != 1.5 {
		t.Errorf("perRequest(150, 100) = %v, want 1.5", got)
	}
	if got := perRequest(7, 0); got != 0 {
		t.Errorf("perRequest with no requests = %v, want 0", got)
	}
	if got := ratio(3, 4); got != 0.75 {
		t.Errorf("ratio(3, 4) = %v, want 0.75", got)
	}
	if got := ratio(0, 0); got != 0 {
		t.Errorf("ratio(0, 0) = %v, want 0", got)
	}
}

func TestCountersSub(t *testing.T) {
	base := counters{"a": 10, "b": 5}
	got := counters{"a": 25, "b": 5, "c": 3}.sub(base)
	want := counters{"a": 15, "b": 0, "c": 3}
	for k, v := range want {
		if got[k] != v {
			t.Errorf("%s: got %d, want %d", k, got[k], v)
		}
	}
}

func TestSamplesBeyondP99(t *testing.T) {
	// Ceiling nearest rank: p99 of n samples is the ⌈0.99·n⌉-th, so
	// ten samples beyond it need n >= 1000.
	cases := []struct{ n, want int }{
		{0, 0}, {1, 0}, {100, 1}, {999, 9}, {1000, 10}, {1035, 10}, {1100, 11}, {6000, 60},
	}
	for _, c := range cases {
		if got := samplesBeyond(c.n, 0.99); got != c.want {
			t.Errorf("samplesBeyond(%d, 0.99) = %d, want %d", c.n, got, c.want)
		}
	}
	if got := samplesBeyond(10, 0.5); got != 5 {
		t.Errorf("samplesBeyond(10, 0.5) = %d, want 5", got)
	}
	// The rule agrees with the quantile it guards.
	sorted := make([]sim.Time, 1000)
	for i := range sorted {
		sorted[i] = sim.Time(i + 1)
	}
	p99 := trace.Quantile(sorted, 0.99)
	beyond := 0
	for _, v := range sorted {
		if v > p99 {
			beyond++
		}
	}
	if beyond != samplesBeyond(len(sorted), 0.99) {
		t.Errorf("%d samples lie beyond p99 %v, samplesBeyond says %d", beyond, p99, samplesBeyond(len(sorted), 0.99))
	}
}

func TestMedianUsesLowerMiddle(t *testing.T) {
	if got := medianF([]float64{5, 1, 3}); got != 3 {
		t.Errorf("median of 3 = %v, want 3", got)
	}
	if got := medianF([]float64{4, 1, 3, 2}); got != 2 {
		t.Errorf("median of 4 = %v, want the lower middle 2", got)
	}
	xs := []float64{9, 7}
	medianF(xs)
	if xs[0] != 9 || xs[1] != 7 {
		t.Errorf("medianF reordered its input: %v", xs)
	}
}

func TestFingerprintSeesEveryLatency(t *testing.T) {
	a := fingerprint([]int64{1, 2, 3})
	if a != fingerprint([]int64{1, 2, 3}) {
		t.Fatal("fingerprint is not a function of its input")
	}
	if a == fingerprint([]int64{1, 2, 4}) || a == fingerprint([]int64{1, 2}) {
		t.Fatal("fingerprint missed a changed or dropped latency")
	}
}
