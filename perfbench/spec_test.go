package main

import (
	"bytes"
	"encoding/json"
	"os"
	"regexp"
	"strings"
	"testing"
)

// benchmarkFile mirrors BENCHMARK.json at the repository root.
type benchmarkFile struct {
	Command    []string          `json:"command"`
	Paths      []string          `json:"paths"`
	RunSeconds int               `json:"run_seconds"`
	Workloads  []map[string]any  `json:"workloads"`
	EndToEnd   []json.RawMessage `json:"end_to_end"`
	PerLayer   []json.RawMessage `json:"per_layer"`
}

func readBenchmarkFile(t *testing.T) benchmarkFile {
	t.Helper()
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	dec := json.NewDecoder(bytes.NewReader(raw))
	dec.DisallowUnknownFields()
	var b benchmarkFile
	if err := dec.Decode(&b); err != nil {
		t.Fatalf("BENCHMARK.json: %v", err)
	}
	return b
}

// strictMetric decodes one metric entry, rejecting keys beyond want.
func strictMetric(t *testing.T, raw json.RawMessage, withBound bool) Metric {
	t.Helper()
	var keys map[string]any
	if err := json.Unmarshal(raw, &keys); err != nil {
		t.Fatal(err)
	}
	want := 3
	if withBound {
		want = 4
	}
	if len(keys) != want {
		t.Errorf("metric entry %s has keys %v, want name, unit, better%s", raw, keys, map[bool]string{true: ", bound"}[withBound])
	}
	var m Metric
	if err := json.Unmarshal(raw, &m); err != nil {
		t.Fatal(err)
	}
	return m
}

var (
	nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRE = regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
)

// TestBenchmarkFileMatchesLedger keeps BENCHMARK.json a faithful
// projection of metrics.json, the ledger the benchmark reports from.
func TestBenchmarkFileMatchesLedger(t *testing.T) {
	b := readBenchmarkFile(t)
	if len(b.Workloads) != len(spec.Workloads) {
		t.Fatalf("BENCHMARK.json has %d workloads, the ledger %d", len(b.Workloads), len(spec.Workloads))
	}
	for i, w := range spec.Workloads {
		got := b.Workloads[i]
		if len(got) != 2 || got["name"] != w.Name || got["why"] != w.Why {
			t.Errorf("workload %d: BENCHMARK.json has %v, the ledger %s: %q", i, got, w.Name, w.Why)
		}
		if _, ok := shapes[w.Name]; !ok {
			t.Errorf("workload %s has no implementation", w.Name)
		}
	}
	if len(shapes) != len(spec.Workloads) {
		t.Errorf("%d workloads are implemented, the ledger lists %d", len(shapes), len(spec.Workloads))
	}
	check := func(kind string, raws []json.RawMessage, want []Metric, withBound bool) {
		if len(raws) != len(want) {
			t.Fatalf("%s: BENCHMARK.json lists %d metrics, the ledger %d", kind, len(raws), len(want))
		}
		for i, raw := range raws {
			got := strictMetric(t, raw, withBound)
			w := want[i]
			if got.Name != w.Name || got.Unit != w.Unit || got.Better != w.Better || got.Bound != w.Bound {
				t.Errorf("%s %d: BENCHMARK.json has %+v, the ledger %+v", kind, i, got, w)
			}
		}
	}
	check("end_to_end", b.EndToEnd, spec.EndToEnd, true)
	check("per_layer", b.PerLayer, spec.PerLayer, false)
}

// TestLedgerWithinContract checks the limits the benchmark contract
// puts on names, units, bounds and counts.
func TestLedgerWithinContract(t *testing.T) {
	b := readBenchmarkFile(t)
	if b.RunSeconds < 1 || b.RunSeconds > 60 {
		t.Errorf("run_seconds %d outside 1..60", b.RunSeconds)
	}
	if len(b.Paths) != 1 || b.Paths[0] != "perfbench" {
		t.Errorf("paths = %v, want [perfbench]", b.Paths)
	}
	if n := len(spec.Workloads); n < 2 || n > 8 {
		t.Errorf("%d workloads, want 2..8", n)
	}
	if n := len(spec.EndToEnd); n < 1 || n > 16 {
		t.Errorf("%d end-to-end metrics, want 1..16", n)
	}
	if n := len(spec.PerLayer); n < 1 || n > 128 {
		t.Errorf("%d per-layer metrics, want 1..128", n)
	}
	seen := map[string]bool{}
	for _, w := range spec.Workloads {
		if !nameRE.MatchString(w.Name) || len(w.Why) == 0 || len(w.Why) > 200 {
			t.Errorf("workload %q: bad name or why (%d characters)", w.Name, len(w.Why))
		}
		seen[w.Name] = true
	}
	var setupBound, maxOther float64
	for _, list := range [][]Metric{spec.EndToEnd, spec.PerLayer} {
		for _, m := range list {
			if !nameRE.MatchString(m.Name) || seen[m.Name] {
				t.Errorf("metric name %q is malformed or used twice", m.Name)
			}
			seen[m.Name] = true
			if !unitRE.MatchString(m.Unit) {
				t.Errorf("%s: malformed unit %q", m.Name, m.Unit)
			}
			if m.Better != "higher" && m.Better != "lower" {
				t.Errorf("%s: better = %q", m.Name, m.Better)
			}
			switch m.Clock {
			case "virtual", "count", "host":
			default:
				t.Errorf("%s: clock = %q", m.Name, m.Clock)
			}
		}
	}
	for _, m := range spec.EndToEnd {
		if m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("%s: bound %v outside (0, 0.25]", m.Name, m.Bound)
		}
		if m.Name == "setup_s" {
			setupBound = m.Bound
			if m.Unit != "s" || m.Better != "lower" {
				t.Errorf("setup_s must be in s, lower is better")
			}
		} else {
			maxOther = max(maxOther, m.Bound)
		}
	}
	if setupBound == 0 || setupBound < maxOther {
		t.Errorf("setup_s bound %v must be the largest (others reach %v)", setupBound, maxOther)
	}
}

// TestDeterministicValuesHaveAClock checks that every value compared
// between repetitions of a sub-seed is a ledger metric on the virtual
// or count clock, or one of the run's own values, so the determinism
// check knows whether a difference fails the run (a count) or is only
// reported (a virtual time).
func TestDeterministicValuesHaveAClock(t *testing.T) {
	tl := tally{lats: []int64{3, 1, 2}, dc: counters{}, traced: true, probed: true,
		probeEvents: map[string]int64{"kvstore.read": 9}, probeCalls: map[string]int64{"kvstore.read": 1}}
	for k := range tl.values() {
		switch {
		case k == "requests" || k == "failed" || k == "events" || strings.HasPrefix(k, probePrefix):
			if spec.virtualTime(k) {
				t.Errorf("%s is a count but is classed as a virtual time", k)
			}
		case k == "fingerprint" || k == "generator_late_ms":
			if !spec.virtualTime(k) {
				t.Errorf("%s is a virtual time but is classed as a count", k)
			}
		default:
			if c := spec.clocks[k]; c != "count" && c != "virtual" {
				t.Errorf("%s has clock %q in the ledger, want count or virtual", k, c)
			}
		}
	}
}
