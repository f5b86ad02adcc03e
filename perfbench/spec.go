package main

import (
	_ "embed"
	"encoding/json"
	"fmt"
)

// metricsJSON is the benchmark's ledger: every workload with its
// reason, and every metric with its unit, direction, clock and (for
// per-layer metrics) the layer it measures and the end-to-end metric
// and workload it should move. BENCHMARK.json at the repository root
// repeats the subset the benchmark contract allows; spec_test.go keeps
// the two in step.
//
//go:embed metrics.json
var metricsJSON []byte

// Metric describes one reported number.
type Metric struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
	// Clock is "virtual" (simulated time), "count" (a deterministic
	// count or ratio of counts) or "host" (host time, memory or
	// allocations). Virtual and count metrics must repeat bit for bit
	// at a fixed seed; host metrics are medians over repetitions.
	Clock    string `json:"clock"`
	Layer    string `json:"layer,omitempty"`
	Moves    string `json:"moves,omitempty"`
	Workload string `json:"workload,omitempty"`
	Doc      string `json:"doc,omitempty"`
}

// Deterministic reports whether the metric must repeat exactly at a
// fixed seed.
func (m Metric) Deterministic() bool { return m.Clock != "host" }

// WorkloadInfo is one workload's ledger entry.
type WorkloadInfo struct {
	Name  string `json:"name"`
	Why   string `json:"why"`
	Shape string `json:"shape"`
}

// Spec is the decoded ledger with the per-phase trace metrics expanded.
type Spec struct {
	DefaultSeed int64          `json:"default_seed"`
	HeldOutSeed int64          `json:"held_out_seed"`
	Workloads   []WorkloadInfo `json:"workloads"`
	EndToEnd    []Metric       `json:"end_to_end"`
	PerLayer    []Metric       `json:"per_layer"`
	TracePhases []string       `json:"trace_phases"`
	PhaseKinds  map[string]struct {
		Unit     string `json:"unit"`
		Better   string `json:"better"`
		Clock    string `json:"clock"`
		Moves    string `json:"moves"`
		Workload string `json:"workload"`
	} `json:"trace_phase_metrics"`

	clocks map[string]string // metric name to clock
}

// virtualTime reports whether a deterministic value is measured on the
// virtual clock: a metric whose clock is "virtual", or one of the run's
// own virtual values (the latency fingerprint and how late the
// open-loop generator ran). Every other deterministic value is a count.
func (s *Spec) virtualTime(name string) bool {
	switch name {
	case "fingerprint", "generator_late_ms":
		return true
	}
	return s.clocks[name] == "virtual"
}

// phaseMetricKinds fixes the order in which each phase's metrics are
// listed.
var phaseMetricKinds = []string{"count", "self_ms"}

// loadSpec decodes the embedded ledger and appends trace.<phase>.count
// and trace.<phase>.self_ms for every traced phase to PerLayer.
func loadSpec() (*Spec, error) {
	var s Spec
	if err := json.Unmarshal(metricsJSON, &s); err != nil {
		return nil, fmt.Errorf("metrics.json: %w", err)
	}
	for _, ph := range s.TracePhases {
		for _, kind := range phaseMetricKinds {
			k, ok := s.PhaseKinds[kind]
			if !ok {
				return nil, fmt.Errorf("metrics.json: trace_phase_metrics lacks %q", kind)
			}
			s.PerLayer = append(s.PerLayer, Metric{
				Name: "trace." + ph + "." + kind, Unit: k.Unit, Better: k.Better, Clock: k.Clock,
				Layer: "trace", Moves: k.Moves, Workload: k.Workload,
			})
		}
	}
	s.clocks = map[string]string{}
	for _, m := range append(append([]Metric(nil), s.EndToEnd...), s.PerLayer...) {
		s.clocks[m.Name] = m.Clock
	}
	return &s, nil
}
