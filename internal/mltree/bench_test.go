package mltree

import "testing"

// benchProbes extracts a power-of-two probe set from the dataset so
// benchmark loops can index with a mask instead of an integer divide
// (the divide would otherwise dominate a ~30 ns walk).
func benchProbes(d *Dataset) [][]float64 {
	const n = 4096
	probes := make([][]float64, n)
	for i := range probes {
		probes[i] = d.Instances[i%d.Len()].Vals
	}
	return probes
}

// BenchmarkJ48Fit measures training on a 600-instance dataset.
func BenchmarkJ48Fit(b *testing.B) {
	d := nominalDataset(600, 1)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		NewJ48().Fit(d)
	}
}

// BenchmarkJ48FitPredictor measures one retrain of a predictor-shaped
// model (numeric features, 12 memory classes), the fit the
// ModelTrainer repeats after every few completed invocations.
func BenchmarkJ48FitPredictor(b *testing.B) {
	d := predictorDataset(1000, 12, 3)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		NewJ48().Fit(d)
	}
}

// BenchmarkJ48Classify measures the critical-path prediction (§5.1's
// 1 ms budget; Figure 6) through the pointer-walk representation, on a
// predictor-shaped tree (numeric features, 128 memory classes).
func BenchmarkJ48Classify(b *testing.B) {
	d := predictorDataset(4000, 128, 2)
	model := NewJ48().Fit(d)
	probes := benchProbes(d)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		model.Classify(probes[i&(len(probes)-1)])
	}
}

// BenchmarkJ48CompiledClassify is the same prediction through the
// flattened node tables — the serving path OFC puts on every
// invocation.
func BenchmarkJ48CompiledClassify(b *testing.B) {
	d := predictorDataset(4000, 128, 2)
	model := NewJ48().Fit(d).(*Tree).Compile()
	probes := benchProbes(d)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		model.Classify(probes[i&(len(probes)-1)])
	}
}

// BenchmarkJ48Distribution measures the benefit-score path (the
// Predictor reads the probability mass behind the verdict).
func BenchmarkJ48Distribution(b *testing.B) {
	d := predictorDataset(4000, 128, 2)
	model := NewJ48().Fit(d)
	probes := benchProbes(d)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		model.Distribution(probes[i&(len(probes)-1)])
	}
}

// BenchmarkJ48CompiledDistribution is the buffered compiled
// counterpart (zero allocations).
func BenchmarkJ48CompiledDistribution(b *testing.B) {
	d := predictorDataset(4000, 128, 2)
	model := NewJ48().Fit(d).(*Tree).Compile()
	buf := make([]float64, model.NumClasses())
	probes := benchProbes(d)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		model.DistributionInto(probes[i&(len(probes)-1)], buf)
	}
}

// BenchmarkForestClassify measures the RandomForest alternative the
// paper rejected for critical-path latency.
func BenchmarkForestClassify(b *testing.B) {
	d := nominalDataset(600, 1)
	model := (&RandomForest{Trees: 30, MinLeaf: 1, Seed: 1}).Fit(d)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		model.Classify(d.Instances[i%d.Len()].Vals)
	}
}

// BenchmarkForestCompiledClassify is forest voting through compiled
// members into a reused distribution buffer.
func BenchmarkForestCompiledClassify(b *testing.B) {
	d := nominalDataset(600, 1)
	model := (&RandomForest{Trees: 30, MinLeaf: 1, Seed: 1}).Fit(d).(*Forest).Compile()
	buf := make([]float64, model.NumClasses())
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		model.ClassifyInto(d.Instances[i%d.Len()].Vals, buf)
	}
}

// BenchmarkHoeffdingObserve measures incremental learning throughput.
func BenchmarkHoeffdingObserve(b *testing.B) {
	d := nominalDataset(600, 1)
	h := NewHoeffdingTree(d.Attrs, d.Classes)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		inst := d.Instances[i%d.Len()]
		h.Observe(inst.Vals, inst.Class)
	}
}

// BenchmarkHoeffdingClassify measures the incremental tree's *serving*
// path — the adaptive-NB walk every classification pays, distinct from
// the Observe ingest path benchmarked above.
func BenchmarkHoeffdingClassify(b *testing.B) {
	d := nominalDataset(2000, 12)
	h := NewHoeffdingTree(d.Attrs, d.Classes)
	for i := range d.Instances {
		h.Observe(d.Instances[i].Vals, d.Instances[i].Class)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		h.Classify(d.Instances[i%d.Len()].Vals)
	}
}

// BenchmarkHoeffdingCompiledClassify serves the same stream from a
// compiled snapshot (the learner keeps observing off this path).
func BenchmarkHoeffdingCompiledClassify(b *testing.B) {
	d := nominalDataset(2000, 12)
	h := NewHoeffdingTree(d.Attrs, d.Classes)
	for i := range d.Instances {
		h.Observe(d.Instances[i].Vals, d.Instances[i].Class)
	}
	ct := h.Compile()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ct.Classify(d.Instances[i%d.Len()].Vals)
	}
}
