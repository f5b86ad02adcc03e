package core

import (
	"testing"
	"time"

	"ofc/internal/faas"
	"ofc/internal/sim"
)

// memoFixture builds a matured predictor/trainer pair for fn with the
// given memo setting, pretrained on n synthetic samples.
func memoFixture(t testing.TB, disable bool, n int, seed int64) (*Predictor, *ModelTrainer, *faas.Function) {
	t.Helper()
	cfg := DefaultPredictorConfig()
	cfg.DisableMemo = disable
	pred := NewPredictor(cfg)
	trainer := NewModelTrainer(pred, sim.NewEnv(1))
	fn := &faas.Function{Name: "blur", Tenant: "t", InputType: "image", ArgNames: []string{"sigma"}, MemoryBooked: 2 << 30}
	trainer.Pretrain(fn, synthSamples(pred.Schema(fn), n, seed))
	if !pred.Mature(fn) {
		t.Fatal("pretrained model not mature")
	}
	return pred, trainer, fn
}

func memoReq(fn *faas.Function, width float64) *faas.Request {
	return &faas.Request{Function: fn, Args: map[string]float64{"sigma": 3},
		InputFeatures: map[string]float64{"size": 64 * 1024, "width": width, "height": width * 0.75, "channels": 3}}
}

// TestAdviceMemoHitAndInvalidation checks the memo life cycle: a
// repeated request hits, a retrain bumps the generation and evicts
// every cached entry, and the next request misses again.
func TestAdviceMemoHitAndInvalidation(t *testing.T) {
	pred, trainer, fn := memoFixture(t, false, 300, 7)
	req := memoReq(fn, 800)

	first := pred.Advise(req)
	if !first.Use {
		t.Fatal("mature model gives no advice")
	}
	second := pred.Advise(req)
	if first != second {
		t.Fatalf("memoized advice differs: %+v vs %+v", first, second)
	}
	hits, misses, inv := pred.MemoStats()
	if hits != 1 || misses != 1 || inv != 0 {
		t.Fatalf("after hit: hits=%d misses=%d inv=%d, want 1/1/0", hits, misses, inv)
	}

	gen := pred.Generation(fn)
	if gen == 0 {
		t.Fatal("pretrained model has generation 0; retrain tracking is dead")
	}
	// Retrain with more data: generation must bump and the memo flush.
	trainer.Pretrain(fn, synthSamples(pred.Schema(fn), 100, 99))
	if got := pred.Generation(fn); got <= gen {
		t.Fatalf("generation %d after retrain, want > %d", got, gen)
	}
	if _, _, inv := pred.MemoStats(); inv != 1 {
		t.Fatalf("invalidations=%d after retrain, want 1", inv)
	}

	third := pred.Advise(req)
	if _, misses, _ := pred.MemoStats(); misses != 2 {
		t.Fatal("post-retrain advise did not miss; stale entry survived the flush")
	}
	// The recomputed advice must match a memo-free predictor trained
	// identically — the memo never changes results, only cost.
	predOff, trainerOff, fnOff := memoFixture(t, true, 300, 7)
	trainerOff.Pretrain(fnOff, synthSamples(predOff.Schema(fnOff), 100, 99))
	if want := predOff.Advise(memoReq(fnOff, 800)); third != want {
		t.Fatalf("memoized advice %+v != memo-free advice %+v", third, want)
	}
}

// TestMemoTransparent replays a varied request stream against memo-on
// and memo-off predictors trained identically: every advice must be
// identical, bit for bit.
func TestMemoTransparent(t *testing.T) {
	predOn, _, fnOn := memoFixture(t, false, 300, 11)
	predOff, _, fnOff := memoFixture(t, true, 300, 11)
	widths := []float64{200, 800, 1600, 800, 200, 3200, 800, 1600, 200, 800}
	for i, w := range widths {
		on := predOn.Advise(memoReq(fnOn, w))
		off := predOff.Advise(memoReq(fnOff, w))
		if on != off {
			t.Fatalf("request %d (width=%v): memo-on %+v != memo-off %+v", i, w, on, off)
		}
	}
	if hits, _, _ := predOn.MemoStats(); hits == 0 {
		t.Fatal("repeated widths produced no memo hits; the cache is dead")
	}
}

// TestAdviseHotZeroAlloc is the allocation regression gate for the
// critical-path advice lookup: once a vector is memoized, repeating it
// must not allocate.
func TestAdviseHotZeroAlloc(t *testing.T) {
	pred, _, fn := memoFixture(t, false, 300, 7)
	req := memoReq(fn, 800)
	pred.Advise(req) // populate the memo
	if n := testing.AllocsPerRun(200, func() { pred.Advise(req) }); n != 0 {
		t.Errorf("memoized Advise allocates %v/op, want 0", n)
	}
}

// BenchmarkAdvise measures the end-to-end critical-path advice lookup
// on a memoized vector (the steady state: OFC's workloads repeat
// feature vectors heavily).
func BenchmarkAdvise(b *testing.B) {
	pred, _, fn := memoFixture(b, false, 2000, 7)
	req := memoReq(fn, 800)
	pred.Advise(req)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		pred.Advise(req)
	}
}

// BenchmarkAdviseNoMemo measures the same lookup with memoization off:
// compiled inference (memory class + benefit verdict + benefit score)
// on every call.
func BenchmarkAdviseNoMemo(b *testing.B) {
	pred, _, fn := memoFixture(b, true, 2000, 7)
	req := memoReq(fn, 800)
	pred.Advise(req)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		pred.Advise(req)
	}
}

// TestModelImportReplacesServingModel checks that imported models serve
// at once: a predictor that already memoized advice from its own models
// must answer with the donor's advice after ImportModel, with the
// generation moved on and the memo flushed once.
func TestModelImportReplacesServingModel(t *testing.T) {
	donor, _, fn := memoFixture(t, false, 300, 7)
	bundle, err := donor.ExportModel(fn)
	if err != nil {
		t.Fatal(err)
	}
	req := memoReq(fn, 800)
	want := donor.Advise(req)

	// The host learned a different function of the same name: six
	// times the memory and no caching benefit.
	host := NewPredictor(DefaultPredictorConfig())
	samples := synthSamples(host.Schema(fn), 300, 7)
	for i := range samples {
		samples[i].PeakMem *= 6
		samples[i].Extract, samples[i].Transform, samples[i].Load = time.Millisecond, 100*time.Millisecond, time.Millisecond
	}
	NewModelTrainer(host, sim.NewEnv(1)).Pretrain(fn, samples)
	before := host.Advise(req)
	if before == want {
		t.Fatalf("host and donor already agree (%+v); the test cannot tell the models apart", want)
	}
	gen := host.Generation(fn)

	if err := host.ImportModel(fn, bundle); err != nil {
		t.Fatal(err)
	}
	if got := host.Advise(req); got != want {
		t.Fatalf("advice after import %+v, want the donor's %+v (pre-import advice was %+v)", got, want, before)
	}
	if got := host.Generation(fn); got != gen+1 {
		t.Errorf("generation %d after import, want %d", got, gen+1)
	}
	if _, _, inv := host.MemoStats(); inv != 1 {
		t.Errorf("invalidations=%d after import, want 1", inv)
	}
}

// TestBenefitOnlyRetrainKeepsMemoryModel checks the refit-on-growth
// rule: a retrain triggered by benefit samples alone keeps the memory
// model (its dataset did not grow) yet still starts a new generation
// and flushes the memo, exactly as a full retrain does.
func TestBenefitOnlyRetrainKeepsMemoryModel(t *testing.T) {
	pred, trainer, fn := memoFixture(t, false, 300, 7)
	pred.Advise(memoReq(fn, 800)) // populate the memo
	// A sample the memory model predicts exactly: post-maturation it
	// joins only the benefit dataset (§5.3.3).
	var sample Sample
	for _, s := range synthSamples(pred.Schema(fn), 300, 7) {
		if k, _ := pred.PredictRaw(fn, s.Vals); k == pred.cfg.Intervals.ClassOf(s.PeakMem) {
			sample = s
			break
		}
	}
	if sample.Vals == nil {
		t.Fatal("no exactly-predicted training sample")
	}
	st := pred.state(fn)
	st.mu.Lock()
	memModel, benefitModel, memLen := st.memModel, st.benefitModel, st.memData.Len()
	st.mu.Unlock()
	gen := pred.Generation(fn)

	for i := 0; i < 25; i++ {
		trainer.Observe(fn, &faas.Request{Function: fn}, sample)
	}

	st.mu.Lock()
	defer st.mu.Unlock()
	if st.memData.Len() != memLen {
		t.Fatalf("memory dataset grew %d -> %d; the retrain was not benefit-only", memLen, st.memData.Len())
	}
	if st.memModel != memModel {
		t.Error("benefit-only retrain refit the memory model")
	}
	if st.benefitModel == benefitModel {
		t.Error("benefit-only retrain kept the stale benefit model")
	}
	if st.gen != gen+1 {
		t.Errorf("generation %d after retrain, want %d", st.gen, gen+1)
	}
	if _, _, inv := pred.MemoStats(); inv != 1 {
		t.Errorf("invalidations=%d after retrain, want 1", inv)
	}
}
