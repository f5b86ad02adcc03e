package main

import (
	"encoding/json"
	"math/rand"
	"os"
	"runtime"
	"testing"
	"time"

	"ofc/internal/core"
	"ofc/internal/experiments"
	"ofc/internal/faas"
	"ofc/internal/kvstore"
	"ofc/internal/sim"
)

// BenchEntry is one micro-benchmark in the perf snapshot.
type BenchEntry struct {
	Name         string  `json:"name"`
	NsPerOp      float64 `json:"ns_per_op"`
	AllocsPerOp  float64 `json:"allocs_per_op"`
	BytesPerOp   float64 `json:"bytes_per_op"`
	EventsPerSec float64 `json:"events_per_sec,omitempty"`
}

// ExpEntry records one experiment's host wall-clock time.
type ExpEntry struct {
	ID     string  `json:"id"`
	WallMs float64 `json:"wall_ms"`
}

// QualityEntry is a deterministic behavioral metric (virtual-clock
// counters, not host timings): same seed, same value on every machine,
// so benchdiff can gate on it with zero noise floor.
type QualityEntry struct {
	Name         string  `json:"name"`
	Value        float64 `json:"value"`
	HigherBetter bool    `json:"higher_better"`
}

// BenchFile is the BENCH_sim.json schema: scheduler micro-benchmarks
// plus per-experiment wall-clock and deterministic quality metrics,
// the perf trajectory future changes regress against via
// scripts/benchdiff.go.
type BenchFile struct {
	GoMaxProcs  int            `json:"gomaxprocs"`
	Micro       []BenchEntry   `json:"micro"`
	Experiments []ExpEntry     `json:"experiments"`
	Quality     []QualityEntry `json:"quality,omitempty"`
	TotalWallMs float64        `json:"total_wall_ms"`
}

// writeBenchFile runs the scheduler micro-benchmarks and writes the
// snapshot alongside the per-experiment wall-clock numbers.
func writeBenchFile(path string, exps []ExpEntry, total time.Duration) error {
	f := BenchFile{
		GoMaxProcs:  runtime.GOMAXPROCS(0),
		Micro:       microBenchmarks(),
		Experiments: exps,
		Quality:     qualityMetrics(),
		TotalWallMs: float64(total.Microseconds()) / 1e3,
	}
	data, err := json.MarshalIndent(f, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

// qualityMetrics runs the overload drill and the policy-ablation grid
// (quick mode, fixed seed) and extracts their headline counters.
// Everything here lives on the virtual clock, so the numbers are
// bit-identical across hosts — a drop in goodput or a hit-ratio shift
// in a policy cell is a behavior change, not noise.
func qualityMetrics() []QualityEntry {
	_, res := experiments.Overload(1, true)
	var good int64
	for _, t := range res.Tenants {
		good += t.Good
	}
	healthy := 0.0
	if res.Healthy() {
		healthy = 1
	}
	out := []QualityEntry{
		{Name: "overload/goodput", Value: float64(good), HigherBetter: true},
		{Name: "overload/spike_p99_ms", Value: float64(res.SpikeP99.Microseconds()) / 1e3},
		{Name: "overload/total_retries", Value: float64(res.TotalRetries())},
		{Name: "overload/lost_outputs", Value: float64(res.LostOutputs)},
		{Name: "overload/healthy", Value: healthy, HigherBetter: true},
	}
	_, rows := experiments.Policies(1, true, nil, nil)
	for _, r := range rows {
		cell := r.Eviction + "+" + r.Slack
		out = append(out,
			QualityEntry{Name: "policies/" + cell + "/hit_ratio", Value: r.HitRatio, HigherBetter: true},
			QualityEntry{Name: "policies/" + cell + "/p99_ms", Value: float64(r.P99.Microseconds()) / 1e3},
			QualityEntry{Name: "policies/" + cell + "/reclaim_ms", Value: float64(r.ReclaimLat.Microseconds()) / 1e3},
		)
	}
	// The trace drill is fully deterministic: span coverage shrinking or
	// drops appearing is an instrumentation regression, and a per-phase
	// total moving is a latency change on that path.
	_, tres := experiments.TraceDrill(1)
	out = append(out,
		QualityEntry{Name: "trace/spans", Value: float64(len(tres.Spans)), HigherBetter: true},
		QualityEntry{Name: "trace/drops", Value: float64(tres.Drops)},
	)
	for _, st := range tres.Breakdown {
		out = append(out, QualityEntry{
			Name:  "trace/phase/" + st.Phase + "_total_ms",
			Value: float64(st.Total) / 1e6,
		})
	}
	return out
}

// microBenchmarks exercises the scheduler hot paths through
// testing.Benchmark, reporting allocation rates and event throughput.
func microBenchmarks() []BenchEntry {
	var out []BenchEntry
	add := func(name string, env **sim.Env, fn func(b *testing.B)) {
		r := testing.Benchmark(fn)
		e := BenchEntry{
			Name:        name,
			NsPerOp:     float64(r.T.Nanoseconds()) / float64(r.N),
			AllocsPerOp: float64(r.AllocsPerOp()),
			BytesPerOp:  float64(r.AllocedBytesPerOp()),
		}
		if env != nil && *env != nil && r.T > 0 {
			e.EventsPerSec = float64((*env).Events()) / r.T.Seconds()
		}
		out = append(out, e)
	}

	var env *sim.Env
	add("SleepEvent", &env, func(b *testing.B) {
		b.ReportAllocs()
		env = sim.NewEnv(1)
		env.Go(func() {
			for i := 0; i < b.N; i++ {
				env.Sleep(time.Microsecond)
			}
		})
		b.ResetTimer()
		env.Run()
	})

	add("AfterCallback", &env, func(b *testing.B) {
		b.ReportAllocs()
		env = sim.NewEnv(1)
		n := 0
		var tick func()
		tick = func() {
			n++
			if n < b.N {
				env.After(time.Microsecond, tick)
			}
		}
		env.After(time.Microsecond, tick)
		b.ResetTimer()
		env.Run()
	})

	add("BatchWakeup", &env, func(b *testing.B) {
		b.ReportAllocs()
		env = sim.NewEnv(1)
		e := env
		const fan = 64
		rounds := b.N/fan + 1
		for i := 0; i < fan; i++ {
			e.Go(func() {
				for r := 0; r < rounds; r++ {
					e.Sleep(time.Microsecond)
				}
			})
		}
		b.ResetTimer()
		e.Run()
	})

	add("FutureRoundTrip", nil, func(b *testing.B) {
		b.ReportAllocs()
		e := sim.NewEnv(1)
		e.Go(func() {
			for i := 0; i < b.N; i++ {
				f := sim.NewFuture[int](e)
				e.Go(func() { f.Set(1) })
				f.Wait()
			}
		})
		b.ResetTimer()
		e.Run()
	})

	// Invocation critical-path benchmarks: the advice lookup the
	// controller runs before placement and the proxy's warm/cold read
	// paths (§5.1's latency budget).
	add("AdviseHot", nil, func(b *testing.B) {
		b.ReportAllocs()
		pred := core.NewPredictor(core.DefaultPredictorConfig())
		trainer := core.NewModelTrainer(pred, sim.NewEnv(1))
		fn := &faas.Function{Name: "blur", Tenant: "t", InputType: "image",
			ArgNames: []string{"sigma"}, MemoryBooked: 2 << 30}
		trainer.Pretrain(fn, benchSamples(pred.Schema(fn), 2000, 7))
		req := &faas.Request{Function: fn, Args: map[string]float64{"sigma": 3},
			InputFeatures: map[string]float64{"size": 64 * 1024, "width": 800, "height": 600, "channels": 3}}
		pred.Advise(req) // memoize
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			pred.Advise(req)
		}
	})

	// Model retraining off the critical path: one op pretrains a fresh
	// predictor, i.e. fits a memory and a benefit J48 model on 2000
	// samples each.
	add("RetrainJ48", nil, func(b *testing.B) {
		b.ReportAllocs()
		fn := &faas.Function{Name: "blur", Tenant: "t", InputType: "image",
			ArgNames: []string{"sigma"}, MemoryBooked: 2 << 30}
		env := sim.NewEnv(1)
		samples := benchSamples(core.NewPredictor(core.DefaultPredictorConfig()).Schema(fn), 2000, 7)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			pred := core.NewPredictor(core.DefaultPredictorConfig())
			core.NewModelTrainer(pred, env).Pretrain(fn, samples)
		}
	})

	add("GetHit", nil, func(b *testing.B) {
		b.ReportAllocs()
		sys := benchSystem(1)
		w := sys.WorkerNodes[0]
		sys.Env.Go(func() {
			sys.KV.SetMemoryLimit(w, 1<<30)
			if _, err := sys.Backend.Write(w, "img/hot", kvstore.Synthetic(4<<10), nil, w); err != nil {
				b.Errorf("seed write: %v", err)
				return
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := sys.RC.Get(w, "img/hot", faas.PutOpts{}); err != nil {
					b.Errorf("get: %v", err)
					return
				}
			}
		})
		sys.Env.Run()
	})

	add("GetMissCoalesced", nil, func(b *testing.B) {
		b.ReportAllocs()
		sys := benchSystem(1)
		sys.RC.EnableMissCoalescing()
		w := sys.WorkerNodes[0]
		const fan = 4
		sys.Env.Go(func() {
			sys.RSDS.Put(sys.CtrlNode, "img/cold", kvstore.Synthetic(64<<10), nil, false)
			b.ResetTimer()
			// One op = a fan of concurrent misses sharing one RSDS fetch
			// (uncacheable, so every round misses again).
			for i := 0; i < b.N; i++ {
				wg := sim.NewWaitGroup(sys.Env)
				for j := 0; j < fan; j++ {
					wg.Add(1)
					sys.Env.Go(func() {
						defer wg.Done()
						if _, err := sys.RC.Get(w, "img/cold", faas.PutOpts{}); err != nil {
							b.Errorf("get: %v", err)
						}
					})
				}
				wg.Wait()
			}
		})
		sys.Env.Run()
	})

	return out
}

// benchSystem builds a small quiet system for proxy-path benchmarks:
// no cache agents, grants driven manually.
func benchSystem(seed int64) *core.System {
	opts := core.DefaultOptions()
	opts.Seed = seed
	opts.Workers = 3
	opts.NodeCapacity = 4 << 30
	opts.DisableCacheAgents = true
	return core.NewSystem(opts)
}

// benchSamples synthesizes a training set for the predictor benchmarks
// (the internal/core test generator, reproduced for the snapshot tool).
func benchSamples(schema *core.FeatureSchema, n int, seed int64) []core.Sample {
	rng := rand.New(rand.NewSource(seed))
	type input struct{ size, width float64 }
	pool := make([]input, 16)
	for i := range pool {
		pool[i] = input{
			size:  float64(1+rng.Intn(128)) * 1024,
			width: float64(100 + rng.Intn(19)*100),
		}
	}
	out := make([]core.Sample, 0, n)
	for i := 0; i < n; i++ {
		in := pool[rng.Intn(len(pool))]
		sigma := float64(1+rng.Intn(8)) * 0.5
		mem := int64(64<<20) + int64(in.size/1024)*(1<<20) + int64(20*sigma)*(1<<20)
		vals := make([]float64, len(schema.Names()))
		for j, name := range schema.Names() {
			switch name {
			case "size":
				vals[j] = in.size
			case "width":
				vals[j] = in.width
			case "height":
				vals[j] = in.width * 0.75
			case "channels":
				vals[j] = 3
			case "sigma":
				vals[j] = sigma
			}
		}
		out = append(out, core.Sample{
			Vals: vals, PeakMem: mem,
			Extract: 40 * time.Millisecond, Transform: 20 * time.Millisecond, Load: 115 * time.Millisecond,
			BenefitKnown: true,
		})
	}
	return out
}
