package main

import (
	"fmt"
	"math"
	"math/rand"
	"time"

	"ofc/internal/core"
	"ofc/internal/experiments"
	"ofc/internal/faas"
	"ofc/internal/sim"
	"ofc/internal/workload"
)

// workloadDef is a workload's constructor and how many independent
// sub-seeds one run pools.
type workloadDef struct {
	mk       func() shape
	subSeeds int
}

// shapes maps each workload name to its definition; every repetition
// builds its workload afresh from its sub-seed.
var shapes = map[string]workloadDef{
	"warm_hit": {func() shape { return &warmHit{clients: 4, perClient: 250, images: 256} }, 20},
	"zipf_churn": {func() shape {
		return &zipfChurn{arrivals: 1000, pace: 150 * time.Millisecond, zipfV: 300, capacity: 4 << 30,
			sizes: []int64{3 << 20}, perSize: 600}
	}, 24},
	"macro_mix": {func() shape {
		return &macroMix{tenantsPerWorkload: 3, think: 4 * time.Second, window: 4 * time.Minute}
	}, 6},
}

// pretrain matures one function's models from its pool and charges the
// host time to predictor.pretrain_s.
func pretrain(r *rep, spec *workload.Spec, fn *faas.Function, pool *workload.InputPool) {
	r.timed("pretrain_ns", func() { r.d.Pretrain(spec, fn, pool, 300) })
}

// ---------------------------------------------------------------------
// warm_hit: a closed loop over a small, fully cached image set.

type warmHit struct {
	clients, perClient, images int

	spec  *workload.Spec
	fn    *faas.Function
	pool  *workload.InputPool
	rng   *rand.Rand
	crngs []*rand.Rand
}

func (w *warmHit) config(seed int64) experiments.DeployConfig {
	cfg := experiments.DefaultDeploy()
	cfg.Seed = seed
	return cfg
}

func (w *warmHit) prepare(r *rep, seed int64) {
	w.spec = workload.SpecByName("wand_blur")
	w.fn = r.d.Suite.Build(w.spec, "warm", 0)
	r.d.Register(w.fn)
	w.rng = rand.New(rand.NewSource(seed))
	w.pool = workload.NewInputPool(w.rng, w.spec.InputType, "warm/in", []int64{16 << 10, 64 << 10}, w.images/2)
	pretrain(r, w.spec, w.fn, w.pool)
	for i := 0; i < w.clients; i++ {
		w.crngs = append(w.crngs, rand.New(rand.NewSource(w.rng.Int63())))
	}
}

// stage writes the images and invokes the function once per image, so
// every image is cached before measurement; the drain lets the warm-up
// outputs persist.
func (w *warmHit) stage(r *rep) {
	w.pool.Stage(r.d.Writer)
	for _, in := range w.pool.Inputs {
		r.unmeasured(r.d.Platform.Invoke(workload.NewRequest(w.fn, w.spec, in, w.spec.GenArgs(w.rng))))
	}
	r.d.Env.Sleep(drainTime)
}

func (w *warmHit) drive(r *rep) {
	env := r.d.Env
	wg := sim.NewWaitGroup(env)
	for _, rng := range w.crngs {
		rng := rng
		wg.Add(1)
		env.Go(func() {
			defer wg.Done()
			for i := 0; i < w.perClient; i++ {
				in := w.pool.Inputs[rng.Intn(len(w.pool.Inputs))]
				req := workload.NewRequest(w.fn, w.spec, in, w.spec.GenArgs(rng))
				r.issue()
				start := env.Now()
				r.single(start, r.d.Platform.Invoke(req))
			}
		})
	}
	wg.Wait()
}

func (w *warmHit) requests() int        { return w.clients * w.perClient }
func (w *warmHit) spansPerRequest() int { return 24 }

func (w *warmHit) target() probeTarget {
	return probeTarget{fn: w.fn, spec: w.spec, in: w.pool.Inputs[0], args: w.spec.GenArgs(w.rng)}
}

// ---------------------------------------------------------------------
// zipf_churn: an open loop of Zipf-skewed MB-sized inputs whose working
// set exceeds the cache grant.

type zipfChurn struct {
	arrivals int
	pace     time.Duration
	zipfV    float64
	capacity int64
	sizes    []int64
	perSize  int

	spec  *workload.Spec
	fn    *faas.Function
	pool  *workload.InputPool
	args  map[string]float64
	order []int // input index of each arrival
}

// config follows the policy ablation's cell (3 workers, the
// paper-default memctl policy, agent cadences compressed so eviction
// and slack adaptation fire within minutes) but with 4 GiB workers. At
// the ablation's 1 GiB some seeds refuse requests with ErrNoCapacity;
// at 2 GiB sandboxes and cache still contend, and the grant swings
// between ~0.05 and ~0.8 GiB from one seed to the next, taking the hit
// ratio and every latency with it. At 4 GiB the grant settles near
// 1.4 GiB, still short of the 1.8 GiB working set.
func (w *zipfChurn) config(seed int64) experiments.DeployConfig {
	cfg := experiments.DefaultDeploy()
	cfg.Workers = 3
	cfg.NodeCapacity = w.capacity
	cfg.Seed = seed
	cfg.Tune = func(o *core.Options) {
		o.Agent.EvictionEvery = 45 * time.Second
		o.Agent.MaxIdle = 2 * time.Minute
		o.Agent.SlackAdjustEvery = 60 * time.Second
		o.Agent.ChurnSampleEvery = 30 * time.Second
	}
	return cfg
}

func (w *zipfChurn) prepare(r *rep, seed int64) {
	w.spec = workload.SpecByName("sharp_resize")
	w.fn = r.d.Suite.Build(w.spec, "zipf", 0)
	r.d.Register(w.fn)
	rng := rand.New(rand.NewSource(seed))
	w.pool = workload.NewInputPool(rng, w.spec.InputType, "zipf/in", w.sizes, w.perSize)
	pretrain(r, w.spec, w.fn, w.pool)
	w.args = w.spec.GenArgs(rng)
	// A large v flattens the head: at v=1 the hottest input alone draws
	// ~40% of requests, and whether its image happens to be large
	// decides the run's latencies. v is half the input count.
	zipf := rand.NewZipf(rng, 1.2, w.zipfV, uint64(len(w.pool.Inputs)-1))
	w.order = make([]int, w.arrivals)
	for i := range w.order {
		w.order[i] = int(zipf.Uint64())
	}
}

func (w *zipfChurn) stage(r *rep) { w.pool.Stage(r.d.Writer) }

// drive spawns each arrival as its own process at its due time, so a
// slow request never delays the next one; latency runs from the due
// time. Once every request has returned, each worker holding cache is
// asked to hand back all but a tenth of its resident bytes (the §6.4
// reclaim critical path), as the policy ablation does.
func (w *zipfChurn) drive(r *rep) {
	env := r.d.Env
	wg := sim.NewWaitGroup(env)
	start := env.Now()
	for i, idx := range w.order {
		due := start + sim.Time(time.Duration(i)*w.pace)
		env.Sleep(time.Duration(due - env.Now()))
		in := w.pool.Inputs[idx]
		wg.Add(1)
		r.issue()
		env.Go(func() {
			defer wg.Done()
			r.late(time.Duration(env.Now() - due))
			r.single(due, r.d.Platform.Invoke(workload.NewRequest(w.fn, w.spec, in, w.args)))
		})
	}
	wg.Wait()
	sys := r.d.Sys
	for _, inv := range r.d.Platform.Invokers() {
		node := inv.Node()
		used, _ := sys.KV.Usage(node)
		if used < 8<<20 {
			continue
		}
		lat, _ := sys.Gov.Reclaim(node, inv.CacheGrant()-used/10)
		r.reclaimed(lat)
	}
}

func (w *zipfChurn) requests() int        { return w.arrivals }
func (w *zipfChurn) spansPerRequest() int { return 24 }

func (w *zipfChurn) target() probeTarget {
	return probeTarget{fn: w.fn, spec: w.spec, in: w.pool.Inputs[0], args: w.args}
}

// ---------------------------------------------------------------------
// macro_mix: the 24-tenant mix of §7.2.2, each tenant a closed loop
// with exponential think time.

// macroSingle is the image half of the macro tenant mix.
var macroSingle = []string{"wand_blur", "wand_resize", "wand_sepia", "wand_rotate", "wand_denoise", "wand_edge"}

type macroMix struct {
	tenantsPerWorkload int
	think, window      time.Duration

	tenants []*tenant
}

// tenant is one FaaSLoad-style user: a single function or a pipeline
// over its own input pool, with private argument and think-time
// streams.
type tenant struct {
	spec  *workload.Spec // nil for a pipeline tenant
	fn    *faas.Function
	pl    *workload.Pipeline
	pool  *workload.InputPool
	args  *rand.Rand
	think *rand.Rand
	// cycles, when positive, replaces random picks and the window: the
	// tenant walks its pool in order that many times, then stops.
	cycles int
	next   int
}

// pick returns the tenant's next input.
func (t *tenant) pick() workload.InputMeta {
	if t.cycles == 0 {
		return t.pool.Pick()
	}
	in := t.pool.Inputs[t.next%len(t.pool.Inputs)]
	t.next++
	return in
}

// videoClasses returns one video per (resolution, frame rate) class
// from candidates, in a seeded order. A THIS run's cost follows its
// video's duration, which the class sets to within ±20%; a random pick
// of a handful of videos would make the mix's cost a lottery between
// seeds, so every THIS tenant runs every class the same number of
// times instead.
func videoClasses(rng *rand.Rand, candidates *workload.InputPool) []workload.InputMeta {
	seen := map[[2]float64]bool{}
	var out []workload.InputMeta
	for _, in := range candidates.Inputs {
		class := [2]float64{in.Features["width"], in.Features["fps"]}
		if !seen[class] {
			seen[class] = true
			out = append(out, in)
		}
	}
	rng.Shuffle(len(out), func(i, j int) { out[i], out[j] = out[j], out[i] })
	return out
}

// config is RunMacro's deployment: the paper's 4 workers with memory
// large enough that booking, not capacity, limits sandboxes.
func (w *macroMix) config(seed int64) experiments.DeployConfig {
	cfg := experiments.DefaultDeploy()
	cfg.Seed = seed
	cfg.NodeCapacity = 256 << 30
	return cfg
}

// prepare builds the tenant mix with the calls RunMacro makes
// (Macro24's ten inputs per size bucket, the normal booking profile).
func (w *macroMix) prepare(r *rep, seed int64) {
	d := r.d
	rng := rand.New(rand.NewSource(seed))
	streams := rand.New(rand.NewSource(seed + 7))
	add := func(t *tenant) {
		t.args = rand.New(rand.NewSource(streams.Int63()))
		t.think = rand.New(rand.NewSource(streams.Int63()))
		w.tenants = append(w.tenants, t)
	}
	const perSize = 10
	for k := 0; k < w.tenantsPerWorkload; k++ {
		for _, name := range macroSingle {
			spec := workload.SpecByName(name)
			name := fmt.Sprintf("%s-%d", name, k)
			pool := workload.NewInputPool(rng, spec.InputType, "macro/"+name,
				[]int64{1 << 10, 16 << 10, 32 << 10, 64 << 10, 128 << 10}, perSize)
			booked := workload.BookedMem(workload.ProfileNormal, spec.MaxMem(pool, rng), 2<<30)
			fn := d.Suite.Build(spec, name, booked)
			d.Register(fn)
			pretrain(r, spec, fn, pool)
			add(&tenant{spec: spec, fn: fn, pool: pool})
		}
		mrName := fmt.Sprintf("map_reduce-%d", k)
		mr := workload.NewMapReduce(d.Suite, mrName, workload.ProfileNormal, 2<<30)
		w.addPipeline(r, mr, rng)
		add(&tenant{pl: mr, pool: workload.NewInputPool(rng, "text", "macro/"+mrName, []int64{10 << 20}, 2)})

		thName := fmt.Sprintf("THIS-%d", k)
		th := workload.NewTHIS(d.Suite, thName, workload.ProfileNormal, 2<<30)
		w.addPipeline(r, th, rng)
		videos := videoClasses(rng, workload.NewInputPool(rng, "video", "macro/"+thName, []int64{50 << 20}, 60))
		add(&tenant{pl: th, pool: &workload.InputPool{Inputs: videos}, cycles: thisCycles})
	}
}

func (w *macroMix) addPipeline(r *rep, pl *workload.Pipeline, rng *rand.Rand) {
	for _, fn := range pl.Funcs {
		r.d.Register(fn)
	}
	r.timed("pretrain_ns", func() { pl.Pretrain(r.d.Sys.Trainer, r.d.Store.Profile(), 250, rng) })
}

func (w *macroMix) stage(r *rep) {
	for _, t := range w.tenants {
		if t.pl == nil {
			t.pool.Stage(r.d.Writer)
			continue
		}
		for _, in := range t.pool.Inputs {
			t.pl.StageInput(r.d.Writer, in)
		}
	}
}

// thisCycles is how many times each THIS tenant runs each video class;
// workload.GenFeatures draws videos from videoClassCount classes (three
// resolutions by three frame rates).
const (
	thisCycles      = 2
	videoClassCount = 9
)

// drive runs every tenant until its next request would start after the
// window closes (requests already started run to completion), or, for
// a cycling tenant, until it has walked its pool thisCycles times.
func (w *macroMix) drive(r *rep) {
	env := r.d.Env
	wg := sim.NewWaitGroup(env)
	end := env.Now() + sim.Time(w.window)
	for ti, t := range w.tenants {
		ti, t := ti, t
		wg.Add(1)
		env.Go(func() {
			defer wg.Done()
			for seq := 1; ; seq++ {
				wait := time.Duration(-math.Log(1-t.think.Float64()) * float64(w.think))
				switch {
				case t.cycles > 0:
					if t.next >= t.cycles*len(t.pool.Inputs) {
						return
					}
				case env.Now()+sim.Time(wait) >= end:
					return
				}
				env.Sleep(wait)
				in := t.pick()
				r.issue()
				start := env.Now()
				if t.pl != nil {
					r.pipeline(start, t.pl.Run(r.d.Platform, in, fmt.Sprintf("t%d-%d", ti, seq)))
					continue
				}
				r.single(start, r.d.Platform.Invoke(workload.NewRequest(t.fn, t.spec, in, t.spec.GenArgs(t.args))))
			}
		})
	}
	wg.Wait()
}

// requests bounds the closed loops: a windowed tenant waits a
// think-time mean plus its request's latency between requests, so it
// issues fewer than window/think; a THIS tenant issues a fixed number.
func (w *macroMix) requests() int {
	windowed := (len(macroSingle) + 1) * w.tenantsPerWorkload * int(w.window/w.think)
	return windowed + w.tenantsPerWorkload*thisCycles*videoClassCount
}

// spansPerRequest is high because a THIS run fans out into hundreds of
// stage invocations.
func (w *macroMix) spansPerRequest() int { return 250 }

func (w *macroMix) target() probeTarget {
	t := w.tenants[0]
	return probeTarget{fn: t.fn, spec: t.spec, in: t.pool.Inputs[0], args: t.spec.GenArgs(t.args)}
}
