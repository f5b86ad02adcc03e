package main

import (
	"errors"
	"fmt"
	"runtime"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"ofc/internal/core"
	"ofc/internal/experiments"
	"ofc/internal/faas"
	"ofc/internal/sim"
	"ofc/internal/simnet"
	"ofc/internal/trace"
	"ofc/internal/workload"
)

// repMode selects what one repetition records besides the request
// latencies and the layer counters, which every repetition records.
type repMode int

const (
	// modePlain runs with tracing off and nothing wrapped: the
	// end-to-end host numbers come from these repetitions.
	modePlain repMode = iota
	// modeProbed runs with tracing off, host timers around the
	// platform's Advisor and Observer hooks, and the per-layer probes
	// after the measured phase.
	modeProbed
	// modeTraced runs with the deterministic span recorder on.
	modeTraced
)

func (m repMode) String() string {
	return [...]string{"plain", "probed", "traced"}[m]
}

// drainTime lets write-backs and persists of the last requests finish
// inside the measured phase, before its counters are read.
const drainTime = 5 * time.Second

// shape is one workload: how its deployment is built, what is staged
// before the measured phase, and what the measured phase issues.
type shape interface {
	// config sizes the deployment.
	config(seed int64) experiments.DeployConfig
	// prepare registers functions, builds input pools from the seed
	// and pretrains models, outside the simulation.
	prepare(r *rep, seed int64)
	// stage runs inside the simulation before measurement: input
	// staging and any warm-up pass.
	stage(r *rep)
	// drive issues the measured requests and returns when all have
	// completed.
	drive(r *rep)
	// requests bounds the measured requests and spansPerRequest the
	// spans one of them records, to size a tracer that drops nothing.
	requests() int
	spansPerRequest() int
	// target names the function, input and arguments the warm-invoke
	// and advice probes use.
	target() probeTarget
}

type probeTarget struct {
	fn   *faas.Function
	spec *workload.Spec
	in   workload.InputMeta
	args map[string]float64
}

// rep is one repetition: a fresh deployment at one sub-seed, one
// measured phase, and everything recorded about it.
type rep struct {
	d      *experiments.Deployment
	mode   repMode
	sub    int // index of the repetition's sub-seed
	tracer *trace.Tracer
	adv    *timedAdvisor
	obs    *timedObserver

	// Recorded by simulation processes (serialized by the simulator,
	// guarded for the race detector).
	mu                      sync.Mutex
	t                       tally
	issued, completed       int
	singleOK, pipelineOK    int // successful runs that leave a final object in the RSDS
	sampling                bool
	errs                    []string
	setupStart, measureFrom time.Duration // process CPU time
	// overSince holds, for each cache server above its memory limit at
	// the last sample, the sample time it was first seen above it;
	// grace is the agent eviction cadence it has to get back under.
	overSince map[simnet.NodeID]sim.Time
	grace     time.Duration
	ms0       runtime.MemStats
	c0        counters

	// hostRaw holds host values, reduced across repetitions. Values
	// that are fractions of a unit per call (ns per probe call,
	// allocations per call, ns per event) are kept in thousandths so
	// they stay integral without losing digits.
	hostRaw map[string]int64
}

// tally is everything deterministic one or more repetitions recorded:
// tallies of several sub-seeds add up to one pooled sample.
type tally struct {
	lats               []int64 // virtual ns, one per measured request
	failed, noCapacity int
	invocations        int
	queue, extract     time.Duration
	xform, load        time.Duration
	grantSum           float64
	grantN, overruns   int
	reclaimProbe       time.Duration
	lateMax            time.Duration
	dc                 counters // counter deltas of the measured phases
	// Traced repetitions only.
	traced bool
	phases map[string]phaseStat
	spans  int
	drops  int64
	// Probed repetitions only.
	probed      bool
	probeEvents map[string]int64
	probeCalls  map[string]int64
}

// add pools o into t.
func (t *tally) add(o *tally) {
	t.lats = append(t.lats, o.lats...)
	t.failed += o.failed
	t.noCapacity += o.noCapacity
	t.invocations += o.invocations
	t.queue += o.queue
	t.extract += o.extract
	t.xform += o.xform
	t.load += o.load
	t.grantSum += o.grantSum
	t.grantN += o.grantN
	t.overruns += o.overruns
	t.reclaimProbe = max(t.reclaimProbe, o.reclaimProbe)
	t.lateMax = max(t.lateMax, o.lateMax)
	if t.dc == nil {
		t.dc = counters{}
	}
	t.dc.add(o.dc)
	if o.traced {
		t.traced = true
		if t.phases == nil {
			t.phases = map[string]phaseStat{}
		}
		for name, st := range o.phases {
			acc := t.phases[name]
			acc.Count += st.Count
			acc.Self += st.Self
			t.phases[name] = acc
		}
		t.spans += o.spans
		t.drops += o.drops
	}
	if o.probed {
		t.probed = true
		if t.probeEvents == nil {
			t.probeEvents, t.probeCalls = map[string]int64{}, map[string]int64{}
		}
		for k, v := range o.probeEvents {
			t.probeEvents[k] += v
			t.probeCalls[k] += o.probeCalls[k]
		}
	}
}

func (r *rep) errorf(format string, args ...any) {
	r.mu.Lock()
	r.errs = append(r.errs, fmt.Sprintf(format, args...))
	r.mu.Unlock()
}

// issue marks a request as sent; every issued request must later be
// recorded as completed or failed.
func (r *rep) issue() {
	r.mu.Lock()
	r.issued++
	r.mu.Unlock()
}

// invocationLocked folds one platform result into the phase means.
func (r *rep) invocationLocked(res *faas.Result) {
	r.t.invocations++
	r.t.queue += res.QueueDelay
	r.t.extract += res.Extract
	r.t.xform += res.Transform
	r.t.load += res.Load
}

// finishLocked records a measured request's outcome and latency.
func (r *rep) finishLocked(lat time.Duration, err error) {
	r.t.lats = append(r.t.lats, int64(lat))
	if err != nil {
		r.t.failed++
		if errors.Is(err, faas.ErrNoCapacity) {
			r.t.noCapacity++
		}
		return
	}
	r.completed++
}

// single records a measured single-function request due at due.
func (r *rep) single(due sim.Time, res *faas.Result) {
	lat := time.Duration(r.d.Env.Now() - due)
	r.mu.Lock()
	defer r.mu.Unlock()
	r.invocationLocked(res)
	r.finishLocked(lat, res.Err)
	if res.Err == nil {
		r.singleOK++
	}
}

// pipeline records a measured pipeline run issued at due.
func (r *rep) pipeline(due sim.Time, res *workload.PipelineResult) {
	lat := time.Duration(r.d.Env.Now() - due)
	r.mu.Lock()
	defer r.mu.Unlock()
	for _, sr := range res.Results {
		r.invocationLocked(sr)
	}
	r.finishLocked(lat, res.Err)
	if res.Err == nil {
		r.pipelineOK++
	}
}

// unmeasured notes a warm-up or probe invocation: it leaves an output
// object but no latency sample.
func (r *rep) unmeasured(res *faas.Result) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if res.Err != nil {
		r.errs = append(r.errs, fmt.Sprintf("unmeasured invocation failed: %v", res.Err))
		return
	}
	r.singleOK++
}

// late records how far behind its due time an open-loop request was
// sent.
func (r *rep) late(d time.Duration) {
	r.mu.Lock()
	r.t.lateMax = max(r.t.lateMax, d)
	r.mu.Unlock()
}

// reclaimed records the latency of one end-of-run reclaim probe.
func (r *rep) reclaimed(d time.Duration) {
	r.mu.Lock()
	r.t.reclaimProbe = max(r.t.reclaimProbe, d)
	r.mu.Unlock()
}

// runRep executes one repetition of w at seed in the given mode.
func runRep(mk func() shape, seed int64, mode repMode) *rep {
	w := mk()
	r := &rep{mode: mode, hostRaw: map[string]int64{}, overSince: map[simnet.NodeID]sim.Time{}}
	// Collect the previous repetition's deployment first, so set-up
	// starts from the same heap each time instead of paying for a
	// garbage collection at a point that varies between repetitions.
	runtime.GC()
	r.setupStart = cpuTime()
	cfg := w.config(seed)
	opts := core.DefaultOptions()
	if cfg.Tune != nil {
		cfg.Tune(&opts)
	}
	r.grace = opts.Agent.EvictionEvery
	r.d = experiments.NewDeployment(experiments.ModeOFC, cfg)
	switch mode {
	case modeTraced:
		// Sized so the measured phase drops nothing: a quarter of
		// headroom over the workload's own bound, spread over shards.
		est := w.spansPerRequest() * w.requests()
		r.tracer = r.d.Sys.EnableTracing(trace.Config{
			Shards: traceShards, ShardCap: (est+est/4)/traceShards + 4096,
		})
	case modeProbed:
		r.adv = &timedAdvisor{inner: r.d.Platform.Advisor}
		r.obs = &timedObserver{inner: r.d.Platform.Observer}
		r.d.Platform.Advisor = r.adv
		r.d.Platform.Observer = r.obs
	}
	w.prepare(r, seed)
	r.d.Sys.Run(func() {
		w.stage(r)
		r.startMeasure()
		w.drive(r)
		r.d.Env.Sleep(drainTime)
		r.endMeasure(w)
	})
	r.finalChecks()
	// Keep only what was recorded: a run holds every repetition, and
	// its peak RSS should be one deployment's, not the sum of them.
	r.d, r.tracer, r.adv, r.obs = nil, nil, nil, nil
	return r
}

const traceShards = 8

// timed runs f and adds the process CPU time it took to hostRaw[key].
func (r *rep) timed(key string, f func()) {
	t := cpuTime()
	f()
	r.hostRaw[key] += int64(cpuTime() - t)
}

// cpuTime returns the CPU time (user and system, all threads) the
// process has used. Set-up and measured phases are timed with it
// rather than the wall clock: the benchmark runs on shared machines,
// where time other processes take from this one would otherwise read
// as a slower simulator.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		panic(err)
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// startMeasure closes set-up and opens the measured phase: counters,
// heap and clock are read, the tracer and hook timers restart from
// zero, and the grant/usage sampler starts.
func (r *rep) startMeasure() {
	r.hostRaw["setup_ns"] = int64(cpuTime() - r.setupStart)
	runtime.GC()
	r.c0 = readCounters(r.d)
	r.tracer.Reset()
	if r.adv != nil {
		r.adv.reset()
		r.obs.reset()
	}
	r.mu.Lock()
	r.sampling = true
	r.mu.Unlock()
	r.sample()
	r.d.Env.Every(time.Second, func() bool {
		r.mu.Lock()
		on := r.sampling
		r.mu.Unlock()
		if on {
			r.sample()
		}
		return on
	})
	runtime.ReadMemStats(&r.ms0)
	r.measureFrom = cpuTime()
}

// sample records the cache grant for grant_gib_mean and counts cache
// servers found above their memory limit. The limit is a target the
// cache agent frees space towards (kvstore.SetMemoryLimit does not
// evict), so a sample above it is counted in limit_overruns. A server
// still above its limit one agent eviction cadence after it was first
// seen there fails the run, as does one above it once the run drains
// (endMeasure).
func (r *rep) sample() {
	now := r.d.Env.Now()
	over := r.overLimit()
	g := float64(r.d.Sys.CacheGrantBytes()) / float64(1<<30)
	r.mu.Lock()
	defer r.mu.Unlock()
	r.t.grantSum += g
	r.t.grantN++
	r.t.overruns += len(over)
	seen := map[simnet.NodeID]bool{}
	for _, o := range over {
		seen[o.node] = true
		since, ok := r.overSince[o.node]
		switch {
		case !ok:
			r.overSince[o.node] = now
		case now-since > r.grace:
			r.errs = append(r.errs, fmt.Sprintf("%s, and has been since %v, longer than the %v eviction cadence", o, since, r.grace))
			r.overSince[o.node] = now // one error per cadence
		}
	}
	for node := range r.overSince {
		if !seen[node] {
			delete(r.overSince, node)
		}
	}
}

// overrun is one cache server found above its memory limit.
type overrun struct {
	node        simnet.NodeID
	used, limit int64
	at          sim.Time
}

func (o overrun) String() string {
	return fmt.Sprintf("node %d: cache usage %d exceeds its limit %d at %v", o.node, o.used, o.limit, o.at)
}

// overLimit returns every cache server whose usage exceeds its limit.
func (r *rep) overLimit() []overrun {
	var out []overrun
	for _, node := range r.d.Workers {
		if used, limit := r.d.Sys.KV.Usage(node); used > limit {
			out = append(out, overrun{node, used, limit, r.d.Env.Now()})
		}
	}
	return out
}

// endMeasure closes the measured phase and records its counter
// deltas and spans; probed repetitions then time the layer entry
// points.
func (r *rep) endMeasure(w shape) {
	measured := cpuTime() - r.measureFrom
	var ms1 runtime.MemStats
	runtime.ReadMemStats(&ms1)
	c1 := readCounters(r.d)
	drained := r.overLimit()
	r.mu.Lock()
	r.sampling = false
	for _, o := range drained {
		r.errs = append(r.errs, fmt.Sprintf("after the drain, %s", o))
	}
	r.t.dc = c1.sub(r.c0)
	n := int64(max(len(r.t.lats), 1))
	switch r.mode {
	case modePlain:
		r.hostRaw["measured_ns"] = int64(measured)
		r.hostRaw["alloc_bytes"] = int64(ms1.TotalAlloc - r.ms0.TotalAlloc)
	case modeTraced:
		r.hostRaw["traced_ns_per_request"] = int64(measured) / n
		r.recordTrace()
	case modeProbed:
		r.hostRaw["ns_per_request"] = int64(measured) / n
		r.hostRaw["ps_per_event"] = int64(measured) * 1000 / max(r.t.dc["events"], 1)
		r.hostRaw["advise_ps_per_call"] = r.adv.ns.Load() * 1000 / max(r.adv.calls.Load(), 1)
		r.hostRaw["observe_ps_per_call"] = r.obs.ns.Load() * 1000 / max(r.obs.calls.Load(), 1)
		r.t.probed = true
		r.t.probeEvents, r.t.probeCalls = map[string]int64{}, map[string]int64{}
	}
	r.mu.Unlock()
	if r.mode == modeProbed {
		r.runProbes(w.target())
	}
}

// recordTrace reduces the measured phase's spans to per-phase counts
// and self times, and cross-checks spans against the counters; r.mu is
// held.
func (r *rep) recordTrace() {
	spans := r.tracer.Snapshot()
	r.t.traced = true
	r.t.spans = len(spans)
	r.t.drops = r.tracer.Drops()
	if r.t.drops != 0 {
		r.errs = append(r.errs, fmt.Sprintf("tracer dropped %d spans", r.t.drops))
	}
	if err := trace.Validate(spans); err != nil {
		r.errs = append(r.errs, fmt.Sprintf("trace validation: %v", err))
	}
	r.t.phases = selfTimes(spans)
	dc := r.t.dc
	if got, want := int64(r.t.phases["cache.get"].Count), dc["rc.hits"]+dc["rc.misses"]; got != want {
		r.errs = append(r.errs, fmt.Sprintf("cache.get spans %d != cache hits+misses %d", got, want))
	}
	if got, want := int64(r.t.phases["rsds.fetch"].Count), dc["rsds.gets"]; got != want {
		r.errs = append(r.errs, fmt.Sprintf("rsds.fetch spans %d != RSDS gets %d", got, want))
	}
}

// values computes every deterministic value of a (pooled) tally: the
// end-to-end virtual latencies and every per-layer count, ratio and
// virtual time.
func (t *tally) values() map[string]float64 {
	v := map[string]float64{}
	n := len(t.lats)
	sorted := append([]int64(nil), t.lats...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i] < sorted[j] })
	ts := make([]sim.Time, n)
	var sum int64
	for i, x := range sorted {
		ts[i] = sim.Time(x)
		sum += x
	}
	const ms = float64(time.Millisecond)
	v["requests"] = float64(n)
	v["failed"] = float64(t.failed)
	v["fingerprint"] = float64(fingerprint(sorted) >> 11) // exact in a float64
	v["latency_p50_ms"] = float64(trace.Quantile(ts, 0.50)) / ms
	v["latency_p99_ms"] = float64(trace.Quantile(ts, 0.99)) / ms
	v["latency_mean_ms"] = perRequest(float64(sum), n) / ms
	v["generator_late_ms"] = float64(t.lateMax) / ms

	dc := t.dc
	v["events"] = float64(dc["events"])
	v["sim.events_per_request"] = perRequest(float64(dc["events"]), n)
	v["simnet.bytes_per_request"] = perRequest(float64(dc["net.bytes_sent"]), n)
	v["kvstore.server_rpcs_per_request"] = perRequest(float64(dc["kv.server_rpcs"]), n)
	v["kvstore.coord_rpcs_per_request"] = perRequest(float64(dc["kv.coord_rpcs"]), n)
	v["kvstore.promotions"] = float64(dc["kv.promotions"])
	v["store.batch_read_keys_per_request"] = perRequest(float64(dc["store.batch_read_keys"]), n)
	v["store.retries"] = float64(dc["rc.cache_retries"])
	v["store.timeouts"] = float64(dc["rc.cache_timeouts"])
	v["objstore.gets_per_request"] = perRequest(float64(dc["rsds.gets"]), n)
	v["objstore.puts_per_request"] = perRequest(float64(dc["rsds.puts"]), n)
	v["objstore.bytes_read_per_request"] = perRequest(float64(dc["rsds.bytes_read"]), n)

	hits, misses := dc["rc.hits"], dc["rc.misses"]
	inHits := hits - dc["rc.ephem_hits"]
	v["rclib.input_hit_ratio"] = ratio(inHits, inHits+misses-dc["rc.ephem_misses"])
	v["rclib.hit_ratio"] = ratio(hits, hits+misses)
	v["rclib.local_hit_share"] = ratio(dc["rc.local_hits"], hits)
	v["rclib.admissions_per_request"] = perRequest(float64(dc["rc.admissions"]), n)
	v["rclib.writebacks_per_request"] = perRequest(float64(dc["rc.writebacks"]), n)
	v["rclib.bypass_writes"] = float64(dc["rc.bypass_writes"])
	v["rclib.fallbacks"] = float64(dc["rc.fallback_reads"] + dc["rc.fallback_writes"])

	v["cacheagent.scale_ups"] = float64(dc["agent.scale_ups"])
	v["cacheagent.scale_downs"] = float64(dc["agent.scale_downs"])
	v["cacheagent.scale_down_s"] = float64(dc["agent.scale_down_ns"]) / float64(time.Second)
	v["cacheagent.evictions"] = float64(dc["policy.evictions"])
	v["cacheagent.migrations"] = float64(dc["policy.migrations"])
	v["cacheagent.reclaim_failures"] = float64(dc["agent.reclaim_failures"])
	v["cacheagent.reclaim_probe_ms"] = float64(t.reclaimProbe) / ms
	v["cacheagent.grant_gib_mean"] = t.grantSum / float64(max(t.grantN, 1))
	v["cacheagent.limit_overruns"] = float64(t.overruns)

	v["predictor.memo_hit_ratio"] = ratio(dc["memo.hits"], dc["memo.hits"]+dc["memo.misses"])
	v["predictor.bad_prediction_ratio"] = ratio(dc["pred.bad"], dc["pred.good"]+dc["pred.bad"])

	v["faas.invocations_per_request"] = perRequest(float64(dc["faas.invocations"]), n)
	v["faas.cold_start_ratio"] = ratio(dc["faas.cold"], dc["faas.cold"]+dc["faas.warm"])
	v["faas.oom_kills"] = float64(dc["faas.oom_kills"])
	v["faas.retries"] = float64(dc["faas.retries"])
	v["faas.rescues"] = float64(dc["faas.rescues"])
	v["faas.capacity_rejections"] = float64(t.noCapacity)
	v["faas.queue_delay_mean_ms"] = perRequest(float64(t.queue), t.invocations) / ms
	v["faas.extract_mean_ms"] = perRequest(float64(t.extract), t.invocations) / ms
	v["faas.transform_mean_ms"] = perRequest(float64(t.xform), t.invocations) / ms
	v["faas.load_mean_ms"] = perRequest(float64(t.load), t.invocations) / ms

	if t.traced {
		v["trace.spans"] = float64(t.spans)
		v["trace.drops"] = float64(t.drops)
		for _, name := range spec.TracePhases {
			st := t.phases[name]
			v["trace."+name+".count"] = float64(st.Count)
			v["trace."+name+".self_ms"] = perRequest(float64(st.Self), n) / ms
		}
	}
	if t.probed {
		for k, ev := range t.probeEvents {
			v[probePrefix+k+"_events"] = float64(ev) / float64(t.probeCalls[k])
		}
	}
	return v
}

// finalChecks runs after the simulation has drained: every request was
// accounted for and every final output reached the RSDS as a real (not
// shadow) payload. (Cache usage against limits is checked when the
// measured phase has drained, before the probes add objects.)
func (r *rep) finalChecks() {
	if r.issued != r.completed+r.t.failed {
		r.errorf("issued %d != completed %d + failed %d", r.issued, r.completed, r.t.failed)
	}
	check := func(prefix string, want int, final func(string) bool) {
		got := 0
		for _, key := range r.d.Store.List(prefix) {
			if !final(key) {
				continue
			}
			got++
			if meta, ok := r.d.Store.MetaOf(key); !ok || meta.IsShadow() {
				r.errorf("RSDS object %s is a shadow after the drain", key)
			}
		}
		if got != want {
			r.errorf("RSDS holds %d final objects under %s, want %d", got, prefix, want)
		}
	}
	check("out/", r.singleOK, func(string) bool { return true })
	check("pl/", r.pipelineOK, func(k string) bool {
		return strings.HasSuffix(k, "/result") || strings.HasSuffix(k, "/video")
	})
}

// counters is a flat snapshot of every stats surface the ledger reads.
type counters map[string]int64

func (c counters) add(o counters) {
	for k, v := range o {
		c[k] += v
	}
}

func (c counters) sub(base counters) counters {
	out := make(counters, len(c))
	for k, v := range c {
		out[k] = v - base[k]
	}
	return out
}

func readCounters(d *experiments.Deployment) counters {
	s := d.Sys
	rc := s.RC.Stats()
	st := s.RC.StoreStats()
	kv := s.KV.Stats()
	gets, puts, _, bytesRead, _ := s.RSDS.Stats()
	ps := s.Platform.Stats()
	am := s.AggregateAgentMetrics()
	pc := s.AggregatePolicyCounters()
	memoHits, memoMisses, _ := s.Pred.MemoStats()
	good, bad := s.PredictionCounts()
	var sent int64
	for _, nd := range d.Net.Nodes() {
		b, _, _, _ := nd.Stats()
		sent += b
	}
	return counters{
		"events":                 d.Env.Events(),
		"net.bytes_sent":         sent,
		"rc.hits":                rc.Hits,
		"rc.local_hits":          rc.LocalHits,
		"rc.misses":              rc.Misses,
		"rc.ephem_hits":          rc.EphemHits,
		"rc.ephem_misses":        rc.EphemMisses,
		"rc.admissions":          rc.Admissions,
		"rc.writebacks":          rc.WriteBacks,
		"rc.bypass_writes":       rc.BypassWrites,
		"rc.fallback_reads":      rc.FallbackReads,
		"rc.fallback_writes":     rc.FallbackWrites,
		"rc.cache_retries":       rc.CacheRetries,
		"rc.cache_timeouts":      rc.CacheTimeouts,
		"store.batch_read_keys":  st.BatchReadKeys,
		"kv.server_rpcs":         kv.ServerRPCs,
		"kv.coord_rpcs":          kv.CoordRPCs,
		"kv.promotions":          kv.Promotions,
		"rsds.gets":              gets,
		"rsds.puts":              puts,
		"rsds.bytes_read":        bytesRead,
		"faas.invocations":       ps.Invocations,
		"faas.cold":              ps.ColdStarts,
		"faas.warm":              ps.WarmStarts,
		"faas.oom_kills":         ps.OOMKills,
		"faas.retries":           ps.Retries,
		"faas.rescues":           ps.Rescues,
		"memo.hits":              memoHits,
		"memo.misses":            memoMisses,
		"pred.good":              good,
		"pred.bad":               bad,
		"agent.scale_ups":        am.ScaleUps,
		"agent.scale_downs":      am.ScaleDownNoEviction + am.ScaleDownMigration + am.ScaleDownEviction,
		"agent.scale_down_ns":    int64(am.ScaleDownTime),
		"agent.reclaim_failures": am.ReclaimFailures,
		"policy.evictions":       pc.Evictions,
		"policy.migrations":      pc.Migrations,
	}
}

// timedAdvisor forwards to the platform's Advisor and sums the host
// time spent in it.
type timedAdvisor struct {
	inner faas.Advisor
	ns    atomic.Int64
	calls atomic.Int64
}

func (a *timedAdvisor) Advise(req *faas.Request) faas.Advice {
	t := time.Now()
	adv := a.inner.Advise(req)
	a.ns.Add(int64(time.Since(t)))
	a.calls.Add(1)
	return adv
}

func (a *timedAdvisor) reset() {
	a.ns.Store(0)
	a.calls.Store(0)
}

// timedObserver forwards to the platform's completion observer, which
// feeds the ModelTrainer and retrains inline, and sums the host time
// spent there. It keeps the inner observer's PlacementObserver side:
// the platform type-asserts for it to grow the cache on placement.
type timedObserver struct {
	inner faas.CompletionObserver
	ns    atomic.Int64
	calls atomic.Int64
}

func (o *timedObserver) OnComplete(req *faas.Request, res *faas.Result) {
	t := time.Now()
	o.inner.OnComplete(req, res)
	o.ns.Add(int64(time.Since(t)))
	o.calls.Add(1)
}

func (o *timedObserver) OnPlaced(node simnet.NodeID) {
	if po, ok := o.inner.(faas.PlacementObserver); ok {
		po.OnPlaced(node)
	}
}

func (o *timedObserver) reset() {
	o.ns.Store(0)
	o.calls.Store(0)
}

// probePrefix marks the values the layer probes produce; the rest of
// each key is the reported metric's name.
const probePrefix = "probe:"

// probe times n calls of one layer's public entry point.
type probe struct {
	name string
	n    int
	op   func() error
}

// runProbes times each layer's entry point on the warmed deployment,
// after the measured phase's values are read: host ns and heap
// allocations per call, and simulation events per call. The cache
// probes read, as a local hit, the smallest-keyed object resident on
// the first worker holding any; when reclaim has emptied every cache,
// they read a 4 KiB object written to the worker with the most room.
func (r *rep) runProbes(t probeTarget) {
	s := r.d.Sys
	env := r.d.Env
	node, key := r.d.Workers[0], ""
	var room int64 = -1
	for _, w := range r.d.Workers {
		for _, o := range s.KV.Objects(w) {
			if key == "" || o.Key < key {
				node, key = w, o.Key
			}
		}
		if key != "" {
			break
		}
		if used, limit := s.KV.Usage(w); limit-used > room {
			node, room = w, limit-used
		}
	}
	if key == "" {
		// The agents may have handed every grant back; lend the probe
		// object its room and take it back once the probes are done.
		const size = 4 << 10
		key = "perfbench/probe"
		if used, limit := s.KV.Usage(node); limit-used < size {
			s.KV.SetMemoryLimit(node, used+size)
			defer s.KV.SetMemoryLimit(node, limit)
		}
		if _, err := s.KV.Write(node, key, faas.Blob{Size: size}, nil, node); err != nil {
			r.errorf("probe object write: %v", err)
			return
		}
		defer s.KV.Delete(node, key)
	}
	req := workload.NewRequest(t.fn, t.spec, t.in, t.args)
	invoke := func() error {
		res := r.d.Platform.Invoke(workload.NewRequest(t.fn, t.spec, t.in, t.args))
		r.unmeasured(res)
		return res.Err
	}
	if err := invoke(); err != nil { // make sure a warm sandbox exists
		r.errorf("probe warm-up invoke: %v", err)
		return
	}
	probes := []probe{
		{"sim.sleep", 20000, func() error { env.Sleep(time.Microsecond); return nil }},
		{"simnet.transfer", 20000, func() error { r.d.Net.Transfer(node, r.d.Ctrl, 4<<10); return nil }},
		{"kvstore.read", 5000, func() error { _, _, err := s.KV.Read(node, key); return err }},
		{"store.read", 5000, func() error { _, _, err := s.RC.Backend().Read(node, key); return err }},
		{"rclib.get_hit", 5000, func() error { _, err := s.RC.Get(node, key, faas.PutOpts{}); return err }},
		{"predictor.advise", 20000, func() error { s.Pred.Advise(req); return nil }},
		{"faas.invoke_warm", 200, invoke},
		{"objstore.get", 2000, func() error { _, _, err := s.RSDS.Get(node, t.in.Key, false); return err }},
	}
	var m0, m1 runtime.MemStats
	for _, p := range probes {
		runtime.ReadMemStats(&m0)
		ev0 := env.Events()
		t0 := time.Now()
		var err error
		for i := 0; i < p.n && err == nil; i++ {
			err = p.op()
		}
		ns := time.Since(t0)
		ev1 := env.Events()
		runtime.ReadMemStats(&m1)
		if err != nil {
			r.errorf("probe %s: %v", p.name, err)
		}
		r.hostRaw[probePrefix+p.name+"_ns"] = int64(ns) * 1000 / int64(p.n)
		r.hostRaw[probePrefix+p.name+"_allocs"] = int64(m1.Mallocs-m0.Mallocs) * 1000 / int64(p.n)
		r.mu.Lock()
		r.t.probeEvents[p.name] += ev1 - ev0
		r.t.probeCalls[p.name] += int64(p.n)
		r.mu.Unlock()
	}
}
