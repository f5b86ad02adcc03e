package store

import (
	"errors"
	"fmt"
	"math/rand"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"ofc/internal/kvstore"
	"ofc/internal/sim"
	"ofc/internal/simnet"
	"ofc/internal/trace"
)

// ResilienceConfig tunes the Resilient middleware: per-operation
// deadlines, bounded retry with exponential backoff and jitter, and a
// per-server circuit breaker that short-circuits while a node
// recovers.
type ResilienceConfig struct {
	// OpTimeout is the deadline for one cache operation attempt.
	OpTimeout time.Duration
	// MaxRetries is the number of re-attempts after the first try.
	MaxRetries int
	// RetryBase is the first backoff; it doubles per attempt up to
	// RetryMax. Jitter randomizes each backoff by ±Jitter fraction.
	RetryBase time.Duration
	RetryMax  time.Duration
	Jitter    float64
	// BreakerThreshold consecutive unavailability errors against one
	// server open its breaker; while open, cache ops targeting it fail
	// fast (straight to the RSDS). After BreakerCooldown a probe is
	// allowed through (half-open).
	BreakerThreshold int
	BreakerCooldown  time.Duration
}

// DefaultResilienceConfig returns constants sized for the testbed:
// timeouts well above healthy op latency, a breaker that trips within
// a handful of failed ops, and a cooldown on the order of RAMCloud's
// fast recovery.
func DefaultResilienceConfig() ResilienceConfig {
	return ResilienceConfig{
		OpTimeout:        100 * time.Millisecond,
		MaxRetries:       2,
		RetryBase:        5 * time.Millisecond,
		RetryMax:         50 * time.Millisecond,
		Jitter:           0.2,
		BreakerThreshold: 3,
		BreakerCooldown:  time.Second,
	}
}

// Sentinel errors of the resilience layer. ErrCacheTimeout is the
// engine's own deadline error: the kvstore op checks its deadline at
// every network leg.
var (
	ErrCacheTimeout = kvstore.ErrTimeout
	ErrBreakerOpen  = errors.New("store: cache circuit breaker open")
	// ErrRetryBudget marks an op whose re-attempt the RetryGate denied;
	// it wraps the last attempt's error, so unavailability
	// classification still holds and callers fall back normally.
	ErrRetryBudget = errors.New("store: retry denied by retry budget")
)

// RetryGate arbitrates storage re-attempts (the overload layer's
// retry budget, shared with the FaaS platform's OOM retries). A nil
// gate means unbounded retries per the ResilienceConfig.
type RetryGate interface {
	AllowRetry() bool
}

// IsUnavailable classifies errors that mean "the cache cannot serve
// this right now" — the triggers for RSDS fallback — as opposed to
// definitive answers like ErrNotFound or ErrNoSpace.
func IsUnavailable(err error) bool {
	if err == nil {
		return false
	}
	return errors.Is(err, kvstore.ErrCrashed) ||
		errors.Is(err, kvstore.ErrNoSuchServer) ||
		errors.Is(err, kvstore.ErrNotEnoughSrvs) ||
		errors.Is(err, simnet.ErrUnreachable) ||
		errors.Is(err, ErrCacheTimeout) ||
		errors.Is(err, ErrBreakerOpen)
}

// Deadliner is an engine whose Read and Write carry a deadline and
// fail with ErrCacheTimeout once a network leg ends past it
// (*kvstore.Cluster).
type Deadliner interface {
	ReadBy(caller simnet.NodeID, key string, deadline sim.Time) (Blob, Meta, error)
	WriteBy(caller simnet.NodeID, key string, blob Blob, tags map[string]string, preferred simnet.NodeID, deadline sim.Time) (uint64, error)
}

// noDeadline adapts an engine without deadlines (the RSDS passthrough
// answers or fails on its own) to Deadliner.
type noDeadline struct{ Backend }

func (n noDeadline) ReadBy(caller simnet.NodeID, key string, _ sim.Time) (Blob, Meta, error) {
	return n.Read(caller, key)
}

func (n noDeadline) WriteBy(caller simnet.NodeID, key string, blob Blob, tags map[string]string, preferred simnet.NodeID, _ sim.Time) (uint64, error) {
	return n.Write(caller, key, blob, tags, preferred)
}

// breaker is one server's circuit-breaker state. failures counts
// consecutive unavailability errors; once it reaches the threshold the
// breaker is open until openUntil, after which one probe is let
// through (half-open): success closes it, failure re-opens.
type breaker struct {
	failures  int
	openUntil sim.Time
}

// OpStats are the counters of one Resilient layer: the operations that
// crossed the storage-engine boundary (before any proxy policy —
// hit/miss accounting lives in the proxy) and the degradation events
// on the way.
type OpStats struct {
	Reads, Writes   int64
	ReadErrs        int64
	WriteErrs       int64
	Evicts, Deletes int64
	BytesRead       int64
	BytesWritten    int64
	BatchReads      int64 // ReadMulti calls
	BatchReadKeys   int64 // keys carried by those calls
	BatchWrites     int64 // WriteMulti calls
	BatchWriteItems int64
	Retries         int64
	Timeouts        int64
	BreakerTrips    int64
	// BudgetDenied counts re-attempts refused by the RetryGate.
	BudgetDenied int64
}

// opCounters is OpStats as atomics (the hit path bumps two of them).
type opCounters struct {
	reads, writes, readErrs, writeErrs, evicts, deletes atomic.Int64
	bytesRead, bytesWritten                             atomic.Int64
	batchReads, batchReadKeys, batchWrites, batchItems  atomic.Int64
	retries, timeouts, trips, denied                    atomic.Int64
}

// latencyWindow is the ring size of the recent Read/Write latency
// samples kept for quantile queries (the overload controller's "store
// RPC latency" signal).
const latencyWindow = 512

// Resilient is the proxy's one storage middleware layer over an
// engine: per-attempt deadlines (carried into the engine op), bounded
// jittered retry, per-server circuit breakers, operation counters and
// a latency ring. It calls the engine inline — no helper process, no
// timer. Metadata ops and the batch paths pass through (counted, not
// retried).
type Resilient struct {
	inner Backend
	dl    Deadliner
	env   *sim.Env
	pv    PlacementView // breaker target resolution; may be nil
	cfg   ResilienceConfig
	gate  RetryGate

	mu       sync.Mutex // guards rng and breakers
	rng      *rand.Rand
	breakers map[simnet.NodeID]*breaker

	c    opCounters
	lat  [latencyWindow]atomic.Int64
	nlat atomic.Int64
}

// NewResilient wraps the engine inner with the middleware; cfg is
// fixed for the layer's life.
func NewResilient(env *sim.Env, inner Backend, cfg ResilienceConfig) *Resilient {
	r := &Resilient{inner: inner, env: env, cfg: cfg, rng: env.NewRand(), breakers: make(map[simnet.NodeID]*breaker)}
	r.pv, _ = inner.(PlacementView)
	if dl, ok := inner.(Deadliner); ok {
		r.dl = dl
	} else {
		r.dl = noDeadline{inner}
	}
	return r
}

// SetRetryGate installs the shared retry budget consulted before every
// re-attempt. Call before traffic starts.
func (r *Resilient) SetRetryGate(g RetryGate) { r.gate = g }

// Stats snapshots the counters.
func (r *Resilient) Stats() OpStats {
	c := &r.c
	return OpStats{
		Reads: c.reads.Load(), Writes: c.writes.Load(),
		ReadErrs: c.readErrs.Load(), WriteErrs: c.writeErrs.Load(),
		Evicts: c.evicts.Load(), Deletes: c.deletes.Load(),
		BytesRead: c.bytesRead.Load(), BytesWritten: c.bytesWritten.Load(),
		BatchReads: c.batchReads.Load(), BatchReadKeys: c.batchReadKeys.Load(),
		BatchWrites: c.batchWrites.Load(), BatchWriteItems: c.batchItems.Load(),
		Retries: c.retries.Load(), Timeouts: c.timeouts.Load(),
		BreakerTrips: c.trips.Load(), BudgetDenied: c.denied.Load(),
	}
}

// record stores one op latency in the ring.
func (r *Resilient) record(d time.Duration) {
	i := r.nlat.Add(1) - 1
	r.lat[i%latencyWindow].Store(int64(d))
}

// LatencyQuantile returns the q-quantile of the recent Read/Write
// latency window by the ceiling nearest-rank rule (trace.Quantile), or
// 0 with no samples.
func (r *Resilient) LatencyQuantile(q float64) time.Duration {
	samples := make([]sim.Time, min(r.nlat.Load(), latencyWindow))
	for i := range samples {
		samples[i] = sim.Time(r.lat[i].Load())
	}
	sort.Slice(samples, func(i, j int) bool { return samples[i] < samples[j] })
	return trace.Quantile(samples, q)
}

// BreakerState exposes one server's breaker for tests and debugging.
func (r *Resilient) BreakerState(node simnet.NodeID) (failures int, open bool) {
	now := r.env.Now()
	r.mu.Lock()
	defer r.mu.Unlock()
	s := r.breakers[node]
	if s == nil {
		return 0, false
	}
	return s.failures, s.failures >= r.cfg.BreakerThreshold && now < s.openUntil
}

// allow reports whether an op against node may proceed (breaker closed
// or half-open probe).
func (r *Resilient) allow(node simnet.NodeID) bool {
	now := r.env.Now()
	r.mu.Lock()
	defer r.mu.Unlock()
	s := r.breakers[node]
	if s == nil || s.failures < r.cfg.BreakerThreshold {
		return true
	}
	return now >= s.openUntil
}

// report records an op outcome against node.
func (r *Resilient) report(node simnet.NodeID, ok bool) {
	now := r.env.Now()
	r.mu.Lock()
	defer r.mu.Unlock()
	s := r.breakers[node]
	if s == nil {
		if ok {
			return
		}
		s = &breaker{}
		r.breakers[node] = s
	}
	if ok {
		s.failures = 0
		return
	}
	s.failures++
	if s.failures >= r.cfg.BreakerThreshold {
		if s.failures == r.cfg.BreakerThreshold {
			r.c.trips.Add(1)
		}
		s.openUntil = now + r.cfg.BreakerCooldown
	}
}

// backoff computes the jittered exponential backoff for re-attempt n
// (n >= 1).
func (r *Resilient) backoff(n int) time.Duration {
	d := r.cfg.RetryBase
	for i := 1; i < n && d < r.cfg.RetryMax; i++ {
		d *= 2
	}
	d = min(d, r.cfg.RetryMax)
	if r.cfg.Jitter > 0 {
		r.mu.Lock()
		f := 1 + r.cfg.Jitter*(2*r.rng.Float64()-1)
		r.mu.Unlock()
		d = time.Duration(float64(d) * f)
	}
	return d
}

// target picks the breaker key for ops on key: the current master if
// placement is known, otherwise the node the op would prefer.
func (r *Resilient) target(key string, fallback simnet.NodeID) simnet.NodeID {
	if r.pv != nil {
		if m, ok := r.pv.MasterOf(key); ok {
			return m
		}
	}
	return fallback
}

// attempt runs op inline, handing it the per-attempt deadline, with
// the retry loop and breaker bookkeeping shared by Read and Write.
// Definitive answers (hit, NotFound, NoSpace) return at once; only
// unavailability is retried.
func attempt[T any](r *Resilient, target simnet.NodeID, op func(deadline sim.Time) (T, error)) (T, error) {
	var zero T
	if !r.allow(target) {
		return zero, ErrBreakerOpen
	}
	var lastErr error
	for try := 0; try <= r.cfg.MaxRetries; try++ {
		if try > 0 {
			if r.gate != nil && !r.gate.AllowRetry() {
				r.c.denied.Add(1)
				return zero, fmt.Errorf("%w: %w", ErrRetryBudget, lastErr)
			}
			r.env.Sleep(r.backoff(try))
			r.c.retries.Add(1)
		}
		v, err := op(r.env.Now() + r.cfg.OpTimeout)
		if !IsUnavailable(err) {
			r.report(target, true)
			return v, err
		}
		if errors.Is(err, ErrCacheTimeout) {
			r.c.timeouts.Add(1)
		}
		lastErr = err
		r.report(target, false)
	}
	return zero, lastErr
}

type readRes struct {
	blob Blob
	meta Meta
}

// Read implements Backend.
func (r *Resilient) Read(caller simnet.NodeID, key string) (Blob, Meta, error) {
	start := r.env.Now()
	out, err := attempt(r, r.target(key, caller), func(deadline sim.Time) (readRes, error) {
		blob, meta, err := r.dl.ReadBy(caller, key, deadline)
		return readRes{blob, meta}, err
	})
	r.record(r.env.Now() - start)
	r.c.reads.Add(1)
	if err != nil {
		r.c.readErrs.Add(1)
	} else {
		r.c.bytesRead.Add(out.blob.Size)
	}
	return out.blob, out.meta, err
}

// Write implements Backend, mirroring Read.
func (r *Resilient) Write(caller simnet.NodeID, key string, blob Blob, tags map[string]string, preferred simnet.NodeID) (uint64, error) {
	start := r.env.Now()
	ver, err := attempt(r, r.target(key, preferred), func(deadline sim.Time) (uint64, error) {
		return r.dl.WriteBy(caller, key, blob, tags, preferred, deadline)
	})
	r.record(r.env.Now() - start)
	r.c.writes.Add(1)
	if err != nil {
		r.c.writeErrs.Add(1)
	} else {
		r.c.bytesWritten.Add(blob.Size)
	}
	return ver, err
}

// The remaining ops pass through: they are either local bookkeeping
// (Evict), tiny control messages whose failure the callers already
// tolerate (Stat, SetTag, Delete), or batch paths with their own
// failure semantics.

func (r *Resilient) Stat(caller simnet.NodeID, key string) (Meta, error) {
	return r.inner.Stat(caller, key)
}

func (r *Resilient) SetTag(caller simnet.NodeID, key, tag, value string) error {
	return r.inner.SetTag(caller, key, tag, value)
}

func (r *Resilient) Delete(caller simnet.NodeID, key string) error {
	r.c.deletes.Add(1)
	return r.inner.Delete(caller, key)
}

func (r *Resilient) Evict(key string) error {
	r.c.evicts.Add(1)
	return r.inner.Evict(key)
}

func (r *Resilient) MaxObjectSize() int64 { return r.inner.MaxObjectSize() }

// ReadMulti implements BatchBackend via the engine's batch path.
func (r *Resilient) ReadMulti(caller simnet.NodeID, keys []string) []ReadResult {
	out := ReadMulti(r.inner, caller, keys)
	r.c.batchReads.Add(1)
	r.c.batchReadKeys.Add(int64(len(keys)))
	for _, res := range out {
		if res.Err == nil {
			r.c.bytesRead.Add(res.Blob.Size)
		}
	}
	return out
}

// WriteMulti implements BatchBackend via the engine's batch path.
func (r *Resilient) WriteMulti(caller simnet.NodeID, items []WriteItem, preferred simnet.NodeID) []WriteResult {
	out := WriteMulti(r.inner, caller, items, preferred)
	r.c.batchWrites.Add(1)
	r.c.batchItems.Add(int64(len(items)))
	for i, res := range out {
		if res.Err == nil {
			r.c.bytesWritten.Add(items[i].Blob.Size)
		}
	}
	return out
}
