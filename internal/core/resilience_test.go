package core

import (
	"testing"
	"time"

	"ofc/internal/faas"
	"ofc/internal/kvstore"
)

// TestGetFallsBackToRSDS is the end-to-end read degradation path: the
// key's cache master crashes, the resilient read retries then gives
// up, and Get transparently serves the payload from the RSDS. Repeated
// failures trip the master's breaker so later reads fail fast.
func TestGetFallsBackToRSDS(t *testing.T) {
	sys := newSystem(1)
	victim := sys.WorkerNodes[0]
	other := sys.WorkerNodes[1]
	const key = "in/fb"
	const size = int64(1 << 20)

	sys.Run(func() {
		// Direct KV writes bypass the cache agents, so grant the servers
		// memory by hand (limits start at zero and grow with grants).
		for _, w := range sys.WorkerNodes {
			sys.KV.SetMemoryLimit(w, 1<<30)
		}
		sys.RSDS.Put(sys.CtrlNode, key, kvstore.Synthetic(size), nil, false)
		if _, err := sys.KV.Write(victim, key, kvstore.Synthetic(size),
			map[string]string{"kind": "input", "dirty": "0"}, victim); err != nil {
			t.Errorf("stage cache copy: %v", err)
			return
		}
		// Sanity: a healthy read is a cache hit.
		if _, err := sys.RC.Get(other, key, faas.PutOpts{}); err != nil {
			t.Errorf("healthy get: %v", err)
			return
		}
		if st := sys.RC.Stats(); st.Hits != 1 || st.FallbackReads != 0 {
			t.Errorf("healthy stats: %+v", st)
			return
		}

		sys.Net.SetNodeDown(victim, true)
		sys.KV.Crash(victim)

		blob, err := sys.RC.Get(other, key, faas.PutOpts{})
		if err != nil {
			t.Errorf("degraded get: %v", err)
			return
		}
		if blob.Size != size {
			t.Errorf("degraded get size=%d, want %d", blob.Size, size)
		}
		st := sys.RC.Stats()
		if st.FallbackReads != 1 {
			t.Errorf("fallbackReads=%d, want 1", st.FallbackReads)
		}
		if st.CacheRetries == 0 {
			t.Errorf("no cache retries recorded: %+v", st)
		}
		// One Get exhausts MaxRetries+1 attempts = BreakerThreshold
		// failures: the master's breaker is now open.
		if _, open := sys.RC.BreakerState(victim); !open {
			t.Error("breaker not open after retry exhaustion")
		}
		if st.BreakerTrips != 1 {
			t.Errorf("breakerTrips=%d, want 1", st.BreakerTrips)
		}
		// The next read short-circuits (no new retries) and still serves.
		retriesBefore := st.CacheRetries
		if _, err := sys.RC.Get(other, key, faas.PutOpts{}); err != nil {
			t.Errorf("fail-fast get: %v", err)
			return
		}
		st = sys.RC.Stats()
		if st.FallbackReads != 2 {
			t.Errorf("fallbackReads=%d, want 2", st.FallbackReads)
		}
		if st.CacheRetries != retriesBefore {
			t.Errorf("breaker-open read retried: %d → %d", retriesBefore, st.CacheRetries)
		}
	})
}

// TestPutFallsBackToRSDS is the write degradation path: a final output
// whose cache master is down is persisted synchronously to the RSDS
// (the vanilla write-through path) and no acknowledged write is lost.
func TestPutFallsBackToRSDS(t *testing.T) {
	sys := newSystem(2)
	victim := sys.WorkerNodes[0]
	other := sys.WorkerNodes[1]
	const key = "out/fb"

	sys.Run(func() {
		for _, w := range sys.WorkerNodes {
			sys.KV.SetMemoryLimit(w, 1<<30)
		}
		// Establish the key's placement on the victim, then kill it.
		if _, err := sys.KV.Write(victim, key, kvstore.Synthetic(64<<10),
			map[string]string{"kind": "final", "dirty": "0"}, victim); err != nil {
			t.Error(err)
			return
		}
		sys.Net.SetNodeDown(victim, true)
		sys.KV.Crash(victim)

		err := sys.RC.Put(other, key, faas.Blob{Size: 64 << 10},
			faas.PutOpts{Kind: faas.KindFinal, ShouldCache: true})
		if err != nil {
			t.Errorf("degraded put: %v", err)
			return
		}
		st := sys.RC.Stats()
		if st.FallbackWrites != 1 {
			t.Errorf("fallbackWrites=%d, want 1", st.FallbackWrites)
		}
		if st.CacheRetries == 0 {
			t.Error("no retries before write fallback")
		}
		// The payload must be durably in the RSDS, not a dangling shadow.
		m, ok := sys.RSDS.MetaOf(key)
		if !ok || m.IsShadow() || m.Size != 64<<10 {
			t.Errorf("fallback write not persisted: ok=%v meta=%+v", ok, m)
		}
	})
}

// TestDirtyWriteBackSurvivesCrash: a final output lands in the cache
// (dirty, shadow in the RSDS) and its master crashes before the
// Persistor gets to it. The pending write-back is never dropped — the
// Persistor reschedules until RAMCloud-style recovery promotes a
// backup, then pushes the exact acked payload. Zero acked writes lost.
func TestDirtyWriteBackSurvivesCrash(t *testing.T) {
	sys := newSystem(3)
	victim := sys.WorkerNodes[0]
	const key = "out/dirty"

	sys.Run(func() {
		for _, w := range sys.WorkerNodes {
			sys.KV.SetMemoryLimit(w, 1<<30)
		}
		if err := sys.RC.Put(victim, key, faas.Blob{Size: 256 << 10},
			faas.PutOpts{Kind: faas.KindFinal, ShouldCache: true}); err != nil {
			t.Errorf("put: %v", err)
			return
		}
		// Kill the master at the same instant: the async Persistor finds
		// the cache unavailable and must keep rescheduling.
		sys.Net.SetNodeDown(victim, true)
		sys.KV.Crash(victim)

		sys.Env.Sleep(200 * time.Millisecond)
		if n, _ := sys.KV.Recover(victim); n == 0 {
			t.Error("recovery promoted nothing")
			return
		}
		sys.Net.SetNodeDown(victim, false)
		// Give the Persistor retry loop (PersistRetryDelay cadence) and
		// the breaker cooldown time to push the payload through.
		sys.Env.Sleep(3 * time.Second)

		m, ok := sys.RSDS.MetaOf(key)
		if !ok || m.IsShadow() || m.Size != 256<<10 {
			t.Errorf("acked write lost across crash: ok=%v meta=%+v", ok, m)
		}
		if st := sys.RC.Stats(); st.WriteBacks == 0 {
			t.Errorf("no write-back recorded: %+v", st)
		}
	})
}

// TestGetTimesOutToRSDS is the deadline path: the reader↔master link
// is slowed past OpTimeout, so every cache attempt overruns its
// deadline inside the kvstore op. Get serves the RSDS payload, each
// attempt counts as a timeout, and the master's breaker opens at its
// threshold.
func TestGetTimesOutToRSDS(t *testing.T) {
	sys := newSystem(4)
	master := sys.WorkerNodes[0]
	reader := sys.WorkerNodes[1]
	const key = "in/slow"
	const size = int64(1 << 20)

	sys.Run(func() {
		for _, w := range sys.WorkerNodes {
			sys.KV.SetMemoryLimit(w, 1<<30)
		}
		sys.RSDS.Put(sys.CtrlNode, key, kvstore.Synthetic(size), nil, false)
		if _, err := sys.KV.Write(master, key, kvstore.Synthetic(size),
			map[string]string{"kind": "input", "dirty": "0"}, master); err != nil {
			t.Errorf("stage cache copy: %v", err)
			return
		}
		// 25µs × 10⁴ = 250ms per leg, past the 100ms OpTimeout.
		sys.Net.DegradeLink(reader, master, 1e4, 1)

		blob, err := sys.RC.Get(reader, key, faas.PutOpts{})
		if err != nil || blob.Size != size {
			t.Errorf("get over slow link: size=%d err=%v, want the RSDS payload", blob.Size, err)
		}
		st := sys.RC.Stats()
		if st.CacheTimeouts < 1 || st.FallbackReads != 1 {
			t.Errorf("timeouts=%d fallbackReads=%d, want ≥1 and 1", st.CacheTimeouts, st.FallbackReads)
		}
		if _, open := sys.RC.BreakerState(master); !open || st.BreakerTrips != 1 {
			t.Errorf("breaker open=%v trips=%d, want open after %d timeouts", open, st.BreakerTrips, st.CacheTimeouts)
		}
	})
}

// TestPutTimesOutKeepsAckedWrite is the write side of the deadline
// path: a final output whose cache master sits behind a slow link
// times out, falls back to the synchronous RSDS persist, and the acked
// payload is durably there once the system settles.
func TestPutTimesOutKeepsAckedWrite(t *testing.T) {
	sys := newSystem(5)
	master := sys.WorkerNodes[0]
	writer := sys.WorkerNodes[1]
	const key = "out/slow"
	const size = int64(64 << 10)

	sys.Run(func() {
		for _, w := range sys.WorkerNodes {
			sys.KV.SetMemoryLimit(w, 1<<30)
		}
		// Establish the key's placement on the master.
		if _, err := sys.KV.Write(master, key, kvstore.Synthetic(size),
			map[string]string{"kind": "final", "dirty": "0"}, master); err != nil {
			t.Error(err)
			return
		}
		sys.Net.DegradeLink(writer, master, 1e4, 1)

		if err := sys.RC.Put(writer, key, faas.Blob{Size: size},
			faas.PutOpts{Kind: faas.KindFinal, ShouldCache: true}); err != nil {
			t.Errorf("put over slow link: %v", err)
			return
		}
		if st := sys.RC.Stats(); st.CacheTimeouts < 1 || st.FallbackWrites != 1 {
			t.Errorf("timeouts=%d fallbackWrites=%d, want ≥1 and 1", st.CacheTimeouts, st.FallbackWrites)
		}
		sys.Env.Sleep(3 * time.Second)
		m, ok := sys.RSDS.MetaOf(key)
		if !ok || m.IsShadow() || m.Size != size {
			t.Errorf("acked write lost: ok=%v meta=%+v", ok, m)
		}
	})
}
