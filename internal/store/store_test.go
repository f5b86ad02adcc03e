package store_test

import (
	"errors"
	"fmt"
	"testing"

	"ofc/internal/kvstore"
	"ofc/internal/objstore"
	"ofc/internal/sim"
	"ofc/internal/simnet"
	"ofc/internal/store"
	"ofc/internal/store/conformance"
)

// mkKV builds a 4-node RAMCloud-like cluster backend.
func mkKV(env *sim.Env) (store.Backend, simnet.NodeID) {
	net := simnet.New(env, simnet.DefaultConfig())
	for i := 0; i < 4; i++ {
		net.AddNode("n")
	}
	c := kvstore.New(net, 0, kvstore.DefaultConfig())
	for i := 0; i < 4; i++ {
		c.AddServer(simnet.NodeID(i), 1<<30)
	}
	return c, 1
}

// mkPassthrough builds the direct-RSDS cache-off backend.
func mkPassthrough(env *sim.Env) (store.Backend, simnet.NodeID) {
	net := simnet.New(env, simnet.DefaultConfig())
	net.AddNode("client")
	storage := net.AddNode("storage").ID
	rsds := objstore.New(net, storage, objstore.SwiftProfile())
	return store.NewPassthrough(rsds), 0
}

func TestKVClusterConformance(t *testing.T) {
	conformance.Run(t, mkKV, conformance.Traits{CacheTier: true})
}

func TestPassthroughConformance(t *testing.T) {
	conformance.Run(t, mkPassthrough, conformance.Traits{CacheTier: false})
}

// The resilience middleware over the cluster, alone and under the
// striping layer, must still honor the backend contract — middleware
// is transparent.
func TestResilientConformance(t *testing.T) {
	mk := func(env *sim.Env) (store.Backend, simnet.NodeID) {
		inner, caller := mkKV(env)
		return store.NewResilient(env, inner, store.DefaultResilienceConfig()), caller
	}
	conformance.Run(t, mk, conformance.Traits{CacheTier: true})
}

func TestMiddlewareStackConformance(t *testing.T) {
	mk := func(env *sim.Env) (store.Backend, simnet.NodeID) {
		inner, caller := mkKV(env)
		res := store.NewResilient(env, inner, store.DefaultResilienceConfig())
		return store.NewChunked(res, store.DefaultChunkSize), caller
	}
	conformance.Run(t, mk, conformance.Traits{CacheTier: true})
}

// TestCapabilityDiscovery pins where the capability views live: on the
// engine. The middleware does not forward them, so callers assert on
// the engine they built the stack over.
func TestCapabilityDiscovery(t *testing.T) {
	env := sim.NewEnv(1)
	kv, _ := mkKV(env)
	if pv, ok := kv.(store.PlacementView); !ok || pv == nil {
		t.Fatal("cluster must expose a placement view")
	}
	if mv, ok := kv.(store.MemoryView); !ok || mv == nil {
		t.Fatal("cluster must expose a memory view")
	}
	if _, ok := kv.(store.Deadliner); !ok {
		t.Fatal("cluster ops must carry deadlines")
	}
	if store.IsDurable(kv) {
		t.Fatal("cache cluster must not be durable")
	}
	var stack store.Backend = store.NewChunked(store.NewResilient(env, kv, store.DefaultResilienceConfig()), 0)
	if _, ok := stack.(store.PlacementView); ok {
		t.Fatal("middleware must not pose as an engine")
	}

	pt, _ := mkPassthrough(env)
	if !store.IsDurable(pt) {
		t.Fatal("passthrough must be durable")
	}
	if _, ok := pt.(store.PlacementView); ok {
		t.Fatal("passthrough must not expose a placement view")
	}
	if _, ok := pt.(store.MemoryView); ok {
		t.Fatal("passthrough must not expose a memory view")
	}
}

// TestChunkedStriping checks the striping middleware end to end:
// oversized writes land as "key#i" stripes, reads reassemble, logical
// tags ride the manifest, and Evict drops every stripe.
func TestChunkedStriping(t *testing.T) {
	env := sim.NewEnv(1)
	kvb, caller := mkKV(env)
	kv := kvb.(*kvstore.Cluster)
	ch := store.NewChunked(kvb, store.DefaultChunkSize)
	env.Go(func() {
		const size = 25 << 20 // 4 stripes of 8 MB
		tags := map[string]string{"kind": "final", "dirty": "1", "version": "7"}
		if _, err := ch.Write(caller, "big/obj", store.Blob{Size: size}, tags, caller); err != nil {
			t.Fatalf("chunked write: %v", err)
		}
		for i := 0; i < 4; i++ {
			if _, ok := kv.MasterOf(fmt.Sprintf("big/obj#%d", i)); !ok {
				t.Fatalf("stripe %d not placed", i)
			}
		}
		blob, meta, err := ch.Read(caller, "big/obj")
		if err != nil || blob.Size != size {
			t.Fatalf("chunked read: %v size %d", err, blob.Size)
		}
		if meta.Tags["kind"] != "final" || meta.Tags["dirty"] != "1" || meta.Tags["version"] != "7" {
			t.Fatalf("manifest tags wrong: %v", meta.Tags)
		}
		if err := ch.SetTag(caller, "big/obj", "dirty", "0"); err != nil {
			t.Fatalf("settag: %v", err)
		}
		if _, meta, _ = ch.Read(caller, "big/obj"); meta.Tags["dirty"] != "0" {
			t.Fatalf("manifest settag not visible: %v", meta.Tags)
		}
		if err := ch.Evict("big/obj"); err != nil {
			t.Fatalf("evict: %v", err)
		}
		for i := 0; i < 4; i++ {
			if _, ok := kv.MasterOf(fmt.Sprintf("big/obj#%d", i)); ok {
				t.Fatalf("stripe %d survived evict", i)
			}
		}
		if _, _, err := ch.Read(caller, "big/obj"); err == nil {
			t.Fatal("read after evict must fail")
		}
	})
	env.Run()
}

// TestResilientBreaker checks the moved degradation layer standalone:
// ops against a crashed cluster trip the breaker and fail fast.
func TestResilientBreaker(t *testing.T) {
	env := sim.NewEnv(1)
	kvb, caller := mkKV(env)
	kv := kvb.(*kvstore.Cluster)
	cfg := store.DefaultResilienceConfig()
	cfg.MaxRetries = 0
	res := store.NewResilient(env, kvb, cfg)
	env.Go(func() {
		if _, err := res.Write(caller, "k", store.Blob{Size: 1 << 10}, nil, caller); err != nil {
			t.Fatalf("healthy write: %v", err)
		}
		master, _ := kv.MasterOf("k")
		for i := 0; i < 4; i++ {
			kv.Crash(simnet.NodeID(i))
		}
		for i := 0; i < cfg.BreakerThreshold; i++ {
			if _, _, err := res.Read(caller, "k"); err == nil {
				t.Fatal("read against crashed cluster succeeded")
			}
		}
		if _, open := res.BreakerState(master); !open {
			t.Fatal("breaker did not open after threshold failures")
		}
		if _, _, err := res.Read(caller, "k"); !errors.Is(err, store.ErrBreakerOpen) {
			t.Fatalf("open breaker: err %v, want ErrBreakerOpen", err)
		}
		if res.Stats().BreakerTrips != 1 {
			t.Fatalf("trips %d, want 1", res.Stats().BreakerTrips)
		}
	})
	env.Run()
}
