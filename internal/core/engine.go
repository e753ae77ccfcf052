package core

import (
	"container/list"
	"sync"

	"sunstone/internal/anytime"
	"sunstone/internal/arch"
	"sunstone/internal/cost"
	"sunstone/internal/obs"
	"sunstone/internal/tensor"
)

// Engine is a long-lived, goroutine-safe optimizer that caches Compiled
// problem artifacts across calls. The cache is content-addressed — problems
// are keyed by their serialized (workload, arch, model) form, not by pointer
// identity — so a network scheduler that builds a fresh Workload per layer
// still compiles each distinct shape exactly once, and every later call on
// that shape starts with the ordering set, capacity tables, factor ladders,
// and memoized level expansions already in hand.
//
// The cache is sharded to keep concurrent lookups cheap and bounded per
// shard with LRU eviction so a workload-churning service cannot grow it
// without limit. Concurrent first requests for the same problem compile it
// once (the losers wait for the winner).
type Engine struct {
	shardCap int
	shards   [engineShards]engineShard

	compiles  obs.Counter
	hits      obs.Counter
	evictions obs.Counter
}

const (
	engineShards = 8
	// defaultEngineEntries bounds the whole cache by default; at most a few
	// MB per compiled problem, this keeps a default Engine well under a GB
	// even when every entry is hot.
	defaultEngineEntries = 256
)

type engineShard struct {
	mu      sync.Mutex
	entries map[string]*list.Element
	lru     list.List // front = most recently used; values are *engineEntry
}

// engineEntry is one cached compilation. The once gate makes concurrent
// first calls single-flight: the entry is published under the shard lock,
// compilation runs outside it, and late arrivals block on once.Do until the
// artifacts (or the compile error) are ready.
type engineEntry struct {
	key  string
	once sync.Once
	comp *Compiled
	err  error
}

// NewEngine returns an Engine whose cache holds at most maxEntries compiled
// problems (0 = default 256; eviction is LRU per shard).
func NewEngine(maxEntries int) *Engine {
	if maxEntries <= 0 {
		maxEntries = defaultEngineEntries
	}
	cap := maxEntries / engineShards
	if cap < 1 {
		cap = 1
	}
	e := &Engine{shardCap: cap}
	for i := range e.shards {
		e.shards[i].entries = make(map[string]*list.Element)
	}
	return e
}

// EngineStats is a snapshot of an Engine's cache behavior.
type EngineStats struct {
	// Compiles counts problems compiled (cache misses plus uncacheable
	// probe-model compilations).
	Compiles uint64
	// Hits counts calls served from the cache.
	Hits uint64
	// Evictions counts entries dropped by the LRU bound.
	Evictions uint64
	// Entries is the current cached-problem count.
	Entries int
}

// Stats snapshots the Engine's cache counters.
func (e *Engine) Stats() EngineStats {
	s := EngineStats{
		Compiles:  e.compiles.Load(),
		Hits:      e.hits.Load(),
		Evictions: e.evictions.Load(),
	}
	for i := range e.shards {
		sh := &e.shards[i]
		sh.mu.Lock()
		s.Entries += len(sh.entries)
		sh.mu.Unlock()
	}
	return s
}

// Session returns the compiled cost session for (model, w, a), compiling
// and caching the problem if needed, or nil when the problem is invalid.
// Baselines use this (via baselines.SessionSource) to score against the same
// warm tables and memo the main search uses.
func (e *Engine) Session(model cost.Model, w *tensor.Workload, a *arch.Arch) *cost.Session {
	comp, err := e.compiled(Problem{Workload: w, Arch: a, Model: model})
	if err != nil {
		return nil
	}
	return comp.sess
}

// compiled returns the cached artifacts for the problem, compiling them on
// first sight. Problems outside the cacheable domain — a model with a fault
// probe, or inputs that fail to serialize — compile fresh per call, exactly
// like the package-level path.
func (e *Engine) compiled(p Problem) (*Compiled, error) {
	// Validate before keying: encoding assumes structurally sound inputs,
	// and the invalid-input errors must match the per-call path's.
	if err := p.Validate(); err != nil {
		return nil, err
	}
	key, cacheable := p.Key()
	if !cacheable {
		e.compiles.Inc()
		return p.Compile()
	}
	sh := &e.shards[key[0]%engineShards]
	sh.mu.Lock()
	if el, ok := sh.entries[key]; ok {
		sh.lru.MoveToFront(el)
		ent := el.Value.(*engineEntry)
		sh.mu.Unlock()
		e.hits.Inc()
		// Wait out a concurrent first compile; no-op when already done.
		ent.once.Do(func() {})
		if ent.err != nil {
			e.dropFailed(sh, key, ent)
		}
		return ent.comp, ent.err
	}
	ent := &engineEntry{key: key}
	sh.entries[key] = sh.lru.PushFront(ent)
	for len(sh.entries) > e.shardCap {
		oldest := sh.lru.Back()
		sh.lru.Remove(oldest)
		delete(sh.entries, oldest.Value.(*engineEntry).key)
		e.evictions.Inc()
	}
	sh.mu.Unlock()
	ent.once.Do(func() {
		// A panicking compile (an injected chaos fault, a poisoned model)
		// must complete the once normally: sync.Once marks itself done even
		// when f panics, so letting the panic escape would leave a poisoned
		// entry serving (nil, nil) to every later caller.
		defer func() {
			if pe := anytime.PanicErrorFrom(recover(), "compile problem", nil); pe != nil {
				ent.comp, ent.err = nil, pe
			}
		}()
		e.compiles.Inc()
		ent.comp, ent.err = p.Compile()
	})
	if ent.err != nil {
		e.dropFailed(sh, key, ent)
	}
	return ent.comp, ent.err
}

// dropFailed removes a failed compilation from the cache so the failure is
// never retained: transient faults (an injected chaos error, a poisoned
// model panic) must not pin an error forever on a problem that would
// compile cleanly on retry. The pointer comparison keeps the removal
// precise — if another caller already replaced the entry with a fresh
// (possibly successful) compilation, that one stays.
func (e *Engine) dropFailed(sh *engineShard, key string, ent *engineEntry) {
	sh.mu.Lock()
	if el, ok := sh.entries[key]; ok && el.Value.(*engineEntry) == ent {
		sh.lru.Remove(el)
		delete(sh.entries, key)
	}
	sh.mu.Unlock()
}
