package dataplane

// The megaflow cache. Even through the compiled dispatch structure, a
// lookup costs a trie walk plus a few map probes; real traffic is heavily
// repetitive (a border router re-sends the same header tuple for every
// packet of a flow), so — like Open vSwitch's megaflow layer — we
// memoize the final verdict per exact header tuple. Negative verdicts
// (table miss) are cached too, keeping the miss path allocation-free once
// warm.
//
// Like Open vSwitch's revalidator, the cache revalidates across a
// flow-mod instead of being flushed by it. Each verdict carries the table
// generation it is known to hold at, and a reader judges it against the
// add-log snapshot (table.go) it loaded at the start of its lookup — the
// point the lookup is linearized at:
//
//   - stamp >= log.gen: current (or computed by a racing reader against
//     a newer snapshot, which is as good: that generation existed during
//     this lookup). Served as is; this is the whole cost when nothing is
//     installing.
//   - log.floor <= stamp < log.gen: only additive mutations happened
//     since, and the log still holds every entry they installed. The
//     verdict is folded over the entries newer than its stamp (addLog.fold:
//     one Match check each, exact because an add can only add candidates),
//     restamped in place, and counts as a hit. Each verdict pays for each
//     installed entry once.
//   - stamp < log.floor: a destructive mutation (DeleteCookie, Replace,
//     Flush) or a slid floor lies in between; the verdict is dead. It is
//     reported as a miss and overwritten by the engine's answer, or goes
//     when its shard fills.
//
// So a destructive mutation still invalidates everything at once — by
// moving the floor, without touching the shards — while a fast-path
// install costs the cached flows a few Match checks and nothing else.
// The stamp widens the map's value from one word to two; the hit/miss
// counters moved under the shard mutex (one atomic add per lookup less)
// pay for that on the warm path.

import (
	"sync"
	"sync/atomic"

	"sdx/internal/pkt"
)

const (
	cacheShards = 16

	// defaultCacheCap bounds each shard; a shard that fills is cleared
	// wholesale (cheap, and a verdict is only ever an optimization)
	// rather than tracking LRU order on the hot path.
	defaultCacheCap = 4096
)

// verdict is one cached lookup result: the winning entry (nil = table
// miss) and the table generation it is known to hold at.
type verdict struct {
	e     *FlowEntry
	stamp uint64
}

type cacheShard struct {
	mu           sync.Mutex
	m            map[pkt.HeaderKey]verdict
	hits, misses uint64 // under mu, which every lookup holds anyway
}

// megaflowCache is a sharded exact-match cache from header tuple to a
// generation-stamped verdict.
type megaflowCache struct {
	shardCap atomic.Int64
	shards   [cacheShards]cacheShard
}

func newMegaflowCache() *megaflowCache {
	c := &megaflowCache{}
	c.shardCap.Store(defaultCacheCap)
	return c
}

// keyHash mixes every header field (FNV-1a style); the low bits pick the
// shard.
func keyHash(k pkt.HeaderKey) uint64 {
	const prime = 1099511628211
	h := uint64(14695981039346656037)
	h = (h ^ uint64(k.InPort)) * prime
	h = (h ^ uint64(k.SrcMAC)) * prime
	h = (h ^ uint64(k.DstMAC)) * prime
	h = (h ^ uint64(k.EthType)) * prime
	h = (h ^ uint64(k.SrcIP)) * prime
	h = (h ^ uint64(k.DstIP)) * prime
	h = (h ^ uint64(k.Proto)) * prime
	h = (h ^ uint64(k.SrcPort)) * prime
	h = (h ^ uint64(k.DstPort)) * prime
	// Fold the high bits down so shard selection sees the whole hash.
	return h ^ h>>32
}

// get returns p's verdict as of lg's generation, if the cache can vouch
// for one. A verdict stamped at or after lg.gen is served as is; one
// stamped inside the log's window is carried forward by folding in the
// entries added since its stamp, restamped in place, and still counts as
// a hit; one stamped before lg.floor cannot be revalidated and is a miss.
// The verdict itself may be nil (a cached table miss); ok distinguishes
// "cached nil" from "not cached".
func (c *megaflowCache) get(lg *addLog, k pkt.HeaderKey, p *pkt.Packet) (e *FlowEntry, ok bool) {
	s := &c.shards[keyHash(k)%cacheShards]
	s.mu.Lock()
	v, ok := s.m[k]
	if ok && v.stamp < lg.gen {
		if ok = v.stamp >= lg.floor; ok {
			v.e = lg.fold(p, v.e, v.stamp)
			s.m[k] = verdict{v.e, lg.gen}
		}
	}
	if ok {
		s.hits++
	} else {
		s.misses++
	}
	s.mu.Unlock()
	return v.e, ok
}

// put records that e is k's verdict at generation stamp. Stamps are
// self-describing, so a racing reader overwriting a newer verdict with an
// older one only costs the next reader a re-fold, never a wrong answer.
func (c *megaflowCache) put(stamp uint64, k pkt.HeaderKey, e *FlowEntry) {
	s := &c.shards[keyHash(k)%cacheShards]
	s.mu.Lock()
	if s.m == nil {
		s.m = make(map[pkt.HeaderKey]verdict)
	} else if int64(len(s.m)) >= c.shardCap.Load() {
		clear(s.m)
	}
	s.m[k] = verdict{e, stamp}
	s.mu.Unlock()
}

// stats sums the per-shard counters and verdict counts.
func (c *megaflowCache) stats() CacheStats {
	var st CacheStats
	for i := range c.shards {
		s := &c.shards[i]
		s.mu.Lock()
		st.Hits += s.hits
		st.Misses += s.misses
		st.Entries += len(s.m)
		s.mu.Unlock()
	}
	return st
}

// CacheStats reports megaflow cache effectiveness: lookups served from
// the cache, lookups that fell through to the dispatch engine, and the
// number of currently cached verdicts.
type CacheStats struct {
	Hits    uint64
	Misses  uint64
	Entries int
}

// HitRate returns the fraction of lookups served from the cache, or 0
// when nothing has been looked up.
func (s CacheStats) HitRate() float64 {
	total := s.Hits + s.Misses
	if total == 0 {
		return 0
	}
	return float64(s.Hits) / float64(total)
}
