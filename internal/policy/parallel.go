package policy

import (
	"fmt"
	"reflect"
	"runtime"
	"sync"
	"sync/atomic"

	"sdx/internal/pkt"
	"sdx/internal/telemetry"
)

// cacheShards spreads the memoization table over independently locked
// shards so concurrent compile workers never contend on a single lock.
const cacheShards = 64

// cacheEntry is one memoized (or in-flight) sub-policy compilation.
type cacheEntry struct {
	done chan struct{} // closed when cl is ready
	cl   Classifier
}

type cacheShard struct {
	mu sync.Mutex
	m  map[Policy]*cacheEntry
}

// shardedCache memoizes compiled sub-policies by node identity, like the
// serial Compiler's map, but safe for concurrent use. A claim/complete
// protocol deduplicates in-flight work: the first goroutine to ask for a
// node compiles it while later askers block on the entry's done channel,
// so a policy node shared across compositions is still compiled exactly
// once between resets (§4.3.1), even under concurrency.
type shardedCache struct {
	shards [cacheShards]cacheShard
}

func newShardedCache() *shardedCache {
	c := &shardedCache{}
	for i := range c.shards {
		c.shards[i].m = make(map[Policy]*cacheEntry)
	}
	return c
}

// shardFor picks the shard by the policy node's address. Every Policy
// implementation is a pointer, so the address is the node identity the
// serial compiler memoizes by.
func (c *shardedCache) shardFor(p Policy) *cacheShard {
	ptr := reflect.ValueOf(p).Pointer()
	return &c.shards[(ptr>>4)%cacheShards]
}

// lookup returns (cl, nil, true) for a completed entry, blocking first if
// the entry is still being compiled elsewhere.
// Otherwise it installs a fresh in-flight entry and returns (nil, claim,
// false); the caller must compile the node and call claim's complete.
func (c *shardedCache) lookup(p Policy) (Classifier, *cacheEntry, bool) {
	s := c.shardFor(p)
	s.mu.Lock()
	if e := s.m[p]; e != nil {
		s.mu.Unlock()
		<-e.done
		return e.cl, nil, true
	}
	e := &cacheEntry{done: make(chan struct{})}
	s.m[p] = e
	s.mu.Unlock()
	return nil, e, false
}

func (e *cacheEntry) complete(cl Classifier) {
	e.cl = cl
	close(e.done)
}

// invalidate drops the entry for one node.
func (c *shardedCache) invalidate(p Policy) {
	s := c.shardFor(p)
	s.mu.Lock()
	delete(s.m, p)
	s.mu.Unlock()
}

// reset drops every entry. Entries are keyed by policy-node identity and
// each recompilation builds fresh nodes, so an old pass's entries can
// never hit again; left in place they pin that pass's policy trees and
// classifiers for the life of the cache.
func (c *shardedCache) reset() {
	for i := range c.shards {
		s := &c.shards[i]
		s.mu.Lock()
		clear(s.m)
		s.mu.Unlock()
	}
}

// len counts the completed and in-flight entries.
func (c *shardedCache) len() int {
	n := 0
	for i := range c.shards {
		s := &c.shards[i]
		s.mu.Lock()
		n += len(s.m)
		s.mu.Unlock()
	}
	return n
}

// ParallelCompiler translates policies to classifiers like Compiler, but
// fans independent sub-policies — the branches of parallel and sequential
// compositions, the arms of if-then-else — out across a bounded worker
// pool. Composition folds run in the same order as the serial compiler
// after all branches complete, so the output classifier is byte-identical
// to Compiler's for any policy; only wall-clock time differs.
//
// Concurrent Compile calls are safe and share the memo cache. Reset and
// Invalidate must not race with Compile (the SDX controller serializes
// recompilations; worker fan-out happens inside one Compile call).
type ParallelCompiler struct {
	cache *shardedCache
	sem   chan struct{}

	// DisableCache turns off sub-policy memoization (§4.3.1 ablation).
	DisableCache bool
	// DisableConcat forces full cross-product parallel composition even
	// for disjoint guarded policies (§4.3.1 ablation).
	DisableConcat bool

	seqOps, parOps, cacheHits, rules atomic.Int64
	busyNS                           atomic.Int64
}

// NewParallelCompiler returns a compiler with a pool of `workers`
// concurrent compile slots (0 or negative means GOMAXPROCS).
func NewParallelCompiler(workers int) *ParallelCompiler {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	return &ParallelCompiler{
		cache: newShardedCache(),
		sem:   make(chan struct{}, workers),
	}
}

// Workers returns the pool size.
func (c *ParallelCompiler) Workers() int { return cap(c.sem) }

// Stats returns a snapshot of the work counters. SeqOps, ParOps and
// Rules match the serial compiler's; CacheHits additionally counts
// goroutines that waited on an in-flight entry; BusyNS sums the time
// pool workers spent compiling fanned-out branches (inline fallbacks
// run on the caller's clock and are not counted).
func (c *ParallelCompiler) Stats() CompileStats {
	return CompileStats{
		SeqOps:    int(c.seqOps.Load()),
		ParOps:    int(c.parOps.Load()),
		CacheHits: int(c.cacheHits.Load()),
		Rules:     int(c.rules.Load()),
		BusyNS:    c.busyNS.Load(),
	}
}

// Reset drops all memoized sub-policies and zeroes the statistics. Call
// it between recompilations so no stale entry is ever observed and none
// outlives the policy tree it was compiled from.
func (c *ParallelCompiler) Reset() {
	c.cache.reset()
	c.seqOps.Store(0)
	c.parOps.Store(0)
	c.cacheHits.Store(0)
	c.rules.Store(0)
	c.busyNS.Store(0)
}

// Invalidate drops the memoization entry for a policy node.
func (c *ParallelCompiler) Invalidate(p Policy) { c.cache.invalidate(p) }

// CacheLen returns the number of memoized sub-policies.
func (c *ParallelCompiler) CacheLen() int { return c.cache.len() }

// Compile translates a policy into an equivalent total classifier.
func (c *ParallelCompiler) Compile(p Policy) Classifier {
	out := c.compile(p)
	c.rules.Store(int64(len(out)))
	return out
}

func (c *ParallelCompiler) compile(p Policy) Classifier {
	if c.DisableCache {
		return c.build(p)
	}
	cl, claim, hit := c.cache.lookup(p)
	if hit {
		c.cacheHits.Add(1)
		return cl
	}
	var out Classifier
	// Complete the claim even if build panics (out is then nil), so
	// goroutines waiting on the entry are never stranded.
	defer func() { claim.complete(out) }()
	out = c.build(p)
	return out
}

func (c *ParallelCompiler) build(p Policy) Classifier {
	switch n := p.(type) {
	case *Filter:
		return compileFilter(n)
	case *Fwd:
		return compileFwd(n)
	case *Mod:
		return compileMod(n)
	case *Drop:
		return Classifier{{Match: pkt.MatchAll}}
	case *Pass:
		return Classifier{{Match: pkt.MatchAll, Actions: []pkt.Action{pkt.Pass}}}
	case *Parallel:
		return c.buildParallel(n.Ps)
	case *Sequential:
		return c.buildSequential(n.Ps)
	case *If:
		return c.buildIf(n)
	default:
		panic(fmt.Sprintf("policy: unknown node type %T", p))
	}
}

// fanOut compiles every policy, in a pool worker per branch while slots
// are free and inline on the calling goroutine otherwise. The fallback
// keeps nested fan-outs deadlock-free: a branch that cannot get a slot
// makes progress on its parent's goroutine instead of waiting for one.
// Results are merged in input order, so downstream folds see exactly the
// serial compiler's operand order.
func (c *ParallelCompiler) fanOut(ps []Policy) []Classifier {
	sub := make([]Classifier, len(ps))
	var wg sync.WaitGroup
	for i, p := range ps {
		select {
		case c.sem <- struct{}{}:
			wg.Add(1)
			go func() {
				defer wg.Done()
				defer func() { <-c.sem }()
				t := telemetry.StartTimer(nil)
				sub[i] = c.compile(p)
				c.busyNS.Add(int64(t.Stop()))
			}()
		default:
			sub[i] = c.compile(p)
		}
	}
	wg.Wait()
	return sub
}

func (c *ParallelCompiler) buildParallel(ps []Policy) Classifier {
	if len(ps) == 0 {
		return Classifier{{Match: pkt.MatchAll}}
	}
	sub := c.fanOut(ps)
	if len(sub) > 1 && !c.DisableConcat {
		if cat, ok := ConcatDisjoint(sub...); ok {
			return cat
		}
	}
	acc := sub[0]
	for _, s := range sub[1:] {
		c.parOps.Add(1)
		acc = parallelCompose(acc, s)
	}
	return acc
}

func (c *ParallelCompiler) buildSequential(ps []Policy) Classifier {
	if len(ps) == 0 {
		return Classifier{{Match: pkt.MatchAll, Actions: []pkt.Action{pkt.Pass}}}
	}
	sub := c.fanOut(ps)
	acc := sub[0]
	for _, s := range sub[1:] {
		c.seqOps.Add(1)
		acc = seqCompose(acc, s)
	}
	return acc
}

func (c *ParallelCompiler) buildIf(n *If) Classifier {
	sub := c.fanOut([]Policy{n.Pred, n.Then, n.Else})
	return composeIf(sub[0], sub[1], sub[2])
}
