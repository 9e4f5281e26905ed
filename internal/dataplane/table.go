// Package dataplane implements the SDX's software switching fabric: a
// prioritized flow table with OpenFlow-style match/action semantics and a
// software switch that moves packets between ports. The paper's prototype
// used Open vSwitch programmed through Pyretic; this package provides the
// same behaviour for in-process experiments, with per-rule and per-port
// counters for the evaluation harness.
package dataplane

import (
	"fmt"
	"sort"
	"strings"
	"sync"
	"sync/atomic"

	"sdx/internal/pkt"
	"sdx/internal/policy"
)

// FlowEntry is one prioritized flow-table rule. Higher priority wins; ties
// are broken deterministically by cookie (ascending), then by insertion
// order (earlier wins), matching how the policy compiler emits ordered
// classifiers. The cookie tie-break makes precedence at equal priority
// independent of the interleaving of controller bands — a flush-and-replay
// resync installs the same effective order as the original incremental
// installs, which the overlap verifier (internal/verify) depends on to
// classify conflicts.
type FlowEntry struct {
	Priority int
	Match    pkt.Match
	Actions  []pkt.Action // empty = drop
	Cookie   uint64       // opaque owner tag, used for grouped deletion

	seq     uint64 // insertion sequence, stamped by insertLocked
	packets atomic.Uint64
	bytes   atomic.Uint64
}

// Packets returns the number of packets that hit this entry.
func (e *FlowEntry) Packets() uint64 { return e.packets.Load() }

// Clone returns a fresh entry with the same programmable identity
// (priority, match, actions, cookie) and zeroed table state. Entries are
// owned by the table they are inserted into — seq stamping and hit
// counters mutate them — so anything installing one entry into several
// tables (the reconciler's repair path, test corpora) must clone.
func (e *FlowEntry) Clone() *FlowEntry {
	return &FlowEntry{
		Priority: e.Priority,
		Match:    e.Match,
		Actions:  append([]pkt.Action(nil), e.Actions...),
		Cookie:   e.Cookie,
	}
}

// Seq returns the entry's insertion sequence number, the final
// tie-break leg of table precedence. The differential harness asserts
// compiled and naive lookups agree on the full (priority, cookie, seq)
// identity, not just on equal-looking matches.
func (e *FlowEntry) Seq() uint64 { return e.seq }

// Bytes returns the number of on-the-wire frame bytes that hit this
// entry (pkt.Packet.FrameLen per packet).
func (e *FlowEntry) Bytes() uint64 { return e.bytes.Load() }

// String renders "prio match -> actions".
func (e *FlowEntry) String() string {
	acts := "drop"
	if len(e.Actions) > 0 {
		parts := make([]string, len(e.Actions))
		for i, a := range e.Actions {
			parts[i] = a.String()
		}
		acts = strings.Join(parts, ", ")
	}
	return fmt.Sprintf("prio=%d %s -> %s", e.Priority, e.Match, acts)
}

// FlowTable is a concurrency-safe prioritized flow table. Lookups run,
// by default, through a compiled dispatch structure (dst-prefix trie +
// exact-field buckets, see compiled.go) fronted by a megaflow cache of
// generation-stamped verdicts (cache.go); the naive priority-ordered scan
// remains available as LookupNaive/ProcessNaive, the reference oracle the
// differential and fuzz harnesses compare against.
//
// Mutations come in two kinds. Destructive ones (DeleteCookie, Replace,
// Flush) can remove a cached verdict's winner, so they invalidate every
// verdict and the engine. Additive ones (Add, AddBatch) can only add
// candidates, so they are journaled in the add-log instead, and a verdict
// computed at an older generation is carried forward by folding in the
// entries added since (addLog.fold).
type FlowTable struct {
	mu      sync.RWMutex
	entries []*FlowEntry // sorted by entryBefore (priority desc, cookie asc, seq asc)
	seq     uint64       // next insertion sequence number
	misses  atomic.Uint64

	// log is the table's generation and add-log, published as one
	// immutable snapshot as the last step of every mutation, inside the
	// write lock. That store is the mutation's linearization point for the
	// fast path: a lookup answers as of the snapshot it loaded, so a reader
	// still holding the previous snapshot is linearized before the
	// mutation.
	log    atomic.Pointer[addLog]
	eng    atomic.Pointer[engine]
	builds atomic.Uint64
	cache  *megaflowCache

	// smp is the optional 1-in-N packet sampler (see sampler.go); nil
	// when sampling is off, which is the only cost the non-sampling hot
	// path pays.
	smp atomic.Pointer[tableSampler]
}

// addLogBound is the most entries the add-log holds. It bounds what a
// revalidation or an engine-miss fold can cost (one Match check per
// entry) and how far the engine may trail the table before it is rebuilt.
const addLogBound = 64

// logEntry is one additively installed entry and the generation that
// installed it.
type logEntry struct {
	gen uint64
	e   *FlowEntry
}

// addLog is one immutable snapshot of the table's mutation history as
// the fast path needs it: the current generation, and every entry
// installed after generation floor, oldest first. No destructive
// mutation lies between floor and gen, so any verdict (or engine) valid
// at a generation s >= floor becomes valid at gen by folding in the
// entries with a newer stamp; anything older than floor is unusable.
// Successive snapshots share one backing array — a snapshot only ever
// reads its own prefix, and the single writer (under the table's write
// lock) only appends past every published length.
type addLog struct {
	gen   uint64
	floor uint64
	adds  []logEntry
}

// fold carries a verdict from generation since to lg.gen: the winner is
// the first under entryBefore among best and the entries added after
// since whose Match covers p. This is exact, not a heuristic — between
// floor and gen the table only grew, so the naive scan's candidate set at
// gen is its candidate set at since plus those entries, and the first of
// a union is the first of the firsts. Allocation-free.
func (lg *addLog) fold(p *pkt.Packet, best *FlowEntry, since uint64) *FlowEntry {
	for i := len(lg.adds) - 1; i >= 0 && lg.adds[i].gen > since; i-- {
		e := lg.adds[i].e
		if (best == nil || entryBefore(e, best)) && e.Match.Matches(*p) {
			best = e
		}
	}
	return best
}

// NewFlowTable returns an empty table.
func NewFlowTable() *FlowTable {
	t := &FlowTable{cache: newMegaflowCache()}
	t.log.Store(&addLog{})
	return t
}

// Len returns the number of installed entries.
func (t *FlowTable) Len() int {
	t.mu.RLock()
	defer t.mu.RUnlock()
	return len(t.entries)
}

// Misses returns the number of lookups that matched no entry.
func (t *FlowTable) Misses() uint64 { return t.misses.Load() }

// Generation returns the table's mutation counter. Every Add, AddBatch,
// DeleteCookie, Replace, and Flush advances it — including no-op
// mutations.
func (t *FlowTable) Generation() uint64 { return t.log.Load().gen }

// publishAddsLocked ends an additive mutation: it advances the generation
// and appends es to the add-log. When the log would pass addLogBound the
// floor slides forward over the oldest generations rather than resetting,
// so only verdicts nobody looked up for a whole window go stale and the
// hot ones are never wiped; a batch too large to log at all is published
// like a destructive mutation. Must run under the write lock, after the
// entries were inserted (and seq-stamped).
func (t *FlowTable) publishAddsLocked(es ...*FlowEntry) {
	if len(es) > addLogBound {
		t.publishResetLocked()
		return
	}
	lg := t.log.Load()
	gen, floor, adds := lg.gen+1, lg.floor, lg.adds
	for len(adds)+len(es) > addLogBound {
		floor = adds[0].gen
		for len(adds) > 0 && adds[0].gen == floor {
			adds = adds[1:]
		}
	}
	for _, e := range es {
		adds = append(adds, logEntry{gen, e})
	}
	t.log.Store(&addLog{gen: gen, floor: floor, adds: adds})
}

// publishResetLocked ends a destructive mutation: it advances the
// generation and moves the floor up to it, which strands every cached
// verdict and the engine. Must run under the write lock.
func (t *FlowTable) publishResetLocked() {
	gen := t.log.Load().gen + 1
	t.log.Store(&addLog{gen: gen, floor: gen})
}

// Add installs one entry.
func (t *FlowTable) Add(e *FlowEntry) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.insertLocked(e)
	t.publishAddsLocked(e)
}

// AddBatch installs entries atomically, preserving their relative order.
func (t *FlowTable) AddBatch(es []*FlowEntry) {
	t.mu.Lock()
	defer t.mu.Unlock()
	for _, e := range es {
		t.insertLocked(e)
	}
	t.publishAddsLocked(es...)
}

// entryBefore reports whether a takes precedence over b in table order:
// priority descending, then cookie ascending, then insertion sequence
// ascending. The cookie leg makes equal-priority precedence across bands a
// property of the entries themselves rather than of install interleaving.
func entryBefore(a, b *FlowEntry) bool {
	if a.Priority != b.Priority {
		return a.Priority > b.Priority
	}
	if a.Cookie != b.Cookie {
		return a.Cookie < b.Cookie
	}
	return a.seq < b.seq
}

// insertLocked stamps the entry's insertion sequence and keeps entries
// sorted by entryBefore; among equal priority and cookie the earlier
// insertion stays first.
func (t *FlowTable) insertLocked(e *FlowEntry) {
	e.seq = t.seq
	t.seq++
	i := sort.Search(len(t.entries), func(i int) bool {
		return entryBefore(e, t.entries[i])
	})
	t.entries = append(t.entries, nil)
	copy(t.entries[i+1:], t.entries[i:])
	t.entries[i] = e
}

// DeleteCookie removes every entry with the given cookie and returns the
// number removed.
func (t *FlowTable) DeleteCookie(cookie uint64) int {
	t.mu.Lock()
	defer t.mu.Unlock()
	removed := t.removeCookieLocked(cookie)
	t.publishResetLocked()
	return removed
}

// removeCookieLocked compacts the entries in place, dropping those with
// the given cookie, and clears the vacated tail so the backing array does
// not keep the removed entries alive.
func (t *FlowTable) removeCookieLocked(cookie uint64) int {
	kept := t.entries[:0]
	for _, e := range t.entries {
		if e.Cookie != cookie {
			kept = append(kept, e)
		}
	}
	removed := len(t.entries) - len(kept)
	clear(t.entries[len(kept):])
	t.entries = kept
	return removed
}

// Replace atomically swaps the whole table contents for entries with the
// given cookie: existing entries with that cookie are removed and the new
// ones installed in a single critical section. Entries with other cookies
// (e.g. a higher-priority fast-path band) are untouched.
func (t *FlowTable) Replace(cookie uint64, es []*FlowEntry) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.removeCookieLocked(cookie)
	for _, e := range es {
		e.Cookie = cookie
		t.insertLocked(e)
	}
	t.publishResetLocked()
}

// Flush removes every entry regardless of cookie and returns the number
// removed. A reconnecting controller flushes before replaying its rule
// state so stale entries from the previous channel cannot linger.
func (t *FlowTable) Flush() int {
	t.mu.Lock()
	defer t.mu.Unlock()
	n := len(t.entries)
	t.entries = nil
	t.publishResetLocked()
	return n
}

// Stats returns megaflow cache counters. A verdict revalidated against
// the add-log counts as a hit.
func (t *FlowTable) Stats() CacheStats { return t.cache.stats() }

// EngineBuilds returns how many times the compiled dispatch structure
// was (re)built: by Precompile, or by a cache-missing lookup that found
// the engine older than the add-log's floor — after a destructive
// mutation, or once additive ones have slid the floor past it.
func (t *FlowTable) EngineBuilds() uint64 { return t.builds.Load() }

// SetCacheCapacity bounds the megaflow cache (verdicts per shard, 16
// shards). A full shard is cleared wholesale on the next insert.
func (t *FlowTable) SetCacheCapacity(perShard int) {
	if perShard < 1 {
		perShard = 1
	}
	t.cache.shardCap.Store(int64(perShard))
}

// engineFor returns a compiled engine no older than gen, rebuilding from
// a consistent snapshot when the published one is. The snapshot is taken
// under the read lock, where the log is stable, so the engine's stamp
// exactly matches the entries it compiled.
func (t *FlowTable) engineFor(gen uint64) *engine {
	if en := t.eng.Load(); en != nil && en.gen >= gen {
		return en
	}
	t.mu.RLock()
	g := t.log.Load().gen
	es := append([]*FlowEntry(nil), t.entries...)
	t.mu.RUnlock()
	en := buildEngine(g, es)
	t.builds.Add(1)
	for {
		cur := t.eng.Load()
		if cur != nil && cur.gen >= en.gen {
			return cur
		}
		if t.eng.CompareAndSwap(cur, en) {
			return en
		}
	}
}

// Precompile eagerly builds the compiled dispatch structure for the
// current generation, so the first packet after a large table swap does
// not pay the build cost. The controller calls it after every full
// recompilation.
func (t *FlowTable) Precompile() {
	t.engineFor(t.Generation())
}

// Lookup returns the matching entry for p (nil for table miss) without
// updating counters. It answers as of
// the log snapshot it loads first: from the megaflow cache when that
// holds a verdict the log can vouch for, else from the dispatch
// structure — any engine at or past the log's floor will do — folded up
// to the snapshot's generation, memoizing the verdict either way. The
// result is always identical to LookupNaive at that generation.
func (t *FlowTable) Lookup(p pkt.Packet) *FlowEntry {
	lg := t.log.Load()
	key := p.HeaderKey()
	if e, ok := t.cache.get(lg, key, &p); ok {
		return e
	}
	en := t.engineFor(lg.floor)
	e := lg.fold(&p, en.lookup(p), en.gen)
	// An engine built after a racing mutation is newer than lg, has
	// nothing to fold, and its verdict holds at its own generation.
	t.cache.put(max(lg.gen, en.gen), key, e)
	return e
}

// LookupNaive is the reference oracle: a linear scan of the
// priority-ordered entry list under the read lock, bypassing both the
// compiled engine and the megaflow cache. The differential and fuzz
// harnesses compare every compiled verdict against it.
func (t *FlowTable) LookupNaive(p pkt.Packet) *FlowEntry {
	t.mu.RLock()
	defer t.mu.RUnlock()
	for _, e := range t.entries {
		if e.Match.Matches(p) {
			return e
		}
	}
	return nil
}

// dropVerdict is the shared empty output slice returned when a matched
// entry emits nothing (a drop rule, or an action chain with no output).
// Sharing it keeps the drop path allocation-free; appending to it cannot
// corrupt it (zero capacity forces a copy).
var dropVerdict = make([]pkt.Packet, 0)

// Process applies the table to a packet: the highest-priority matching
// entry's actions produce the output packets, and hit counters update.
// A table miss returns nil and increments the miss counter; with a warm
// megaflow cache both the miss and drop paths are allocation-free.
func (t *FlowTable) Process(p pkt.Packet) []pkt.Packet {
	return t.apply(t.Lookup(p), p)
}

// ProcessNaive is Process through LookupNaive — the forwarding oracle
// the differential harness compares compiled Process output against.
// Counters update exactly as in Process.
func (t *FlowTable) ProcessNaive(p pkt.Packet) []pkt.Packet {
	return t.apply(t.LookupNaive(p), p)
}

func (t *FlowTable) apply(e *FlowEntry, p pkt.Packet) []pkt.Packet {
	// Every processed packet advances the sampling stride — misses too,
	// matching ProcessBatch — so 1-in-N stays an exact scale factor over
	// the stream the table saw.
	s := t.smp.Load()
	sampled := s != nil && s.count.Add(1)%s.n == 0
	if e == nil {
		t.misses.Add(1)
		return nil
	}
	e.packets.Add(1)
	// Byte counters count the full on-the-wire frame, not just the
	// payload — rate analytics scale these by the sampling rate, and
	// payload-only counting undercounts every small-packet flow by the
	// header bytes.
	flen := p.FrameLen()
	e.bytes.Add(uint64(flen))
	if len(e.Actions) == 0 {
		if sampled {
			s.sink.Sample(p, e.Cookie, pkt.OutNone, flen)
		}
		return dropVerdict
	}
	out := make([]pkt.Packet, 0, len(e.Actions))
	for _, a := range e.Actions {
		q, emitted := a.Apply(p)
		if !emitted {
			// An action chain without an output drops the packet.
			continue
		}
		out = append(out, q)
	}
	if sampled {
		eg := pkt.OutNone
		if len(out) > 0 {
			eg = out[0].InPort // action application stores egress in InPort
		}
		s.sink.Sample(p, e.Cookie, eg, flen)
	}
	return out
}

// ProcessBatch applies the table to every packet in in, appending each
// output packet to out and returning the extended slice. Counters update
// as in Process; misses increment the miss counter and invoke miss (when
// non-nil) instead of producing output. With a warm megaflow cache and a
// sufficiently large out slab the batched hot path performs zero
// allocations — callers (the switch's per-port workers, the benchmark
// harness) reuse their slabs across batches.
func (t *FlowTable) ProcessBatch(in []pkt.Packet, out []pkt.Packet, miss func(pkt.Packet)) []pkt.Packet {
	// Sampling pays one atomic add per batch: reserve a counter range for
	// the whole batch up front and walk the 1-in-N stride through it, so
	// the non-sampled path adds only an integer compare per packet.
	s := t.smp.Load()
	next := -1
	if s != nil {
		start := s.count.Add(uint64(len(in))) - uint64(len(in))
		if off := s.n - 1 - start%s.n; off < uint64(len(in)) {
			next = int(off)
		}
	}
	for i := range in {
		sampled := i == next
		if sampled {
			next += int(s.n)
		}
		e := t.Lookup(in[i])
		if e == nil {
			t.misses.Add(1)
			if miss != nil {
				miss(in[i])
			}
			continue
		}
		e.packets.Add(1)
		flen := in[i].FrameLen() // full frame length, as in apply
		e.bytes.Add(uint64(flen))
		before := len(out)
		for _, a := range e.Actions {
			if q, emitted := a.Apply(in[i]); emitted {
				out = append(out, q)
			}
		}
		if sampled {
			eg := pkt.OutNone
			if len(out) > before {
				eg = out[before].InPort
			}
			s.sink.Sample(in[i], e.Cookie, eg, flen)
		}
	}
	return out
}

// Entries returns a snapshot of the table, highest priority first.
func (t *FlowTable) Entries() []*FlowEntry {
	t.mu.RLock()
	defer t.mu.RUnlock()
	return append([]*FlowEntry(nil), t.entries...)
}

// String renders the table, one entry per line.
func (t *FlowTable) String() string {
	var b strings.Builder
	for _, e := range t.Entries() {
		fmt.Fprintln(&b, e)
	}
	return b.String()
}

// OrderEntries sorts a snapshot of entries into table precedence order:
// priority descending, then cookie ascending, then original slice order.
// For a snapshot taken from a FlowTable this is a no-op; the verifier uses
// it to impose the table's deterministic precedence on entry sets
// assembled outside a FlowTable (e.g. rendered classifier bands).
func OrderEntries(es []*FlowEntry) {
	sort.SliceStable(es, func(i, j int) bool {
		if es[i].Priority != es[j].Priority {
			return es[i].Priority > es[j].Priority
		}
		return es[i].Cookie < es[j].Cookie
	})
}

// EntriesFromClassifier converts a compiled classifier into flow entries:
// rule i of n gets priority base+n-1-i so the classifier's first-match
// order is preserved. All entries carry the given cookie.
func EntriesFromClassifier(c policy.Classifier, base int, cookie uint64) []*FlowEntry {
	es := make([]*FlowEntry, len(c))
	for i, r := range c {
		es[i] = &FlowEntry{
			Priority: base + len(c) - 1 - i,
			Match:    r.Match,
			Actions:  r.Actions,
			Cookie:   cookie,
		}
	}
	return es
}
