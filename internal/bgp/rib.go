package bgp

import (
	"cmp"
	"fmt"
	"regexp"
	"slices"
	"strings"
	"sync"

	"sdx/internal/iputil"
)

// Route is one path to a prefix as learned from a peer.
type Route struct {
	Prefix iputil.Prefix
	Attrs  *PathAttrs
	PeerAS uint32      // the session the route was learned on
	PeerID iputil.Addr // advertising router's ID, for tie-breaking
}

// String renders a compact route summary.
func (r *Route) String() string {
	return fmt.Sprintf("%s via AS%d %s", r.Prefix, r.PeerAS, r.Attrs)
}

// RIBShards is the number of independent lock domains a RIB is split
// into. Updates for prefixes in different shards never contend. A small
// power of two keeps the per-shard map overhead negligible while giving
// full-table feeds (1M prefixes, 1000 peers) enough parallelism to keep
// every core busy.
const RIBShards = 16

// ShardOf maps a prefix to its shard index. The mapping is a stable
// FNV-1a hash over the prefix bytes rather than a range split: workload
// prefixes are typically sequential /24s, so range-based sharding would
// put entire feeds in one shard. Everything that partitions work by
// prefix (the route server's per-shard decision process, parallel RIB
// walks) must use this same mapping so per-prefix state lines up 1:1
// across layers.
func ShardOf(p iputil.Prefix) int {
	const (
		offset64 = 14695981039346656037
		prime64  = 1099511628211
	)
	h := uint64(offset64)
	a := uint32(p.Addr())
	h = (h ^ uint64(a>>24)) * prime64
	h = (h ^ uint64(a>>16&0xff)) * prime64
	h = (h ^ uint64(a>>8&0xff)) * prime64
	h = (h ^ uint64(a&0xff)) * prime64
	h = (h ^ uint64(p.Bits())) * prime64
	return int(h & (RIBShards - 1))
}

// ribShard is one lock domain: a slice of the route table guarded by its
// own lock. All prefixes in the shard satisfy ShardOf(p) == index.
type ribShard struct {
	mu     sync.RWMutex
	routes map[iputil.Prefix]map[uint32]*Route // prefix -> peerAS -> route
}

// RIB is a set of routes keyed by prefix with at most one route per
// (prefix, peer AS) pair — the shape of both a per-peer Adj-RIB-In (where
// all routes share one peer) and a route server's merged table. RIB is
// safe for concurrent use, and internally sharded (RIBShards lock
// domains keyed by ShardOf) so writers touching disjoint prefixes do not
// serialize on one mutex. The API is unchanged from the unsharded RIB;
// per-shard accessors (ShardPrefixes, ShardRemovePeer, WalkShard) expose
// the partitioning to callers that want to work shard by shard.
type RIB struct {
	shards [RIBShards]ribShard
}

// NewRIB returns an empty RIB.
func NewRIB() *RIB {
	t := &RIB{}
	for i := range t.shards {
		t.shards[i].routes = make(map[iputil.Prefix]map[uint32]*Route)
	}
	return t
}

// Add inserts or replaces the route for (route.Prefix, route.PeerAS).
func (t *RIB) Add(r *Route) {
	sh := &t.shards[ShardOf(r.Prefix)]
	sh.mu.Lock()
	defer sh.mu.Unlock()
	m := sh.routes[r.Prefix]
	if m == nil {
		m = make(map[uint32]*Route)
		sh.routes[r.Prefix] = m
	}
	m[r.PeerAS] = r
}

// Remove deletes the route for (prefix, peerAS). It reports whether a
// route was present.
func (t *RIB) Remove(prefix iputil.Prefix, peerAS uint32) bool {
	sh := &t.shards[ShardOf(prefix)]
	sh.mu.Lock()
	defer sh.mu.Unlock()
	m := sh.routes[prefix]
	if _, ok := m[peerAS]; !ok {
		return false
	}
	delete(m, peerAS)
	if len(m) == 0 {
		delete(sh.routes, prefix)
	}
	return true
}

// ShardRemovePeer deletes every route learned from peerAS whose prefix
// lives in the given shard and returns the affected prefixes. Callers
// parallelizing a session teardown run one call per shard concurrently.
func (t *RIB) ShardRemovePeer(shard int, peerAS uint32) []iputil.Prefix {
	sh := &t.shards[shard]
	sh.mu.Lock()
	defer sh.mu.Unlock()
	var affected []iputil.Prefix
	for p, m := range sh.routes {
		if _, ok := m[peerAS]; ok {
			delete(m, peerAS)
			affected = append(affected, p)
			if len(m) == 0 {
				delete(sh.routes, p)
			}
		}
	}
	return affected
}

// Get returns the route for (prefix, peerAS).
func (t *RIB) Get(prefix iputil.Prefix, peerAS uint32) (*Route, bool) {
	sh := &t.shards[ShardOf(prefix)]
	sh.mu.RLock()
	defer sh.mu.RUnlock()
	r, ok := sh.routes[prefix][peerAS]
	return r, ok
}

// Routes returns every route for a prefix, ordered by peer AS for
// determinism.
func (t *RIB) Routes(prefix iputil.Prefix) []*Route {
	sh := &t.shards[ShardOf(prefix)]
	sh.mu.RLock()
	defer sh.mu.RUnlock()
	m := sh.routes[prefix]
	out := make([]*Route, 0, len(m))
	for _, r := range m {
		out = append(out, r)
	}
	slices.SortFunc(out, func(a, b *Route) int { return cmp.Compare(a.PeerAS, b.PeerAS) })
	return out
}

// Prefixes returns every prefix with at least one route, sorted.
func (t *RIB) Prefixes() []iputil.Prefix {
	var out []iputil.Prefix
	for i := range t.shards {
		out = append(out, t.ShardPrefixes(i)...)
	}
	slices.SortFunc(out, iputil.Prefix.Compare)
	return out
}

// ShardPrefixes returns every prefix with at least one route in the
// given shard, sorted. The union over all shards is Prefixes().
func (t *RIB) ShardPrefixes(shard int) []iputil.Prefix {
	sh := &t.shards[shard]
	sh.mu.RLock()
	defer sh.mu.RUnlock()
	out := make([]iputil.Prefix, 0, len(sh.routes))
	for p := range sh.routes {
		out = append(out, p)
	}
	slices.SortFunc(out, iputil.Prefix.Compare)
	return out
}

// Len returns the number of prefixes with at least one route.
func (t *RIB) Len() int {
	n := 0
	for i := range t.shards {
		sh := &t.shards[i]
		sh.mu.RLock()
		n += len(sh.routes)
		sh.mu.RUnlock()
	}
	return n
}

// WalkShard visits every prefix of one shard with all of its routes, in a
// single pass under the shard's read lock. Prefix order and route order
// are unspecified; the routes slice is reused between calls, so fn must
// not retain it (the routes themselves are immutable and may be kept).
// fn must not call back into the RIB.
func (t *RIB) WalkShard(shard int, fn func(prefix iputil.Prefix, routes []*Route)) {
	sh := &t.shards[shard]
	sh.mu.RLock()
	defer sh.mu.RUnlock()
	var buf []*Route
	for p, m := range sh.routes {
		buf = buf[:0]
		for _, r := range m {
			buf = append(buf, r)
		}
		fn(p, buf)
	}
}

// FilterASPath returns, sorted, the prefixes with at least one route whose
// AS path matches the regular expression over the space-separated AS path
// string (e.g. `.* 43515$` for "originated by AS 43515"). This implements the
// paper's §3.2 "grouping traffic based on BGP attributes":
//
//	YouTubePrefixes = RIB.filter('as_path', .*43515$)
func (t *RIB) FilterASPath(expr string) ([]iputil.Prefix, error) {
	re, err := regexp.Compile(expr)
	if err != nil {
		return nil, err
	}
	var out []iputil.Prefix
	for i := range t.shards {
		sh := &t.shards[i]
		sh.mu.RLock()
		for p, m := range sh.routes {
			for _, r := range m {
				if re.MatchString(pathString(r.Attrs.ASPath)) {
					out = append(out, p)
					break
				}
			}
		}
		sh.mu.RUnlock()
	}
	slices.SortFunc(out, iputil.Prefix.Compare)
	return out, nil
}

func pathString(path []uint32) string {
	parts := make([]string, len(path))
	for i, as := range path {
		parts[i] = fmt.Sprint(as)
	}
	return strings.Join(parts, " ")
}
