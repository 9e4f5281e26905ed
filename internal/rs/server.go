// Package rs implements the SDX route server (§3.2, §5.1): it collects the
// BGP routes advertised by every participant, applies per-participant
// export policies, computes one best route per prefix on behalf of each
// participant, and reports the prefixes whose best routes changed, which
// drive the SDX policy compiler. Re-advertisement (with virtual next hops
// substituted) is left to the controller layer, which rewrites next hops
// before the update leaves the box.
//
// The Loc-RIB holds one view per prefix — the best route over all routes,
// plus exceptions for the few viewers from whom something is hidden —
// rather than one entry per participant per prefix.
//
// The server is sharded for full-table feeds: the merged Adj-RIB-In and
// the Loc-RIB views are split into bgp.RIBShards lock domains
// keyed by bgp.ShardOf, and the decision process for a batch of updates
// runs one goroutine per touched shard. Updates for prefixes in different
// shards never contend; the participant registry has its own lock (pmu)
// that decision workers only read-hold.
package rs

import (
	"cmp"
	"fmt"
	"slices"
	"sync"
	"sync/atomic"

	"sdx/internal/bgp"
	"sdx/internal/iputil"
	"sdx/internal/telemetry"
)

// ExportPolicy restricts which of a participant's routes the route server
// re-advertises to which peers. The zero value exports everything to
// everyone (the common IXP default).
type ExportPolicy struct {
	// DenyAllTo lists peers that receive none of this participant's routes.
	DenyAllTo map[uint32]bool
	// DenyTo lists specific prefixes withheld from specific peers; a
	// route is withheld when its prefix equals a listed prefix.
	DenyTo map[uint32][]iputil.Prefix
}

// Allows reports whether a route for prefix may be exported to peer `to`.
func (e *ExportPolicy) Allows(to uint32, prefix iputil.Prefix) bool {
	if e == nil {
		return true
	}
	if e.DenyAllTo[to] {
		return false
	}
	for _, p := range e.DenyTo[to] {
		if p == prefix {
			return false
		}
	}
	return true
}

// ParticipantConfig describes one route-server client.
type ParticipantConfig struct {
	AS       uint32
	RouterID iputil.Addr
	Export   *ExportPolicy
}

// PeerUpdate pairs one BGP UPDATE with the participant it was received
// from — the unit of the batch-first ingestion API (Server.Apply,
// core's Controller.ApplyBatch).
type PeerUpdate struct {
	From   uint32
	Update *bgp.Update
}

type participant struct {
	cfg ParticipantConfig
}

// view is one prefix's Loc-RIB across every viewer, immutable once stored:
// best is bgp.Best over all of the prefix's routes, and except lists, by
// AS, the registered viewers whose best differs because something is
// hidden from them (a nil route: the viewer sees none). Every other
// registered viewer's best is best.
type view struct {
	best   *bgp.Route
	except []viewerBest
}

type viewerBest struct {
	as    uint32
	route *bgp.Route
}

// find returns the index of as in v.except, or where it would go.
func (v view) find(as uint32) (int, bool) {
	return slices.BinarySearchFunc(v.except, as, func(e viewerBest, as uint32) int { return cmp.Compare(e.as, as) })
}

// bestFor returns registered viewer as's best route (nil for none).
func (v view) bestFor(as uint32) *bgp.Route {
	if i, ok := v.find(as); ok {
		return v.except[i].route
	}
	return v.best
}

// locShard is one lock domain of the Loc-RIB: the views of every prefix p
// with bgp.ShardOf(p) == this shard's index. Aligning the Loc-RIB shards
// 1:1 with the Adj-RIB-In shards lets one goroutine apply a shard's RIB
// mutations and rerun its slice of the decision process without touching
// any other shard's lock.
type locShard struct {
	mu    sync.RWMutex
	views map[iputil.Prefix]view // prefixes with at least one route
}

// ribMutation is one Adj-RIB-In change extracted from an UPDATE: an
// announcement (route != nil) or a withdrawal (route == nil) of prefix by
// participant `from`.
type ribMutation struct {
	prefix iputil.Prefix
	from   uint32
	route  *bgp.Route
}

// Server is the SDX route server. It is safe for concurrent use.
type Server struct {
	// pmu guards the participant registry and communityAS. Decision
	// workers hold it for reading; lock order is pmu before any shard
	// lock, never the reverse.
	pmu          sync.RWMutex
	participants map[uint32]*participant
	communityAS  uint32 // community semantics (see EnableCommunities); 0 disables
	// viewers is the registered ASes, sorted, republished (never mutated)
	// under pmu by every registration change, so readers need no pmu.
	viewers atomic.Pointer[[]uint32]

	adjIn   *bgp.RIB // merged Adj-RIB-In: route per (prefix, advertising participant)
	shards  [bgp.RIBShards]locShard
	updates atomic.Int64 // UPDATE messages processed

	// Resolved metric handles; nil (the default) makes every update a
	// no-op, so an unobserved server pays nothing.
	mUpdatesIn   *telemetry.Counter
	mBestChanges *telemetry.Counter
	mDecisionNS  *telemetry.Histogram
}

// Option configures a Server.
type Option func(*Server)

// WithMetrics publishes route-server metrics into reg:
//
//	rs.updates_in     counter   UPDATE messages processed
//	rs.best_changes   counter   best-route changes, one per (viewer, prefix)
//	rs.decision_ns    histogram decision-process latency per batch
//	rs.adj_rib_routes gauge     routes in the merged Adj-RIB-In
//	rs.loc_rib_routes gauge     best routes across all participant views
//	rs.participants   gauge     registered participants
//
// The size gauges are snapshot-time callbacks; they add no work to the
// update path.
func WithMetrics(reg *telemetry.Registry) Option {
	return func(s *Server) {
		s.mUpdatesIn = reg.Counter("rs.updates_in")
		s.mBestChanges = reg.Counter("rs.best_changes")
		s.mDecisionNS = reg.Histogram("rs.decision_ns")
		reg.RegisterGaugeFunc("rs.adj_rib_routes", func() int64 {
			return int64(s.adjIn.Len())
		})
		// Every registered viewer of every view, less the exceptions
		// that see no route.
		reg.RegisterGaugeFunc("rs.loc_rib_routes", func() int64 {
			n, viewers := 0, len(*s.viewers.Load())
			for si := range s.shards {
				sh := &s.shards[si]
				sh.mu.RLock()
				for _, v := range sh.views {
					n += viewers
					for _, e := range v.except {
						if e.route == nil {
							n--
						}
					}
				}
				sh.mu.RUnlock()
			}
			return int64(n)
		})
		reg.RegisterGaugeFunc("rs.participants", func() int64 {
			return int64(len(*s.viewers.Load()))
		})
	}
}

// EnableCommunities turns on conventional route-server community
// handling with the given route-server AS number.
func (s *Server) EnableCommunities(localAS uint32) {
	s.pmu.Lock()
	defer s.pmu.Unlock()
	s.communityAS = localAS
}

// communityAllows evaluates the community semantics for exporting route r
// to participant `to` under route-server AS localAS (0 disables):
//
//	(0, peer)       do not announce this route to AS peer
//	(0, localAS)    do not announce this route to anyone
//	(localAS, peer) announce only to AS peer (whitelist mode when
//	                any such community is present)
func communityAllows(localAS uint32, r *bgp.Route, to uint32) bool {
	if localAS == 0 || r.Attrs == nil {
		return true
	}
	whitelist := false
	whitelisted := false
	for _, c := range r.Attrs.Communities {
		hi, lo := c>>16, c&0xffff
		switch {
		case hi == 0 && lo == localAS&0xffff:
			return false // announce to no one
		case hi == 0 && lo == to&0xffff:
			return false // do not announce to `to`
		case hi == localAS&0xffff:
			whitelist = true
			if lo == to&0xffff {
				whitelisted = true
			}
		}
	}
	if whitelist {
		return whitelisted
	}
	return true
}

// New returns an empty route server.
func New(opts ...Option) *Server {
	s := &Server{
		participants: make(map[uint32]*participant),
		adjIn:        bgp.NewRIB(),
	}
	for si := range s.shards {
		s.shards[si].views = make(map[iputil.Prefix]view)
	}
	s.viewers.Store(&[]uint32{})
	for _, o := range opts {
		o(s)
	}
	return s
}

// NumShards returns the number of lock domains the server's RIBs are
// split into (bgp.RIBShards); prefix p belongs to shard bgp.ShardOf(p).
func (s *Server) NumShards() int { return bgp.RIBShards }

// AddParticipant registers a participant. It fails on duplicate AS.
func (s *Server) AddParticipant(cfg ParticipantConfig) error {
	s.pmu.Lock()
	defer s.pmu.Unlock()
	if _, dup := s.participants[cfg.AS]; dup {
		return fmt.Errorf("rs: duplicate participant AS%d", cfg.AS)
	}
	s.participants[cfg.AS] = &participant{cfg: cfg}
	// A late joiner learns current best routes for every known prefix;
	// where its best differs from the view's, it becomes an exception.
	for si := range s.shards {
		sh := &s.shards[si]
		//lint:ignore lockblock pmu-before-shard is the documented lock order; shard critical sections are bounded (no I/O) so registry holders never wait on anything unbounded
		sh.mu.Lock()
		for _, prefix := range s.adjIn.ShardPrefixes(si) {
			v := sh.views[prefix]
			best := s.bestFor(cfg.AS, prefix, s.adjIn.Routes(prefix), v.best)
			if best != v.best {
				i, _ := v.find(cfg.AS)
				v.except = slices.Concat(v.except[:i], []viewerBest{{cfg.AS, best}}, v.except[i:])
				sh.views[prefix] = v
			}
		}
		sh.mu.Unlock()
	}
	s.publishViewersLocked()
	return nil
}

// publishViewersLocked republishes the sorted registered ASes. Caller
// holds pmu for writing.
func (s *Server) publishViewersLocked() {
	vs := make([]uint32, 0, len(s.participants))
	for as := range s.participants {
		vs = append(vs, as)
	}
	slices.Sort(vs)
	s.viewers.Store(&vs)
}

// registered reports whether as is a registered participant.
func (s *Server) registered(as uint32) bool {
	_, ok := slices.BinarySearch(*s.viewers.Load(), as)
	return ok
}

// RemoveParticipant withdraws every route learned from the participant and
// deregisters it, returning the prefixes whose best route changed for
// another participant, sorted.
func (s *Server) RemoveParticipant(as uint32) []iputil.Prefix {
	s.pmu.Lock()
	defer s.pmu.Unlock()
	delete(s.participants, as)
	s.publishViewersLocked()
	return s.removePeerRoutes(as, true)
}

// FlushPeer withdraws every route learned from the participant while
// keeping it registered, returning the prefixes whose best route changed,
// sorted — the route server's half of session-flap degradation: a peer
// whose BGP session stayed down past the controller's age-out loses its
// routes, but can re-announce them on the next session without
// re-registering.
func (s *Server) FlushPeer(as uint32) []iputil.Prefix {
	s.pmu.RLock()
	defer s.pmu.RUnlock()
	return s.removePeerRoutes(as, false)
}

// removePeerRoutes drops every route learned from `as` shard by shard in
// parallel, rerunning the decision process over the affected prefixes.
// dropView additionally discards the participant's own exceptions
// (deregistration). Caller holds pmu.
func (s *Server) removePeerRoutes(as uint32, dropView bool) []iputil.Prefix {
	t := telemetry.StartTimer(s.mDecisionNS)
	ases := *s.viewers.Load()
	var results [bgp.RIBShards]shardChanges
	var wg sync.WaitGroup
	for si := range s.shards {
		wg.Add(1)
		go func(si int) {
			defer wg.Done()
			sh := &s.shards[si]
			sh.mu.Lock()
			defer sh.mu.Unlock()
			if dropView {
				for prefix, v := range sh.views {
					if i, ok := v.find(as); ok {
						v.except = slices.Concat(v.except[:i], v.except[i+1:])
						sh.views[prefix] = v
					}
				}
			}
			affected := s.adjIn.ShardRemovePeer(si, as)
			results[si] = s.decideShardLocked(sh, affected, ases)
		}(si)
	}
	wg.Wait()
	changed := s.mergeChanges(&results)
	t.Stop()
	return changed
}

// Participants returns the registered AS numbers, sorted.
func (s *Server) Participants() []uint32 {
	return slices.Clone(*s.viewers.Load())
}

// Apply applies a batch of UPDATEs — possibly from many participants —
// and returns the prefixes whose best route changed for at least one
// registered participant, sorted. RIB mutations are partitioned by prefix
// shard and applied concurrently, one goroutine per touched shard, each
// rerunning the decision process over only its own affected prefixes;
// within a shard, mutations apply in batch order, so the final state for
// every (prefix, peer) pair is the last update in the batch that touched
// it.
func (s *Server) Apply(batch []PeerUpdate) []iputil.Prefix {
	if len(batch) == 0 {
		return nil
	}
	s.updates.Add(int64(len(batch)))
	s.mUpdatesIn.Add(int64(len(batch)))
	s.pmu.RLock()
	defer s.pmu.RUnlock()

	var perShard [bgp.RIBShards][]ribMutation
	for _, pu := range batch {
		u := pu.Update
		for _, p := range u.Withdrawn {
			si := bgp.ShardOf(p)
			perShard[si] = append(perShard[si], ribMutation{prefix: p, from: pu.From})
		}
		if len(u.NLRI) == 0 {
			continue
		}
		routerID := iputil.Addr(pu.From)
		if sender := s.participants[pu.From]; sender != nil {
			routerID = sender.cfg.RouterID
		}
		for _, p := range u.NLRI {
			si := bgp.ShardOf(p)
			perShard[si] = append(perShard[si], ribMutation{prefix: p, from: pu.From,
				route: &bgp.Route{Prefix: p, Attrs: u.Attrs.Clone(), PeerAS: pu.From, PeerID: routerID}})
		}
	}

	t := telemetry.StartTimer(s.mDecisionNS)
	ases := *s.viewers.Load()
	var results [bgp.RIBShards]shardChanges
	var wg sync.WaitGroup
	for si := range perShard {
		muts := perShard[si]
		if len(muts) == 0 {
			continue
		}
		wg.Add(1)
		go func(si int, muts []ribMutation) {
			defer wg.Done()
			results[si] = s.applyShard(si, muts, ases)
		}(si, muts)
	}
	//lint:ignore lockblock workers only read state pmu already guards (never acquire pmu themselves) and finish in bounded time; holding pmu across the join keeps the registry stable for the whole decision pass
	wg.Wait()
	changed := s.mergeChanges(&results)
	t.Stop()
	return changed
}

// applyShard applies one shard's RIB mutations in order and reruns the
// decision process over the prefixes that changed. Caller holds pmu.
func (s *Server) applyShard(si int, muts []ribMutation, ases []uint32) shardChanges {
	sh := &s.shards[si]
	sh.mu.Lock()
	defer sh.mu.Unlock()
	var affected []iputil.Prefix
	seen := make(map[iputil.Prefix]bool, len(muts))
	for _, m := range muts {
		if m.route != nil {
			s.adjIn.Add(m.route)
		} else if !s.adjIn.Remove(m.prefix, m.from) {
			continue // withdrawal of a route we never had: no-op
		}
		if !seen[m.prefix] {
			seen[m.prefix] = true
			affected = append(affected, m.prefix)
		}
	}
	return s.decideShardLocked(sh, affected, ases)
}

// shardChanges is one shard's share of a decision pass: the prefixes
// whose best route changed for some viewer, and how many (viewer, prefix)
// bests changed in all.
type shardChanges struct {
	prefixes []iputil.Prefix
	viewers  int
}

// decideShardLocked replaces the views of the affected prefixes (all in
// sh's shard) with fresh ones and reports the prefixes where some
// registered viewer in ases ends with a different best than the old view
// gave it. Caller holds pmu and sh.mu.
func (s *Server) decideShardLocked(sh *locShard, affected []iputil.Prefix, ases []uint32) shardChanges {
	var out shardChanges
	for _, prefix := range affected {
		routes := s.adjIn.Routes(prefix)
		old, cur := sh.views[prefix], view{best: bgp.Best(routes)}
		n := 0
		for _, as := range ases {
			best := s.bestFor(as, prefix, routes, cur.best)
			if best != cur.best {
				cur.except = append(cur.except, viewerBest{as, best})
			}
			if old.bestFor(as) != best {
				n++
			}
		}
		if n > 0 {
			out.prefixes = append(out.prefixes, prefix)
			out.viewers += n
		}
		if cur.best == nil {
			delete(sh.views, prefix)
		} else {
			sh.views[prefix] = cur
		}
	}
	return out
}

// mergeChanges flattens per-shard results into one sorted prefix list — a
// deterministic order regardless of shard scheduling — and counts the
// per-viewer changes into rs.best_changes. Shards hold disjoint prefixes,
// so the list has no duplicates.
func (s *Server) mergeChanges(results *[bgp.RIBShards]shardChanges) []iputil.Prefix {
	n, viewers := 0, 0
	for _, r := range results {
		n += len(r.prefixes)
		viewers += r.viewers
	}
	s.mBestChanges.Add(int64(viewers))
	if n == 0 {
		return nil
	}
	out := make([]iputil.Prefix, 0, n)
	for _, r := range results {
		out = append(out, r.prefixes...)
	}
	slices.SortFunc(out, iputil.Prefix.Compare)
	return out
}

// hidden reports whether route r for prefix is withheld from participant
// as: its own route (never reflected back to its advertiser), or one its
// advertiser's export policy or communities deny to as. Caller holds pmu.
func (s *Server) hidden(as uint32, prefix iputil.Prefix, r *bgp.Route) bool {
	if r.PeerAS == as {
		return true
	}
	if adv := s.participants[r.PeerAS]; adv != nil && !adv.cfg.Export.Allows(as, prefix) {
		return true
	}
	return !communityAllows(s.communityAS, r, as)
}

// bestFor returns participant as's best route for prefix, given all of the
// prefix's routes and their overall best. Only a viewer shown every route
// is spared the work. Under deterministic MED, seeing the overall best is
// not enough: hiding the route that won its neighbour group's MED
// comparison revives that group's runner-up, which can beat the overall
// best. Caller holds pmu.
func (s *Server) bestFor(as uint32, prefix iputil.Prefix, routes []*bgp.Route, best *bgp.Route) *bgp.Route {
	if !slices.ContainsFunc(routes, func(r *bgp.Route) bool { return s.hidden(as, prefix, r) }) {
		return best
	}
	var buf [8]*bgp.Route
	candidates := buf[:0]
	for _, r := range routes {
		if !s.hidden(as, prefix, r) {
			candidates = append(candidates, r)
		}
	}
	return bgp.Best(candidates)
}

// BestRoute returns participant as's current best route for prefix.
func (s *Server) BestRoute(as uint32, prefix iputil.Prefix) (*bgp.Route, bool) {
	if !s.registered(as) {
		return nil, false
	}
	sh := &s.shards[bgp.ShardOf(prefix)]
	sh.mu.RLock()
	defer sh.mu.RUnlock()
	r := sh.views[prefix].bestFor(as)
	return r, r != nil
}

// BestRoutes returns a copy of participant as's Loc-RIB, merged across
// shards; nil if as is not a registered participant.
func (s *Server) BestRoutes(as uint32) map[iputil.Prefix]*bgp.Route {
	if !s.registered(as) {
		return nil
	}
	out := make(map[iputil.Prefix]*bgp.Route)
	for si := range s.shards {
		sh := &s.shards[si]
		sh.mu.RLock()
		for prefix, v := range sh.views {
			if r := v.bestFor(as); r != nil {
				out[prefix] = r
			}
		}
		sh.mu.RUnlock()
	}
	return out
}

// SetQuery asks for one of the compiler's prefix sets (§4.2 pass 1): the
// prefixes Via announces and exports to Viewer ("forwarding only along
// BGP-advertised paths", §3.2) or, with Announced set, every prefix Via
// announces whoever may see it (Viewer is ignored).
type SetQuery struct {
	Viewer, Via uint32
	Announced   bool
}

// RouteSets answers one batch of set queries from one reading of the
// Adj-RIB-In. It is a value for one compilation: the server keeps no
// per-peer index at rest, so the update path has nothing to keep coherent.
type RouteSets struct {
	// Sets[i] answers queries[i]: sorted, duplicate-free, owned by the
	// caller.
	Sets [][]iputil.Prefix
	best map[iputil.Prefix]*bgp.Route
}

// GlobalBest is Server.GlobalBest as of the reading, defined for every
// prefix announced by a queried peer (so for every prefix in Sets).
func (r *RouteSets) GlobalBest(prefix iputil.Prefix) *bgp.Route { return r.best[prefix] }

// RouteSets answers all queries in one pass over the Adj-RIB-In: each
// shard is scanned once, routes of queried peers are gathered per peer
// and each peer's list is sorted once; a query then filters only its own
// peer's list through export policy and communities. The cost is
// O(routes + answers), however many queries share a peer.
func (s *Server) RouteSets(queries []SetQuery) *RouteSets {
	s.pmu.RLock()
	defer s.pmu.RUnlock()
	peerIdx := make(map[uint32]int, len(queries))
	for _, q := range queries {
		if _, ok := peerIdx[q.Via]; !ok {
			peerIdx[q.Via] = len(peerIdx)
		}
	}
	byPeer := make([][]*bgp.Route, len(peerIdx))
	out := &RouteSets{Sets: make([][]iputil.Prefix, len(queries)), best: make(map[iputil.Prefix]*bgp.Route)}
	for si := 0; si < bgp.RIBShards; si++ {
		s.adjIn.WalkShard(si, func(prefix iputil.Prefix, routes []*bgp.Route) {
			queried := false
			for _, r := range routes {
				if i, ok := peerIdx[r.PeerAS]; ok {
					byPeer[i] = append(byPeer[i], r)
					queried = true
				}
			}
			if queried {
				out.best[prefix] = bgp.Best(routes)
			}
		})
	}
	for _, routes := range byPeer {
		slices.SortFunc(routes, func(a, b *bgp.Route) int { return a.Prefix.Compare(b.Prefix) })
	}
	for qi, q := range queries {
		routes := byPeer[peerIdx[q.Via]]
		adv := s.participants[q.Via]
		set := make([]iputil.Prefix, 0, len(routes))
		for _, r := range routes {
			if !q.Announced {
				if adv != nil && !adv.cfg.Export.Allows(q.Viewer, r.Prefix) {
					continue
				}
				if !communityAllows(s.communityAS, r, q.Viewer) {
					continue
				}
			}
			set = append(set, r.Prefix)
		}
		out.Sets[qi] = set
	}
	return out
}

// ReachablePrefixes returns the prefixes that participant `via` has
// exported to participant `viewer`, sorted: RouteSets with one query.
func (s *Server) ReachablePrefixes(viewer, via uint32) []iputil.Prefix {
	return s.RouteSets([]SetQuery{{Viewer: viewer, Via: via}}).Sets[0]
}

// Exports reports whether participant `via` currently announces prefix and
// exports it to `viewer` — the membership query behind the SDX fast path.
func (s *Server) Exports(viewer, via uint32, prefix iputil.Prefix) bool {
	s.pmu.RLock()
	defer s.pmu.RUnlock()
	r, ok := s.adjIn.Get(prefix, via)
	if !ok {
		return false
	}
	if adv := s.participants[via]; adv != nil && !adv.cfg.Export.Allows(viewer, prefix) {
		return false
	}
	return communityAllows(s.communityAS, r, viewer)
}

// GlobalBest returns the best route for prefix across every participant's
// announcements, with no viewer exclusion — the route server's single
// default next hop used by the SDX's forwarding-equivalence-class grouping
// (§4.2 pass 2).
func (s *Server) GlobalBest(prefix iputil.Prefix) *bgp.Route {
	sh := &s.shards[bgp.ShardOf(prefix)]
	sh.mu.RLock()
	defer sh.mu.RUnlock()
	return sh.views[prefix].best
}

// AnnouncedPrefixes returns the prefixes participant as currently
// announces, sorted: RouteSets with one query.
func (s *Server) AnnouncedPrefixes(as uint32) []iputil.Prefix {
	return s.RouteSets([]SetQuery{{Via: as, Announced: true}}).Sets[0]
}

// Prefixes returns every prefix known to the route server, sorted.
func (s *Server) Prefixes() []iputil.Prefix {
	return s.adjIn.Prefixes()
}

// RIB exposes the merged Adj-RIB-In (read-only use: attribute filters such
// as RIB().FilterASPath for §3.2-style policies).
func (s *Server) RIB() *bgp.RIB { return s.adjIn }

// UpdatesProcessed returns the number of UPDATE messages applied.
func (s *Server) UpdatesProcessed() int {
	return int(s.updates.Load())
}
