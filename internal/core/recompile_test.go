package core

import (
	"maps"
	"slices"
	"testing"

	"sdx/internal/bgp"
	"sdx/internal/iputil"
	"sdx/internal/pkt"
	"sdx/internal/rs"
)

// countingView counts what a compile asks of the route server.
type countingView struct {
	RouteView
	sets, queries, best int
}

func (v *countingView) RouteSets(q []rs.SetQuery) *rs.RouteSets {
	v.sets++
	v.queries += len(q)
	return v.RouteView.RouteSets(q)
}

func (v *countingView) GlobalBest(p iputil.Prefix) *bgp.Route {
	v.best++
	return v.RouteView.GlobalBest(p)
}

// TestFullCompileReadsRIBOnce guards the O(routes) full pass: however many
// outbound terms, synthetic sets and deliver terms an exchange has, a full
// compile materializes its sets in one RouteSets
// call and never asks for a per-prefix GlobalBest.
func TestFullCompileReadsRIBOnce(t *testing.T) {
	for _, terms := range []int{1, 6, 40} {
		const n = 8
		ctrl := ingestFixture(t, n)
		remote := uint32(100 + n) // port-less: a synthetic set
		if _, err := ctrl.AddParticipant(ParticipantConfig{AS: remote, Name: "remote"}); err != nil {
			t.Fatal(err)
		}
		for i := 0; i < n; i++ {
			ctrl.ApplyBatch(rs.PeerUpdate{From: 100 + uint32(i), Update: announceU(100+uint32(i), 0, pfxI(i), pfxI(i+1), pfxI(20+i))})
		}
		ctrl.ApplyBatch(rs.PeerUpdate{From: remote, Update: announceU(remote, 0, pfxI(40))})
		for i := 0; i < n; i++ {
			var out []Term
			for k := 0; k < terms; k++ {
				out = append(out, Fwd(pkt.MatchAll.DstPort(uint16(1000+k)), 100+uint32((i+1+k%(n-1))%n)))
			}
			if err := ctrl.SetPolicy(100+uint32(i), nil, out); err != nil {
				t.Fatal(err)
			}
		}
		// A deliver term: resolveOwner must ride on the same reading.
		deliver := RewriteTerm(pkt.MatchAll.DstIP(pfxI(40)), pkt.NoMods.SetDstIP(pfxI(3).Addr()+1))
		if err := ctrl.SetPolicy(remote, []Term{deliver}, nil); err != nil {
			t.Fatal(err)
		}

		view := &countingView{RouteView: ctrl.rs}
		comp := &compiler{parts: ctrl.parts, view: view, vnhs: newVNHTable()}
		out := comp.Compile()
		if len(out.Groups) == 0 || len(out.Band1) == 0 {
			t.Fatalf("terms=%d: trivial compile (%d groups, %d band-1 rules)", terms, len(out.Groups), len(out.Band1))
		}
		if view.queries < n*terms {
			t.Fatalf("terms=%d: %d set queries for %d outbound terms", terms, view.queries, n*terms)
		}
		if view.sets != 1 || view.best != 0 {
			t.Fatalf("terms=%d: %d RouteSets calls (want 1), %d GlobalBest calls (want 0)", terms, view.sets, view.best)
		}
	}
}

// adRecorder feeds one FIB per participant from its OnRoute sink, the way
// a border router would, and remembers which prefixes were advertised
// since the last reset.
type adRecorder struct {
	fib map[uint32]map[iputil.Prefix]iputil.Addr
	ads map[iputil.Prefix]bool // advertised or withdrawn since the last reset
}

func recordAds(t *testing.T, ctrl *Controller, ases ...uint32) *adRecorder {
	t.Helper()
	rec := &adRecorder{fib: make(map[uint32]map[iputil.Prefix]iputil.Addr), ads: make(map[iputil.Prefix]bool)}
	for _, as := range ases {
		fib := make(map[iputil.Prefix]iputil.Addr)
		rec.fib[as] = fib
		if _, err := ctrl.OnRoute(as, func(ad RouteAd) {
			rec.ads[ad.Prefix] = true
			if ad.Withdraw {
				delete(fib, ad.Prefix)
				return
			}
			if ad.Attrs.NextHop != ad.NextHop {
				t.Errorf("ad for %s: NextHop %s but NEXT_HOP attribute %s", ad.Prefix, ad.NextHop, ad.Attrs.NextHop)
			}
			fib[ad.Prefix] = ad.NextHop
		}); err != nil {
			t.Fatal(err)
		}
	}
	return rec
}

// advertised returns, sorted, the prefixes advertised since the last call.
func (r *adRecorder) advertised() []iputil.Prefix {
	out := make([]iputil.Prefix, 0, len(r.ads))
	for p := range r.ads {
		out = append(out, p)
	}
	slices.SortFunc(out, iputil.Prefix.Compare)
	clear(r.ads)
	return out
}

// check is invariant (v): every sink-fed FIB equals RoutesFor(as).
func (r *adRecorder) check(t *testing.T, ctrl *Controller, step string) {
	t.Helper()
	for as, fib := range r.fib {
		want := make(map[iputil.Prefix]iputil.Addr)
		for _, ad := range ctrl.RoutesFor(as) {
			want[ad.Prefix] = ad.NextHop
		}
		if !maps.Equal(fib, want) {
			t.Fatalf("%s: AS%d's FIB fed by advertisements\n got %v\nwant %v (RoutesFor)", step, as, fib, want)
		}
	}
}

// TestRecompileAdvertisesOnlyMovedNextHops walks one exchange through the
// cases of the delta rule: a full pass advertises a prefix exactly when the
// next hop its routers hold for it stops being the right one.
func TestRecompileAdvertisesOnlyMovedNextHops(t *testing.T) {
	ctrl := ingestFixture(t, 4) // AS100..103
	rec := recordAds(t, ctrl, 100, 101, 102, 103)
	all := []iputil.Prefix{pfxI(1), pfxI(2), pfxI(3), pfxI(4), pfxI(5), pfxI(6)}
	low, high := all[:3], all[3:]
	isVNH := func(a iputil.Addr) bool { return VNHSubnet.Contains(a) }
	groupVNH := func(p iputil.Prefix) iputil.Addr {
		cur := ctrl.Compiled()
		gi, ok := cur.GroupIdx[p]
		if !ok {
			t.Fatalf("%s is not grouped", p)
		}
		return cur.VNHs[gi]
	}
	mustRecompile := func(step string, options ...CompileOption) []iputil.Prefix {
		t.Helper()
		rec.advertised()
		if rep := ctrl.Recompile(options...); rep.Err != nil {
			t.Fatal(rep.Err)
		}
		rec.check(t, ctrl, step)
		return rec.advertised()
	}

	// AS101 announces everything on the shortest path (the default next
	// hop throughout), AS102 only the high half.
	ctrl.ApplyBatch(rs.PeerUpdate{From: 101, Update: &bgp.Update{Attrs: &bgp.PathAttrs{ASPath: []uint32{101}, NextHop: 101}, NLRI: all}})
	ctrl.ApplyBatch(rs.PeerUpdate{From: 102, Update: announceU(102, 0, high...)})
	web := Fwd(pkt.MatchAll.DstPort(80), 101)
	if got := mustRecompile("first pass", CompilePolicy(100, nil, []Term{web})); !slices.Equal(got, all) {
		t.Fatalf("first pass advertised %v, want every newly grouped prefix %v", got, all)
	}
	lowVNH := groupVNH(low[0])

	// (i) Nothing changed: nothing advertised.
	if got := mustRecompile("idle pass"); len(got) != 0 {
		t.Fatalf("(i) idle pass advertised %v", got)
	}

	// (ii) Fast-path updates hand out per-prefix VNHs; the next pass moves
	// exactly those prefixes back to their group's.
	flapped := []iputil.Prefix{all[0], all[4]}
	ctrl.ApplyBatch(rs.PeerUpdate{From: 101, Update: &bgp.Update{Attrs: &bgp.PathAttrs{ASPath: []uint32{101}, NextHop: 101, MED: 7, HasMED: true}, NLRI: flapped}})
	rec.check(t, ctrl, "fast path")
	for _, p := range flapped {
		if nh := rec.fib[100][p]; !isVNH(nh) || nh == lowVNH {
			t.Fatalf("(ii) fast path left %s at %s, want a fresh VNH", p, nh)
		}
	}
	if got := mustRecompile("fold fast band"); !slices.Equal(got, flapped) {
		t.Fatalf("(ii) pass after fast-path updates advertised %v, want %v", got, flapped)
	}
	for _, p := range flapped {
		if rec.fib[100][p] != groupVNH(p) || groupVNH(p) != lowVNH {
			t.Fatalf("(ii) %s advertised with %s, group VNH %s (before the flap %s)", p, rec.fib[100][p], groupVNH(p), lowVNH)
		}
	}

	// (iii) A second term splits the group: the low half keeps its key and
	// VNH, the high half gets a new one and is the only half advertised.
	tls := Fwd(pkt.MatchAll.DstPort(443), 102)
	if got := mustRecompile("regroup", CompilePolicy(100, nil, []Term{web, tls})); !slices.Equal(got, high) {
		t.Fatalf("(iii) regrouping advertised %v, want %v", got, high)
	}
	if groupVNH(low[0]) != lowVNH || groupVNH(high[0]) == lowVNH {
		t.Fatalf("(iii) VNHs after the split: low %s (was %s), high %s", groupVNH(low[0]), lowVNH, groupVNH(high[0]))
	}

	// (iv) Dropping the first term ungroups the low half — advertised with
	// AS101's real next hop — and re-keys the high half.
	if got := mustRecompile("ungroup", CompilePolicy(100, nil, []Term{tls})); !slices.Equal(got, all) {
		t.Fatalf("(iv) advertised %v, want %v", got, all)
	}
	for _, p := range low {
		if nh := rec.fib[100][p]; nh != 101 {
			t.Fatalf("(iv) ungrouped %s advertised with %s, want the real next hop %s", p, nh, iputil.Addr(101))
		}
	}
	for _, p := range high {
		if nh := rec.fib[100][p]; nh != groupVNH(p) {
			t.Fatalf("(iv) %s advertised with %s, group VNH %s", p, nh, groupVNH(p))
		}
	}
	if got := mustRecompile("idle again"); len(got) != 0 {
		t.Fatalf("idle pass after ungrouping advertised %v", got)
	}
}

// TestFastVNHPoolStaysInFastHalf: the fast pool cycles within
// [fastVNHBase, vnhIndexes). Started just below the top, fast compiles
// keep drawing fast indexes — never a live group's, whose VMAC the fast
// band would then claim — and every group VNH still resolves to its
// group's VMAC.
func TestFastVNHPoolStaysInFastHalf(t *testing.T) {
	ctrl := ingestFixture(t, 3)
	all := []iputil.Prefix{pfxI(1), pfxI(2), pfxI(3)}
	ctrl.ApplyBatch(rs.PeerUpdate{From: 101, Update: announceU(101, 0, all...)})
	if rep := ctrl.Recompile(CompilePolicy(100, nil, []Term{Fwd(pkt.MatchAll.DstPort(80), 101)})); rep.Err != nil {
		t.Fatal(rep.Err)
	}
	cur := ctrl.Compiled()
	if len(cur.Groups) == 0 {
		t.Fatal("no groups compiled")
	}
	live := make(map[uint32]bool)
	for _, vnh := range cur.VNHs {
		live[uint32(vnh-VNHSubnet.Addr())] = true
	}

	ctrl.vnhs.fastNext = vnhIndexes - 2
	for i := 0; i < 6; i++ {
		p := all[i%len(all)]
		ctrl.ApplyBatch(rs.PeerUpdate{From: 101, Update: announceU(101, uint32(i+1), p)})
		idx, ok := ctrl.fastPrefix[p]
		if !ok {
			t.Fatalf("update %d: %s took no fast VNH", i, p)
		}
		if idx < fastVNHBase || idx >= vnhIndexes {
			t.Fatalf("update %d: fast index %#x outside the fast pool [%#x, %#x)", i, idx, fastVNHBase, vnhIndexes)
		}
		if live[idx] {
			t.Fatalf("update %d: fast index %#x is a live group's", i, idx)
		}
		for gi, vnh := range cur.VNHs {
			if mac, ok := ctrl.arpd.Resolve(vnh); !ok || mac != cur.VMACs[gi] {
				t.Fatalf("update %d: ARP for group %d's VNH %s answers %v, want %v", i, gi, vnh, mac, cur.VMACs[gi])
			}
		}
	}
}
