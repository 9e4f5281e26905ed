package bgp

import (
	"math/rand"
	"testing"

	"sdx/internal/iputil"
)

func route(peerAS uint32, attrs PathAttrs) *Route {
	return &Route{Prefix: pfx("10.0.0.0/8"), Attrs: &attrs, PeerAS: peerAS, PeerID: iputil.Addr(peerAS)}
}

func TestBetterLocalPref(t *testing.T) {
	hi := route(1, PathAttrs{LocalPref: 200, HasLocalPref: true, ASPath: []uint32{1, 2, 3}})
	lo := route(2, PathAttrs{LocalPref: 50, HasLocalPref: true})
	if !Better(hi, lo) || Better(lo, hi) {
		t.Fatal("higher local-pref must win despite longer path")
	}
	// Default local-pref is 100.
	def := route(3, PathAttrs{})
	if !Better(hi, def) || !Better(def, lo) {
		t.Fatal("default local-pref should be 100")
	}
}

func TestBetterASPathLen(t *testing.T) {
	short := route(1, PathAttrs{ASPath: []uint32{1}})
	long := route(2, PathAttrs{ASPath: []uint32{2, 3}})
	if !Better(short, long) {
		t.Fatal("shorter AS path must win")
	}
	// AS-path prepending makes a route less attractive.
	prepended := route(1, PathAttrs{ASPath: []uint32{1, 1, 1}})
	if !Better(long, prepended) {
		t.Fatal("prepended path must lose")
	}
}

func TestBetterOrigin(t *testing.T) {
	igp := route(1, PathAttrs{Origin: OriginIGP, ASPath: []uint32{1}})
	egp := route(2, PathAttrs{Origin: OriginEGP, ASPath: []uint32{2}})
	inc := route(3, PathAttrs{Origin: OriginIncomplete, ASPath: []uint32{3}})
	if !Better(igp, egp) || !Better(egp, inc) {
		t.Fatal("origin order must be IGP < EGP < INCOMPLETE")
	}
}

func TestBetterMEDSameNeighborOnly(t *testing.T) {
	// Same first AS: lower MED wins.
	a := route(1, PathAttrs{ASPath: []uint32{7}, MED: 10, HasMED: true})
	b := route(2, PathAttrs{ASPath: []uint32{7}, MED: 20, HasMED: true})
	if !Better(a, b) {
		t.Fatal("lower MED from same neighbor must win")
	}
	// Different first AS: MED ignored, falls through to router ID.
	c := route(1, PathAttrs{ASPath: []uint32{7}, MED: 99, HasMED: true})
	d := route(2, PathAttrs{ASPath: []uint32{8}, MED: 1, HasMED: true})
	if !Better(c, d) {
		t.Fatal("MED must not compare across neighbors; lower router ID wins")
	}
}

func TestBetterTieBreakRouterID(t *testing.T) {
	a := route(5, PathAttrs{ASPath: []uint32{1}})
	b := route(9, PathAttrs{ASPath: []uint32{2}})
	if !Better(a, b) || Better(b, a) {
		t.Fatal("lower router ID must win the final tie-break")
	}
}

func TestBetterNil(t *testing.T) {
	r := route(1, PathAttrs{})
	if !Better(r, nil) || Better(nil, r) || Better(nil, nil) {
		t.Fatal("nil handling broken")
	}
}

// TestBestOrderIndependent: the decision process must be deterministic
// regardless of candidate order (a strict total order).
func TestBestOrderIndependent(t *testing.T) {
	r := rand.New(rand.NewSource(31))
	for trial := 0; trial < 500; trial++ {
		n := 2 + r.Intn(6)
		routes := make([]*Route, n)
		for i := range routes {
			attrs := PathAttrs{
				Origin: Origin(r.Intn(3)),
			}
			for j := 0; j < 1+r.Intn(3); j++ {
				attrs.ASPath = append(attrs.ASPath, uint32(1+r.Intn(4)))
			}
			if r.Intn(2) == 0 {
				attrs.LocalPref, attrs.HasLocalPref = uint32(100+r.Intn(3)*50), true
			}
			if r.Intn(2) == 0 {
				attrs.MED, attrs.HasMED = uint32(r.Intn(3)), true
			}
			routes[i] = &Route{
				Prefix: pfx("10.0.0.0/8"),
				Attrs:  &attrs,
				PeerAS: uint32(i + 1),
				PeerID: iputil.Addr(r.Intn(1000)),
			}
		}
		want := Best(routes)
		for shuffle := 0; shuffle < 10; shuffle++ {
			r.Shuffle(n, func(i, j int) { routes[i], routes[j] = routes[j], routes[i] })
			if got := Best(routes); got != want {
				t.Fatalf("Best depends on order: got %v, want %v", got, want)
			}
		}
	}
}

// TestBetterAntisymmetric: for distinct routes exactly one direction wins.
func TestBetterAntisymmetric(t *testing.T) {
	r := rand.New(rand.NewSource(37))
	for trial := 0; trial < 2000; trial++ {
		mk := func(peer uint32) *Route {
			attrs := PathAttrs{Origin: Origin(r.Intn(3))}
			for j := 0; j < 1+r.Intn(2); j++ {
				attrs.ASPath = append(attrs.ASPath, uint32(1+r.Intn(3)))
			}
			return &Route{Prefix: pfx("10.0.0.0/8"), Attrs: &attrs, PeerAS: peer, PeerID: iputil.Addr(r.Intn(4))}
		}
		a, b := mk(1), mk(2)
		if Better(a, b) == Better(b, a) {
			t.Fatalf("Better not antisymmetric for %v vs %v", a, b)
		}
	}
}

// TestBestAllocFree: the decision runs once per prefix per batch, so the
// neighbour-group scan must not allocate for the candidate counts a route
// server sees (one announcer, or a handful in several MED groups).
func TestBestAllocFree(t *testing.T) {
	four := []*Route{
		route(1, PathAttrs{ASPath: []uint32{7}, MED: 20, HasMED: true}),
		route(2, PathAttrs{ASPath: []uint32{7}, MED: 10, HasMED: true}),
		route(3, PathAttrs{ASPath: []uint32{8}, MED: 5, HasMED: true}),
		route(4, PathAttrs{ASPath: []uint32{9, 10}}),
	}
	for _, cands := range [][]*Route{four[:1], four} {
		if n := testing.AllocsPerRun(100, func() { Best(cands) }); n != 0 {
			t.Fatalf("Best over %d candidates: %v allocs, want 0", len(cands), n)
		}
	}
	if got := Best(four); got != four[1] {
		t.Fatalf("Best = %v, want the MED-10 route of neighbour group 7", got)
	}
}

func TestBestEmpty(t *testing.T) {
	if Best(nil) != nil {
		t.Fatal("Best of nothing should be nil")
	}
}
