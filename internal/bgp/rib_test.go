package bgp

import (
	"testing"

	"sdx/internal/iputil"
)

func TestRIBAddGetRemove(t *testing.T) {
	rib := NewRIB()
	r1 := &Route{Prefix: pfx("10.0.0.0/8"), Attrs: &PathAttrs{}, PeerAS: 100}
	r2 := &Route{Prefix: pfx("10.0.0.0/8"), Attrs: &PathAttrs{}, PeerAS: 200}
	rib.Add(r1)
	rib.Add(r2)
	if rib.Len() != 1 {
		t.Fatalf("Len = %d, want 1 prefix", rib.Len())
	}
	if got, ok := rib.Get(pfx("10.0.0.0/8"), 100); !ok || got != r1 {
		t.Fatal("Get(peer 100) failed")
	}
	if routes := rib.Routes(pfx("10.0.0.0/8")); len(routes) != 2 {
		t.Fatalf("Routes = %d entries", len(routes))
	}
	// Replace is idempotent on count.
	r1b := &Route{Prefix: pfx("10.0.0.0/8"), Attrs: &PathAttrs{}, PeerAS: 100}
	rib.Add(r1b)
	if got, _ := rib.Get(pfx("10.0.0.0/8"), 100); got != r1b {
		t.Fatal("Add should replace same-peer route")
	}
	if !rib.Remove(pfx("10.0.0.0/8"), 100) {
		t.Fatal("Remove should report presence")
	}
	if rib.Remove(pfx("10.0.0.0/8"), 100) {
		t.Fatal("double Remove should report absence")
	}
	if !rib.Remove(pfx("10.0.0.0/8"), 200) || rib.Len() != 0 {
		t.Fatal("removing last route should empty the RIB")
	}
}

func TestRIBRoutesSortedByPeer(t *testing.T) {
	rib := NewRIB()
	for _, as := range []uint32{300, 100, 200} {
		rib.Add(&Route{Prefix: pfx("10.0.0.0/8"), Attrs: &PathAttrs{}, PeerAS: as})
	}
	routes := rib.Routes(pfx("10.0.0.0/8"))
	for i := 1; i < len(routes); i++ {
		if routes[i-1].PeerAS >= routes[i].PeerAS {
			t.Fatalf("routes not sorted: %v", routes)
		}
	}
}

func TestRIBRemovePeer(t *testing.T) {
	rib := NewRIB()
	rib.Add(&Route{Prefix: pfx("10.0.0.0/8"), Attrs: &PathAttrs{}, PeerAS: 100})
	rib.Add(&Route{Prefix: pfx("20.0.0.0/8"), Attrs: &PathAttrs{}, PeerAS: 100})
	rib.Add(&Route{Prefix: pfx("10.0.0.0/8"), Attrs: &PathAttrs{}, PeerAS: 200})
	var affected []iputil.Prefix
	for i := 0; i < RIBShards; i++ {
		affected = append(affected, rib.ShardRemovePeer(i, 100)...)
	}
	if len(affected) != 2 {
		t.Fatalf("ShardRemovePeer affected %v", affected)
	}
	if rib.Len() != 1 {
		t.Fatalf("Len = %d after ShardRemovePeer", rib.Len())
	}
	if _, ok := rib.Get(pfx("10.0.0.0/8"), 200); !ok {
		t.Fatal("other peer's route must survive")
	}
}

func TestRIBPrefixesSorted(t *testing.T) {
	rib := NewRIB()
	for _, p := range []string{"20.0.0.0/8", "10.0.0.0/8", "10.0.0.0/16"} {
		rib.Add(&Route{Prefix: pfx(p), Attrs: &PathAttrs{}, PeerAS: 1})
	}
	ps := rib.Prefixes()
	want := []string{"10.0.0.0/8", "10.0.0.0/16", "20.0.0.0/8"}
	for i, p := range ps {
		if p.String() != want[i] {
			t.Fatalf("Prefixes = %v, want %v", ps, want)
		}
	}
}

func TestRIBWalkShard(t *testing.T) {
	rib := NewRIB()
	rib.Add(&Route{Prefix: pfx("10.0.0.0/8"), Attrs: &PathAttrs{}, PeerAS: 1})
	rib.Add(&Route{Prefix: pfx("10.0.0.0/8"), Attrs: &PathAttrs{}, PeerAS: 2})
	rib.Add(&Route{Prefix: pfx("20.0.0.0/8"), Attrs: &PathAttrs{}, PeerAS: 1})
	seen := make(map[iputil.Prefix]int)
	for si := 0; si < RIBShards; si++ {
		rib.WalkShard(si, func(p iputil.Prefix, routes []*Route) {
			if ShardOf(p) != si {
				t.Errorf("%s visited in shard %d, lives in %d", p, si, ShardOf(p))
			}
			if _, dup := seen[p]; dup {
				t.Errorf("%s visited twice", p)
			}
			seen[p] = len(routes)
			for _, r := range routes {
				if r.Prefix != p {
					t.Errorf("route %v handed out under %s", r, p)
				}
			}
		})
	}
	if len(seen) != 2 || seen[pfx("10.0.0.0/8")] != 2 || seen[pfx("20.0.0.0/8")] != 1 {
		t.Fatalf("WalkShard visited %v", seen)
	}
}

func TestRIBFilterASPath(t *testing.T) {
	rib := NewRIB()
	rib.Add(&Route{Prefix: pfx("74.125.0.0/16"), Attrs: &PathAttrs{ASPath: []uint32{100, 43515}}, PeerAS: 100})
	rib.Add(&Route{Prefix: pfx("74.125.64.0/18"), Attrs: &PathAttrs{ASPath: []uint32{43515}}, PeerAS: 100})
	rib.Add(&Route{Prefix: pfx("8.8.8.0/24"), Attrs: &PathAttrs{ASPath: []uint32{100, 15169}}, PeerAS: 100})

	// The paper's §3.2 example: all routes originated by AS 43515.
	got, err := rib.FilterASPath(`(^|.* )43515$`)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 2 {
		t.Fatalf("FilterASPath = %v", got)
	}
	if _, err := rib.FilterASPath(`([`); err == nil {
		t.Fatal("bad regexp must error")
	}
}

func TestRIBShardMappingStableAndSpread(t *testing.T) {
	// ShardOf must be deterministic and must spread the sequential /24
	// prefixes the workload generator emits across all shards (a range
	// split would put them all in one).
	counts := make([]int, RIBShards)
	for i := 0; i < 4096; i++ {
		p, err := iputil.ParsePrefix(iputil.Addr(0x10_00_00_00|uint32(i)<<8).String() + "/24")
		if err != nil {
			t.Fatal(err)
		}
		s := ShardOf(p)
		if s != ShardOf(p) {
			t.Fatalf("ShardOf(%s) unstable", p)
		}
		if s < 0 || s >= RIBShards {
			t.Fatalf("ShardOf(%s) = %d out of range", p, s)
		}
		counts[s]++
	}
	for s, n := range counts {
		if n == 0 {
			t.Fatalf("shard %d received no prefixes: %v", s, counts)
		}
		// With 4096 prefixes over 16 shards the expectation is 256; a
		// loose 2x bound catches gross skew without being flaky.
		if n > 2*4096/RIBShards {
			t.Fatalf("shard %d is hot: %d of 4096 (%v)", s, n, counts)
		}
	}
}

func TestRIBShardAccessorsAgreeWithGlobal(t *testing.T) {
	rib := NewRIB()
	for i := 0; i < 300; i++ {
		p, err := iputil.ParsePrefix(iputil.Addr(0x20_00_00_00|uint32(i)<<8).String() + "/24")
		if err != nil {
			t.Fatal(err)
		}
		rib.Add(&Route{Prefix: p, Attrs: &PathAttrs{}, PeerAS: 100})
		if i%3 == 0 {
			rib.Add(&Route{Prefix: p, Attrs: &PathAttrs{}, PeerAS: 200})
		}
	}
	// Union of per-shard prefixes == global Prefixes, with each prefix in
	// exactly the shard ShardOf names.
	seen := make(map[iputil.Prefix]bool)
	total := 0
	for s := 0; s < RIBShards; s++ {
		for _, p := range rib.ShardPrefixes(s) {
			if ShardOf(p) != s {
				t.Fatalf("prefix %s reported by shard %d, ShardOf says %d", p, s, ShardOf(p))
			}
			if seen[p] {
				t.Fatalf("prefix %s in two shards", p)
			}
			seen[p] = true
			total++
		}
	}
	if total != rib.Len() || total != len(rib.Prefixes()) {
		t.Fatalf("shard union %d != Len %d / Prefixes %d", total, rib.Len(), len(rib.Prefixes()))
	}
	// ShardRemovePeer over all shards == RemovePeer.
	var affected []iputil.Prefix
	for s := 0; s < RIBShards; s++ {
		affected = append(affected, rib.ShardRemovePeer(s, 200)...)
	}
	if len(affected) != 100 {
		t.Fatalf("ShardRemovePeer removed %d prefixes, want 100", len(affected))
	}
	for _, p := range affected {
		if _, ok := rib.Get(p, 200); ok {
			t.Fatalf("route for %s peer 200 survived removal", p)
		}
		if _, ok := rib.Get(p, 100); !ok {
			t.Fatalf("route for %s peer 100 lost", p)
		}
	}
}
