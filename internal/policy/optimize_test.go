package policy

import (
	"math/rand"
	"testing"

	"sdx/internal/iputil"
	"sdx/internal/pkt"
)

// TestOptimizeSemanticEquivalence: Optimize must never change what a
// classifier does, only drop unreachable rules.
func TestOptimizeSemanticEquivalence(t *testing.T) {
	r := rand.New(rand.NewSource(61))
	mkMatch := func() pkt.Match {
		m := pkt.MatchAll
		if r.Intn(2) == 0 {
			m = m.InPort(pkt.PortID(r.Intn(3)))
		}
		if r.Intn(2) == 0 {
			m = m.DstIP(iputil.NewPrefix(iputil.Addr(r.Uint32()), uint8(r.Intn(3)*8)))
		}
		if r.Intn(2) == 0 {
			m = m.DstPort([]uint16{80, 443}[r.Intn(2)])
		}
		return m
	}
	for trial := 0; trial < 300; trial++ {
		var c Classifier
		for i := 0; i < 1+r.Intn(12); i++ {
			var acts []pkt.Action
			if r.Intn(4) > 0 {
				acts = []pkt.Action{pkt.Output(pkt.PortID(10 + r.Intn(4)))}
			}
			c = append(c, Rule{Match: mkMatch(), Actions: acts})
		}
		opt := c.Optimize()
		if len(opt) > len(c) {
			t.Fatalf("Optimize grew the classifier: %d -> %d", len(c), len(opt))
		}
		for probe := 0; probe < 300; probe++ {
			p := pkt.Packet{
				InPort:  pkt.PortID(r.Intn(3)),
				DstIP:   iputil.Addr(r.Uint32()),
				DstPort: []uint16{80, 443, 22}[r.Intn(3)],
			}
			if !samePacketSet(c.Eval(p), opt.Eval(p)) {
				t.Fatalf("trial %d: Optimize changed semantics for %v\nbefore:\n%s\nafter:\n%s",
					trial, p, c, opt)
			}
		}
	}
}

// TestOptimizeIdempotent: optimizing twice changes nothing further.
func TestOptimizeIdempotent(t *testing.T) {
	c := Classifier{
		{Match: pkt.MatchAll.DstPort(80), Actions: []pkt.Action{pkt.Output(1)}},
		{Match: pkt.MatchAll.DstPort(80).InPort(1), Actions: []pkt.Action{pkt.Output(2)}},
		{Match: pkt.MatchAll},
		{Match: pkt.MatchAll.DstPort(443), Actions: []pkt.Action{pkt.Output(3)}},
	}
	once := c.Optimize()
	twice := once.Optimize()
	if len(once) != len(twice) {
		t.Fatalf("not idempotent: %d vs %d", len(once), len(twice))
	}
	for i := range once {
		if once[i].Match != twice[i].Match {
			t.Fatalf("rule %d changed", i)
		}
	}
}

// TestConcatDstIPGuarded: the prefix-guard concat path, which per-prefix
// rule sets take, must agree with full parallel composition.
func TestConcatDstIPGuarded(t *testing.T) {
	mk := func(prefix string, out pkt.PortID) Classifier {
		return Classifier{
			{Match: pkt.MatchAll.DstIP(pfx(prefix)), Actions: []pkt.Action{pkt.Output(out)}},
			{Match: pkt.MatchAll},
		}
	}
	c1 := mk("10.0.0.0/8", 1)
	c2 := mk("20.0.0.0/8", 2)
	c3 := mk("30.0.0.0/8", 3)
	cat, ok := ConcatDisjoint(c1, c2, c3)
	if !ok {
		t.Fatal("disjoint dstip classifiers should concat")
	}
	full := parallelCompose(parallelCompose(c1, c2), c3)
	for _, dst := range []string{"10.1.1.1", "20.1.1.1", "30.1.1.1", "40.1.1.1"} {
		p := pkt.Packet{DstIP: iputil.MustParseAddr(dst)}
		if !samePacketSet(cat.Eval(p), full.Eval(p)) {
			t.Fatalf("dst %s: concat %v != full %v", dst, cat.Eval(p), full.Eval(p))
		}
	}
	// Overlapping prefixes across classifiers must reject the fast path.
	c4 := mk("10.0.0.0/16", 4)
	if _, ok := ConcatDisjoint(c1, c4); ok {
		t.Fatal("overlapping dstip guards must reject")
	}
	// Same-classifier overlaps are fine.
	c5 := Classifier{
		{Match: pkt.MatchAll.DstIP(pfx("10.0.0.0/8")), Actions: []pkt.Action{pkt.Output(1)}},
		{Match: pkt.MatchAll.DstIP(pfx("10.0.0.0/16")), Actions: []pkt.Action{pkt.Output(2)}},
		{Match: pkt.MatchAll},
	}
	if _, ok := ConcatDisjoint(c5, c2); !ok {
		t.Fatal("same-classifier overlap should be accepted")
	}
}

// naiveOptimize is Optimize without the cover index: each rule is checked
// against every kept rule. It is the oracle for the indexed version.
func naiveOptimize(c Classifier) Classifier {
	out := make(Classifier, 0, len(c))
outer:
	for _, r := range c {
		for _, prev := range out {
			if prev.Match.Covers(r.Match) {
				continue outer
			}
		}
		out = append(out, r)
		if r.Match.IsAll() {
			break
		}
	}
	return out
}

// randOptimizeInput returns n rules over exact fields and src/dst prefixes
// of mixed lengths drawn from a few nested chains, so masks repeat and
// covering pairs are common. Every rule constrains in-port or dst-IP,
// except that with probability 1/allEvery (0: never) it is a wildcard,
// which exercises the IsAll early exit.
func randOptimizeInput(r *rand.Rand, n, allEvery int) Classifier {
	prefix := func() iputil.Prefix {
		base := iputil.Addr(10<<24 | uint32(r.Intn(4))<<16 | uint32(r.Intn(4))<<8 | uint32(r.Intn(2)))
		return iputil.NewPrefix(base, []uint8{0, 8, 16, 23, 24, 32}[r.Intn(6)])
	}
	c := make(Classifier, n)
	for i := range c {
		m := pkt.MatchAll
		if allEvery == 0 || r.Intn(allEvery) != 0 {
			if r.Intn(2) == 0 {
				m = m.InPort(pkt.PortID(r.Intn(6)))
			} else {
				m = m.DstIP(prefix())
			}
			if r.Intn(3) == 0 {
				m = m.DstMAC(pkt.MAC(r.Intn(3)))
			}
			if r.Intn(2) == 0 {
				m = m.SrcIP(prefix())
			}
			if r.Intn(3) == 0 {
				m = m.DstIP(prefix())
			}
			if r.Intn(3) == 0 {
				m = m.DstPort([]uint16{80, 443}[r.Intn(2)])
			}
		}
		if r.Intn(4) > 0 {
			c[i].Actions = []pkt.Action{pkt.Output(pkt.PortID(i))}
		}
		c[i].Match = m
	}
	return c
}

// TestOptimizeMatchesNaiveScan: the indexed Optimize keeps exactly the
// rules the naive scan keeps, on both sides of the 32-rule stack buffer.
func TestOptimizeMatchesNaiveScan(t *testing.T) {
	r := rand.New(rand.NewSource(32))
	for trial := 0; trial < 400; trial++ {
		c := randOptimizeInput(r, 1+r.Intn(400), []int{0, 20, 200}[trial%3])
		want := naiveOptimize(c)
		if err := sameClassifier(c.Optimize(), want); err != nil {
			t.Fatalf("trial %d (%d rules, %d kept): %v", trial, len(c), len(want), err)
		}
	}
}

var optimizeSink Classifier

// TestOptimizeAllocatesOnlyItsOutput: up to 32 rules, the cover index
// lives on the stack, so the output is Optimize's one allocation. The
// per-prefix fast path runs hundreds of such small Optimize calls.
func TestOptimizeAllocatesOnlyItsOutput(t *testing.T) {
	r := rand.New(rand.NewSource(7))
	for _, n := range []int{1, 8, 32} {
		c := randOptimizeInput(r, n, 0)
		if a := testing.AllocsPerRun(100, func() { optimizeSink = c.Optimize() }); a != 1 {
			t.Errorf("Optimize of %d rules: %v allocs, want 1", n, a)
		}
	}
}
