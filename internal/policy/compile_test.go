package policy

import (
	"fmt"
	"math/rand"
	"sync"
	"testing"

	"sdx/internal/iputil"
	"sdx/internal/pkt"
)

// --- Paper §3.1 examples ---------------------------------------------------

// The virtual port numbering used in the Figure 1 tests: A1=1 is AS A's
// physical port, B1=2 and B2=3 are AS B's physical ports, C1=4 is AS C's;
// 100+ are virtual inter-participant links.
const (
	portA1 = 1
	portB1 = 2
	portB2 = 3
	portC1 = 4

	linkAB = 101
	linkAC = 102
)

// TestAppSpecificPeeringExample compiles AS A's outbound policy from §3.1:
//
//	(match(dstport=80) >> fwd(B)) + (match(dstport=443) >> fwd(C))
func TestAppSpecificPeeringExample(t *testing.T) {
	polA := Union(
		Seq(Match(pkt.MatchAll.DstPort(80)), FwdTo(linkAB)),
		Seq(Match(pkt.MatchAll.DstPort(443)), FwdTo(linkAC)),
	)
	c := Compile(polA)

	web := pkt.Packet{DstPort: 80}
	if out := c.Eval(web); len(out) != 1 || out[0].InPort != linkAB {
		t.Fatalf("web -> %v, want link A->B", out)
	}
	tls := pkt.Packet{DstPort: 443}
	if out := c.Eval(tls); len(out) != 1 || out[0].InPort != linkAC {
		t.Fatalf("https -> %v, want link A->C", out)
	}
	// "If neither of the two policies matches, the packet is dropped."
	ssh := pkt.Packet{DstPort: 22}
	if out := c.Eval(ssh); len(out) != 0 {
		t.Fatalf("ssh -> %v, want drop", out)
	}
}

// TestCrossProductExample reproduces §4.1's composed policy: AS A's
// outbound app-specific peering sequenced with AS B's inbound traffic
// engineering yields rules matching on both dstport and srcip.
func TestCrossProductExample(t *testing.T) {
	pa := Seq(Match(pkt.MatchAll.InPort(portA1).DstPort(80)), FwdTo(linkAB))
	pb := Union(
		Seq(Match(pkt.MatchAll.InPort(linkAB).SrcIP(pfx("0.0.0.0/1"))), FwdTo(portB1)),
		Seq(Match(pkt.MatchAll.InPort(linkAB).SrcIP(pfx("128.0.0.0/1"))), FwdTo(portB2)),
	)
	c := Compile(Seq(pa, pb))

	low := pkt.Packet{InPort: portA1, DstPort: 80, SrcIP: iputil.MustParseAddr("1.2.3.4")}
	if out := c.Eval(low); len(out) != 1 || out[0].InPort != portB1 {
		t.Fatalf("low srcip -> %v, want B1", out)
	}
	high := pkt.Packet{InPort: portA1, DstPort: 80, SrcIP: iputil.MustParseAddr("200.2.3.4")}
	if out := c.Eval(high); len(out) != 1 || out[0].InPort != portB2 {
		t.Fatalf("high srcip -> %v, want B2", out)
	}
	// Non-web traffic is not covered by PA and drops here (default
	// forwarding is added by the SDX runtime, not this policy).
	other := pkt.Packet{InPort: portA1, DstPort: 22, SrcIP: iputil.MustParseAddr("1.2.3.4")}
	if out := c.Eval(other); len(out) != 0 {
		t.Fatalf("non-web -> %v, want drop", out)
	}
}

// TestLoadBalanceExample reproduces §3.1's wide-area server load balancing
// policy: rewrite anycast destination per client prefix.
func TestLoadBalanceExample(t *testing.T) {
	anycast := pfx("74.125.1.1/32")
	lb := Seq(
		Match(pkt.MatchAll.DstIP(anycast)),
		Union(
			Seq(Match(pkt.MatchAll.SrcIP(pfx("96.25.160.0/24"))),
				Modify(pkt.NoMods.SetDstIP(iputil.MustParseAddr("74.125.224.161")))),
			Seq(Match(pkt.MatchAll.SrcIP(pfx("128.125.163.0/24"))),
				Modify(pkt.NoMods.SetDstIP(iputil.MustParseAddr("74.125.137.139")))),
		),
	)
	c := Compile(lb)

	req := pkt.Packet{
		SrcIP: iputil.MustParseAddr("96.25.160.55"),
		DstIP: iputil.MustParseAddr("74.125.1.1"),
	}
	out := c.Eval(req)
	if len(out) != 1 || out[0].DstIP != iputil.MustParseAddr("74.125.224.161") {
		t.Fatalf("client 1 -> %v, want rewrite to replica 1", out)
	}
	req.SrcIP = iputil.MustParseAddr("128.125.163.9")
	out = c.Eval(req)
	if len(out) != 1 || out[0].DstIP != iputil.MustParseAddr("74.125.137.139") {
		t.Fatalf("client 2 -> %v, want rewrite to replica 2", out)
	}
	// Unknown client: matches the outer filter but no inner policy.
	req.SrcIP = iputil.MustParseAddr("9.9.9.9")
	if out := c.Eval(req); len(out) != 0 {
		t.Fatalf("unknown client -> %v, want drop", out)
	}
}

func TestIfThenElse(t *testing.T) {
	p := IfThenElse(
		Match(pkt.MatchAll.DstPort(80)),
		FwdTo(1),
		FwdTo(2),
	)
	c := Compile(p)
	if out := c.Eval(pkt.Packet{DstPort: 80}); len(out) != 1 || out[0].InPort != 1 {
		t.Fatalf("then branch: %v", out)
	}
	if out := c.Eval(pkt.Packet{DstPort: 22}); len(out) != 1 || out[0].InPort != 2 {
		t.Fatalf("else branch: %v", out)
	}
}

func TestIfWithUnionPredicate(t *testing.T) {
	pred := Match(pkt.MatchAll.DstIP(pfx("10.0.0.0/8")), pkt.MatchAll.DstIP(pfx("20.0.0.0/8")))
	p := IfThenElse(pred, FwdTo(1), FwdTo(2))
	c := Compile(p)
	for _, tc := range []struct {
		dst  string
		want pkt.PortID
	}{
		{"10.1.1.1", 1}, {"20.1.1.1", 1}, {"30.1.1.1", 2},
	} {
		out := c.Eval(pkt.Packet{DstIP: iputil.MustParseAddr(tc.dst)})
		if len(out) != 1 || out[0].InPort != tc.want {
			t.Fatalf("dst %s -> %v, want port %d", tc.dst, out, tc.want)
		}
	}
}

func TestEmptyFilterDropsAll(t *testing.T) {
	c := Compile(Match())
	if out := c.Eval(pkt.Packet{}); len(out) != 0 {
		t.Fatalf("empty filter -> %v", out)
	}
}

func TestMulticastCompiles(t *testing.T) {
	p := Union(FwdTo(1), FwdTo(2))
	c := Compile(p)
	out := c.Eval(pkt.Packet{})
	if len(out) != 2 {
		t.Fatalf("multicast -> %v", out)
	}
	seen := map[pkt.PortID]bool{out[0].InPort: true, out[1].InPort: true}
	if !seen[1] || !seen[2] {
		t.Fatalf("multicast ports %v", seen)
	}
}

func TestMulticastThenFilter(t *testing.T) {
	// Multicast to two ports, then a filter that keeps only port 1.
	p := Seq(Union(FwdTo(1), FwdTo(2)), Match(pkt.MatchAll.InPort(1)))
	c := Compile(p)
	out := c.Eval(pkt.Packet{})
	if len(out) != 1 || out[0].InPort != 1 {
		t.Fatalf("multicast+filter -> %v", out)
	}
}

func TestSeqModThenMatch(t *testing.T) {
	// mod(dstport:=80) >> match(dstport=80) >> fwd(9) passes everything.
	p := Seq(Modify(pkt.NoMods.SetDstPort(80)), Match(pkt.MatchAll.DstPort(80)), FwdTo(9))
	c := Compile(p)
	if out := c.Eval(pkt.Packet{DstPort: 22}); len(out) != 1 || out[0].InPort != 9 || out[0].DstPort != 80 {
		t.Fatalf("mod-then-match -> %v", out)
	}
	// mod(dstport:=81) >> match(dstport=80) drops everything.
	p = Seq(Modify(pkt.NoMods.SetDstPort(81)), Match(pkt.MatchAll.DstPort(80)), FwdTo(9))
	c = Compile(p)
	if out := c.Eval(pkt.Packet{DstPort: 80}); len(out) != 0 {
		t.Fatalf("conflicting mod should drop: %v", out)
	}
}

// --- Random differential testing: AST interpreter vs compiled classifier ---

type polGen struct {
	r *rand.Rand
}

func (g *polGen) match() pkt.Match {
	m := pkt.MatchAll
	if g.r.Intn(3) == 0 {
		m = m.InPort(pkt.PortID(g.r.Intn(4)))
	}
	if g.r.Intn(3) == 0 {
		m = m.DstIP(iputil.NewPrefix(iputil.Addr(g.r.Uint32()), uint8(g.r.Intn(4))))
	}
	if g.r.Intn(3) == 0 {
		m = m.SrcIP(iputil.NewPrefix(iputil.Addr(g.r.Uint32()), uint8(g.r.Intn(4))))
	}
	if g.r.Intn(3) == 0 {
		m = m.DstPort([]uint16{80, 443}[g.r.Intn(2)])
	}
	if g.r.Intn(4) == 0 {
		m = m.DstMAC(pkt.MAC(g.r.Intn(3)))
	}
	return m
}

func (g *polGen) mods() pkt.Mods {
	d := pkt.NoMods
	if g.r.Intn(2) == 0 {
		d = d.SetDstMAC(pkt.MAC(g.r.Intn(3)))
	}
	if g.r.Intn(3) == 0 {
		d = d.SetDstIP(iputil.Addr(g.r.Uint32()))
	}
	if g.r.Intn(3) == 0 {
		d = d.SetDstPort([]uint16{80, 443}[g.r.Intn(2)])
	}
	return d
}

func (g *polGen) policy(depth int) Policy {
	if depth <= 0 {
		switch g.r.Intn(5) {
		case 0:
			return Match(g.match())
		case 1:
			return FwdTo(pkt.PortID(g.r.Intn(4)))
		case 2:
			return Modify(g.mods())
		case 3:
			return DropAll()
		default:
			ms := []pkt.Match{g.match()}
			if g.r.Intn(2) == 0 {
				ms = append(ms, g.match())
			}
			return Match(ms...)
		}
	}
	switch g.r.Intn(4) {
	case 0:
		n := 2 + g.r.Intn(2)
		ps := make([]Policy, n)
		for i := range ps {
			ps[i] = g.policy(depth - 1)
		}
		return Union(ps...)
	case 1:
		n := 2 + g.r.Intn(2)
		ps := make([]Policy, n)
		for i := range ps {
			ps[i] = g.policy(depth - 1)
		}
		return Seq(ps...)
	case 2:
		return IfThenElse(Match(g.match(), g.match()), g.policy(depth-1), g.policy(depth-1))
	default:
		return g.policy(depth - 1)
	}
}

func (g *polGen) packet() pkt.Packet {
	return pkt.Packet{
		InPort:  pkt.PortID(g.r.Intn(4)),
		DstMAC:  pkt.MAC(g.r.Intn(3)),
		EthType: pkt.EthTypeIPv4,
		SrcIP:   iputil.Addr(g.r.Uint32()),
		DstIP:   iputil.Addr(g.r.Uint32()),
		Proto:   pkt.ProtoTCP,
		SrcPort: uint16(g.r.Intn(3)),
		DstPort: []uint16{80, 443, 22}[g.r.Intn(3)],
	}
}

// TestCompileAgainstInterpreter generates random policies and checks that
// the compiled classifier produces the same packet set as direct AST
// evaluation. This is the core correctness property of the whole compiler.
func TestCompileAgainstInterpreter(t *testing.T) {
	g := &polGen{r: rand.New(rand.NewSource(99))}
	for trial := 0; trial < 400; trial++ {
		p := g.policy(2 + g.r.Intn(2))
		c := Compile(p)
		for probe := 0; probe < 100; probe++ {
			in := g.packet()
			want := p.Eval(in)
			got := c.Eval(in)
			if !samePacketSet(got, want) {
				t.Fatalf("trial %d: mismatch for %v\npolicy: %s\ngot:  %v\nwant: %v\nclassifier:\n%s",
					trial, in, p, got, want, c)
			}
		}
	}
}

// TestCompileTotality: compiled classifiers always have a matching rule.
func TestCompileTotality(t *testing.T) {
	g := &polGen{r: rand.New(rand.NewSource(123))}
	for trial := 0; trial < 200; trial++ {
		p := g.policy(2)
		c := Compile(p)
		for probe := 0; probe < 50; probe++ {
			in := g.packet()
			found := false
			for _, r := range c {
				if r.Match.Matches(in) {
					found = true
					break
				}
			}
			if !found {
				t.Fatalf("no rule matches %v in classifier for %s:\n%s", in, p, c)
			}
		}
	}
}

func BenchmarkCompileAppSpecificPeering(b *testing.B) {
	polA := Union(
		Seq(Match(pkt.MatchAll.InPort(portA1).DstPort(80)), FwdTo(linkAB)),
		Seq(Match(pkt.MatchAll.InPort(portA1).DstPort(443)), FwdTo(linkAC)),
	)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		Compile(polA)
	}
}

func BenchmarkClassifierEval(b *testing.B) {
	g := &polGen{r: rand.New(rand.NewSource(1))}
	c := Compile(g.policy(3))
	in := g.packet()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c.Eval(in)
	}
}

// TestThenMatchesSeq: composing two separately compiled classifiers with
// Then is rule-for-rule what the compiler makes of Seq(a, b) — the
// identity that lets the SDX pipeline compile the shared stage-2 policy
// once per pass. Heads include Sequential, Parallel and If nodes.
func TestThenMatchesSeq(t *testing.T) {
	r := rand.New(rand.NewSource(27))
	for trial := 0; trial < 200; trial++ {
		leaves := randLeaves(r, 4+r.Intn(8))
		sub := func() Policy { return randPolicy(r, 3, leaves) }
		var a Policy
		switch trial % 4 {
		case 0:
			a = Seq(sub(), sub())
		case 1:
			a = Union(sub(), sub(), sub())
		case 2:
			a = IfThenElse(Match(pkt.MatchAll.DstPort(uint16(80+r.Intn(4)))), sub(), sub())
		default:
			a = sub()
		}
		b := sub()
		want := Compile(Seq(a, b))
		got := Then(Compile(a), Compile(b))
		if err := sameClassifier(want, got); err != nil {
			t.Fatalf("trial %d: %v\na: %s\nb: %s", trial, err, a, b)
		}
	}
}

// TestParallelMatchesSerial: goroutines each compiling the same random
// policies get rule-for-rule the classifiers a sequential run produces, at
// several goroutine counts, with Compile and with the cross-product fold
// in place of disjoint concatenation. Run it under -race: the SDX
// pipeline compiles stage 2 and both band heads concurrently.
func TestParallelMatchesSerial(t *testing.T) {
	for _, workers := range []int{1, 2, 4, 8} {
		for _, mode := range []struct {
			name    string
			compile func(Policy) Classifier
		}{
			{"full", Compile},
			{"noconcat", compileCrossProduct},
		} {
			t.Run(fmt.Sprintf("workers=%d/%s", workers, mode.name), func(t *testing.T) {
				r := rand.New(rand.NewSource(int64(workers)*100 + 7))
				ps := make([]Policy, 40)
				for i := range ps {
					ps[i] = randPolicy(r, 4, randLeaves(r, 5+r.Intn(10)))
				}
				want := make([]Classifier, len(ps))
				for i, p := range ps {
					want[i] = mode.compile(p)
				}

				got := make([][]Classifier, workers)
				var wg sync.WaitGroup
				for w := range got {
					wg.Add(1)
					go func() {
						defer wg.Done()
						got[w] = make([]Classifier, len(ps))
						for i, p := range ps {
							got[w][i] = mode.compile(p)
						}
					}()
				}
				wg.Wait()
				for w := range got {
					for i := range ps {
						if err := sameClassifier(want[i], got[w][i]); err != nil {
							t.Fatalf("goroutine %d, policy %d: %v\npolicy: %s", w, i, err, ps[i])
						}
					}
				}
			})
		}
	}
}

// compileCrossProduct compiles p as Compile does, except that a top-level
// union folds its branches with parallelCompose even where ConcatDisjoint
// would apply: the composition the SDX pipeline takes without §4.3.1.
func compileCrossProduct(p Policy) Classifier {
	u, ok := p.(*Parallel)
	if !ok || len(u.Ps) == 0 {
		return Compile(p)
	}
	acc := Compile(u.Ps[0])
	for _, q := range u.Ps[1:] {
		acc = parallelCompose(acc, Compile(q))
	}
	return acc
}

// TestParallelConcurrentCompiles: the band-assembly pattern of the SDX
// pipeline — a shared tail and several heads
// compiled on their own goroutines, each head composed with the tail by
// Then once both are ready — yields what compiling each Seq(head, tail)
// sequentially yields. Run it under -race.
func TestParallelConcurrentCompiles(t *testing.T) {
	r := rand.New(rand.NewSource(99))
	leaves := randLeaves(r, 12)
	shared := randPolicy(r, 3, leaves)
	heads := make([]Policy, 8)
	want := make([]Classifier, len(heads))
	for i := range heads {
		heads[i] = randPolicy(r, 3, leaves)
		want[i] = Compile(Seq(heads[i], shared))
	}

	var tail Classifier
	tailReady := make(chan struct{})
	got := make([]Classifier, len(heads))
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		defer close(tailReady)
		tail = Compile(shared)
	}()
	for i := range heads {
		wg.Add(1)
		go func() {
			defer wg.Done()
			h := Compile(heads[i])
			<-tailReady
			got[i] = Then(h, tail)
		}()
	}
	wg.Wait()
	for i := range heads {
		if err := sameClassifier(want[i], got[i]); err != nil {
			t.Fatalf("head %d: %v", i, err)
		}
	}
}

// randPolicy builds a random policy tree. Leaves are drawn from a shared
// pool so identical nodes recur across branches, the way SDX policies
// share idioms (§4.3.1).
func randPolicy(r *rand.Rand, depth int, leaves []Policy) Policy {
	if depth <= 0 || r.Intn(4) == 0 {
		return leaves[r.Intn(len(leaves))]
	}
	n := 2 + r.Intn(3)
	ps := make([]Policy, n)
	for i := range ps {
		ps[i] = randPolicy(r, depth-1, leaves)
	}
	switch r.Intn(3) {
	case 0:
		return Union(ps...)
	case 1:
		return Seq(ps[:2]...)
	default:
		pred := Match(pkt.MatchAll.DstPort(uint16(80 + r.Intn(4))))
		return IfThenElse(pred, ps[0], ps[1])
	}
}

func randLeaves(r *rand.Rand, n int) []Policy {
	leaves := make([]Policy, 0, n)
	for i := 0; i < n; i++ {
		switch r.Intn(5) {
		case 0:
			leaves = append(leaves, FwdTo(pkt.PortID(1+r.Intn(6))))
		case 1:
			m := pkt.MatchAll.InPort(pkt.PortID(1 + r.Intn(4)))
			if r.Intn(2) == 0 {
				m = m.DstPort([]uint16{80, 443, 22}[r.Intn(3)])
			}
			leaves = append(leaves, Match(m))
		case 2:
			p := iputil.NewPrefix(iputil.Addr(r.Uint32()), uint8(8*(1+r.Intn(3))))
			leaves = append(leaves, Match(pkt.MatchAll.DstIP(p)))
		case 3:
			leaves = append(leaves, Seq(
				Match(pkt.MatchAll.InPort(pkt.PortID(1+r.Intn(4)))),
				FwdTo(pkt.PortID(10+r.Intn(4))),
			))
		default:
			leaves = append(leaves, Modify(pkt.NoMods.SetDstMAC(pkt.MAC(0xa2_00_00_00_00_00|uint64(r.Intn(8))))))
		}
	}
	return leaves
}

func sameClassifier(a, b Classifier) error {
	if len(a) != len(b) {
		return fmt.Errorf("rule count %d != %d", len(a), len(b))
	}
	for i := range a {
		if a[i].Match != b[i].Match {
			return fmt.Errorf("rule %d match %v != %v", i, a[i].Match, b[i].Match)
		}
		if len(a[i].Actions) != len(b[i].Actions) {
			return fmt.Errorf("rule %d action count %d != %d", i, len(a[i].Actions), len(b[i].Actions))
		}
		for j := range a[i].Actions {
			if a[i].Actions[j] != b[i].Actions[j] {
				return fmt.Errorf("rule %d action %d %v != %v", i, j, a[i].Actions[j], b[i].Actions[j])
			}
		}
	}
	return nil
}
