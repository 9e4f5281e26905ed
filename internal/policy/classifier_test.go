package policy

import (
	"math/rand"
	"strings"
	"testing"

	"sdx/internal/iputil"
	"sdx/internal/pkt"
)

func pfx(s string) iputil.Prefix { return iputil.MustParsePrefix(s) }

func TestRuleString(t *testing.T) {
	r := Rule{Match: pkt.MatchAll.DstPort(80), Actions: []pkt.Action{pkt.Output(2)}}
	if got := r.String(); got != "match(dstport=80) -> [fwd(2)]" {
		t.Errorf("String = %s", got)
	}
	d := Rule{Match: pkt.MatchAll}
	if got := d.String(); got != "match(*) -> drop" {
		t.Errorf("drop String = %s", got)
	}
}

func TestClassifierEvalFirstMatch(t *testing.T) {
	c := Classifier{
		{Match: pkt.MatchAll.DstPort(80), Actions: []pkt.Action{pkt.Output(1)}},
		{Match: pkt.MatchAll, Actions: []pkt.Action{pkt.Output(2)}},
	}
	web := pkt.Packet{DstPort: 80}
	out := c.Eval(web)
	if len(out) != 1 || out[0].InPort != 1 {
		t.Fatalf("web packet: %v", out)
	}
	other := pkt.Packet{DstPort: 22}
	out = c.Eval(other)
	if len(out) != 1 || out[0].InPort != 2 {
		t.Fatalf("other packet: %v", out)
	}
}

func TestClassifierEvalDrop(t *testing.T) {
	c := Classifier{{Match: pkt.MatchAll}}
	if out := c.Eval(pkt.Packet{}); len(out) != 0 {
		t.Fatalf("drop classifier emitted %v", out)
	}
	// No matching rule at all also drops.
	c = Classifier{{Match: pkt.MatchAll.DstPort(80), Actions: []pkt.Action{pkt.Output(1)}}}
	if out := c.Eval(pkt.Packet{DstPort: 22}); len(out) != 0 {
		t.Fatalf("fall-through should drop, got %v", out)
	}
}

func TestOptimizeRemovesShadowed(t *testing.T) {
	c := Classifier{
		{Match: pkt.MatchAll.DstPort(80), Actions: []pkt.Action{pkt.Output(1)}},
		{Match: pkt.MatchAll.DstPort(80).SrcPort(9), Actions: []pkt.Action{pkt.Output(2)}}, // shadowed
		{Match: pkt.MatchAll},
		{Match: pkt.MatchAll.DstPort(443), Actions: []pkt.Action{pkt.Output(3)}}, // below total rule
	}
	got := c.Optimize()
	if len(got) != 2 {
		t.Fatalf("Optimize kept %d rules:\n%s", len(got), got)
	}
	if got[1].Match != pkt.MatchAll || !got[1].IsDrop() {
		t.Fatalf("second rule should be the wildcard drop: %v", got[1])
	}
}

func TestNumRules(t *testing.T) {
	c := Classifier{
		{Match: pkt.MatchAll.DstPort(80), Actions: []pkt.Action{pkt.Output(1)}},
		{Match: pkt.MatchAll},
	}
	if c.NumRules() != 2 || c.NumForwardingRules() != 1 {
		t.Fatalf("NumRules=%d NumForwardingRules=%d", c.NumRules(), c.NumForwardingRules())
	}
}

func TestUnionActionsDedup(t *testing.T) {
	a := pkt.Output(1)
	b := pkt.Output(2)
	got := unionActions([]pkt.Action{a, b}, []pkt.Action{b, a})
	if len(got) != 2 {
		t.Fatalf("unionActions = %v", got)
	}
}

func TestConcatDisjoint(t *testing.T) {
	cA := Classifier{
		{Match: pkt.MatchAll.InPort(1).DstPort(80), Actions: []pkt.Action{pkt.Output(10)}},
		{Match: pkt.MatchAll.InPort(1)},
		{Match: pkt.MatchAll},
	}
	cB := Classifier{
		{Match: pkt.MatchAll.InPort(2), Actions: []pkt.Action{pkt.Output(20)}},
		{Match: pkt.MatchAll},
	}
	cat, ok := ConcatDisjoint(cA, cB)
	if !ok {
		t.Fatal("disjoint guards should concat")
	}
	// A's traffic follows A's rules, including A's interior guarded drop.
	if out := cat.Eval(pkt.Packet{InPort: 1, DstPort: 80}); len(out) != 1 || out[0].InPort != 10 {
		t.Fatalf("A web: %v", out)
	}
	if out := cat.Eval(pkt.Packet{InPort: 1, DstPort: 22}); len(out) != 0 {
		t.Fatalf("A ssh should drop: %v", out)
	}
	if out := cat.Eval(pkt.Packet{InPort: 2, DstPort: 22}); len(out) != 1 || out[0].InPort != 20 {
		t.Fatalf("B traffic: %v", out)
	}
	if out := cat.Eval(pkt.Packet{InPort: 3}); len(out) != 0 {
		t.Fatalf("unknown port should drop: %v", out)
	}
}

func TestConcatDisjointRejectsUnguarded(t *testing.T) {
	cA := Classifier{
		{Match: pkt.MatchAll.DstPort(80), Actions: []pkt.Action{pkt.Output(10)}}, // no in-port guard
		{Match: pkt.MatchAll},
	}
	cB := Classifier{{Match: pkt.MatchAll}}
	if _, ok := ConcatDisjoint(cA, cB); ok {
		t.Fatal("unguarded rule must reject the fast path")
	}
}

func TestConcatDisjointRejectsSharedGuard(t *testing.T) {
	cA := Classifier{
		{Match: pkt.MatchAll.InPort(1), Actions: []pkt.Action{pkt.Output(10)}},
		{Match: pkt.MatchAll},
	}
	cB := Classifier{
		{Match: pkt.MatchAll.InPort(1), Actions: []pkt.Action{pkt.Output(20)}},
		{Match: pkt.MatchAll},
	}
	if _, ok := ConcatDisjoint(cA, cB); ok {
		t.Fatal("shared guard must reject the fast path")
	}
}

// TestConcatDisjointMatchesParallel cross-checks the fast path against the
// full cross-product on random guarded classifiers.
func TestConcatDisjointMatchesParallel(t *testing.T) {
	r := rand.New(rand.NewSource(21))
	for trial := 0; trial < 300; trial++ {
		var cs []Classifier
		for i := 0; i < 3; i++ {
			var c Classifier
			for j := 0; j < 1+r.Intn(4); j++ {
				m := pkt.MatchAll.InPort(pkt.PortID(i*4 + r.Intn(4)))
				if r.Intn(2) == 0 {
					m = m.DstPort([]uint16{80, 443}[r.Intn(2)])
				}
				var acts []pkt.Action
				if r.Intn(4) > 0 {
					acts = []pkt.Action{pkt.Output(pkt.PortID(100 + r.Intn(3)))}
				}
				c = append(c, Rule{Match: m, Actions: acts})
			}
			c = append(c, Rule{Match: pkt.MatchAll})
			cs = append(cs, c)
		}
		cat, ok := ConcatDisjoint(cs...)
		if !ok {
			t.Fatal("construction guarantees disjoint guards")
		}
		full := parallelCompose(parallelCompose(cs[0], cs[1]), cs[2])
		for probe := 0; probe < 200; probe++ {
			p := pkt.Packet{
				InPort:  pkt.PortID(r.Intn(14)),
				DstPort: []uint16{80, 443, 22}[r.Intn(3)],
			}
			a := cat.Eval(p)
			b := full.Eval(p)
			if !samePacketSet(a, b) {
				t.Fatalf("trial %d: concat %v != parallel %v for %v\ncat:\n%s\nfull:\n%s",
					trial, a, b, p, cat, full)
			}
		}
	}
}

// BenchmarkParallelComposition measures §4.3.1's disjoint-policy
// concatenation against the cross-product fold it replaces, on the shape
// of the SDX's stage-1 union: one sub-classifier per participant, every
// rule guarded by that participant's in-port. Compile always tries
// ConcatDisjoint first; the cross-product is what it costs without it.
func BenchmarkParallelComposition(b *testing.B) {
	const participants, terms = 40, 8
	subs := make([]Classifier, participants)
	for i := range subs {
		for j := 0; j < terms; j++ {
			m := pkt.MatchAll.InPort(pkt.PortID(i + 1)).DstPort(uint16(1000 + j))
			out := pkt.PortID(100 + (i+j)%participants)
			subs[i] = append(subs[i], Rule{Match: m, Actions: []pkt.Action{pkt.Output(out)}})
		}
		subs[i] = append(subs[i], Rule{Match: pkt.MatchAll})
	}
	if _, ok := ConcatDisjoint(subs...); !ok {
		b.Fatal("in-port guards are disjoint by construction")
	}
	for _, mode := range []struct {
		name    string
		compose func() Classifier
	}{
		{"concat", func() Classifier {
			cat, _ := ConcatDisjoint(subs...)
			return cat
		}},
		{"cross-product", func() Classifier {
			acc := subs[0]
			for _, s := range subs[1:] {
				acc = parallelCompose(acc, s)
			}
			return acc
		}},
	} {
		b.Run(mode.name, func(b *testing.B) {
			b.ReportAllocs()
			var c Classifier
			for i := 0; i < b.N; i++ {
				c = mode.compose()
			}
			b.ReportMetric(float64(len(c)), "rules")
		})
	}
}

func samePacketSet(a, b []pkt.Packet) bool {
	key := func(ps []pkt.Packet) map[string]bool {
		m := make(map[string]bool, len(ps))
		for _, p := range ps {
			m[p.String()] = true
		}
		return m
	}
	ka, kb := key(a), key(b)
	if len(ka) != len(kb) {
		return false
	}
	for k := range ka {
		if !kb[k] {
			return false
		}
	}
	return true
}

func TestClassifierString(t *testing.T) {
	c := Classifier{
		{Match: pkt.MatchAll.DstPort(80), Actions: []pkt.Action{pkt.Output(1)}},
		{Match: pkt.MatchAll},
	}
	s := c.String()
	if !strings.Contains(s, "fwd(1)") || !strings.Contains(s, "drop") {
		t.Errorf("String = %q", s)
	}
}
