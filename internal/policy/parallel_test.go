package policy

import (
	"fmt"
	"math/rand"
	"sync"
	"testing"

	"sdx/internal/iputil"
	"sdx/internal/pkt"
)

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

// TestParallelMatchesSerial: the parallel compiler must produce rule-for-
// rule identical classifiers to the serial compiler for random policies,
// at several pool sizes, with and without disjoint concatenation.
func TestParallelMatchesSerial(t *testing.T) {
	for _, workers := range []int{1, 2, 4, 8} {
		for _, mode := range []struct {
			name     string
			noConcat bool
		}{
			{name: "full"},
			{name: "noconcat", noConcat: true},
		} {
			t.Run(fmt.Sprintf("workers=%d/%s", workers, mode.name), func(t *testing.T) {
				r := rand.New(rand.NewSource(int64(workers)*100 + 7))
				for trial := 0; trial < 40; trial++ {
					leaves := randLeaves(r, 5+r.Intn(10))
					p := randPolicy(r, 4, leaves)

					serial := NewCompiler()
					serial.DisableConcat = mode.noConcat
					want := serial.Compile(p)

					par := NewParallelCompiler(workers)
					par.DisableConcat = mode.noConcat
					got := par.Compile(p)

					// sameClassifier compares len(want) and len(got)
					// first: the rule count, which neither compiler's
					// Stats records.
					if err := sameClassifier(want, got); err != nil {
						t.Fatalf("trial %d: %v\npolicy: %s", trial, err, p)
					}
					ss, ps := serial.Stats, par.Stats()
					if ss.SeqOps != ps.SeqOps || ss.ParOps != ps.ParOps {
						t.Fatalf("trial %d: stats diverged: serial %+v parallel %+v", trial, ss, ps)
					}
				}
			})
		}
	}
}

// TestParallelReset: Reset zeroes the work counters, and a compile after
// it still produces the serial result.
func TestParallelReset(t *testing.T) {
	p := Union(
		Seq(Match(pkt.MatchAll.InPort(1)), FwdTo(2)),
		Seq(Match(pkt.MatchAll.InPort(3)), FwdTo(4)),
	)
	c := NewParallelCompiler(2)
	c.Compile(p)
	if s := c.Stats(); s.SeqOps == 0 {
		t.Fatalf("stats after compile = %+v, want SeqOps > 0", s)
	}
	c.Reset()
	if s := c.Stats(); s != (CompileStats{}) {
		t.Fatalf("stats after Reset = %+v, want zero", s)
	}
	got := c.Compile(p)
	want := NewCompiler().Compile(p)
	if err := sameClassifier(want, got); err != nil {
		t.Fatalf("after Reset: %v", err)
	}
}

// TestParallelConcurrentCompiles: concurrent Compile calls on one
// compiler (the two-band pattern of the SDX pipeline) are race-free and
// each produces the serial result.
func TestParallelConcurrentCompiles(t *testing.T) {
	r := rand.New(rand.NewSource(99))
	leaves := randLeaves(r, 12)
	shared := randPolicy(r, 3, leaves)
	ps := make([]Policy, 8)
	want := make([]Classifier, len(ps))
	for i := range ps {
		ps[i] = Seq(randPolicy(r, 3, leaves), shared)
		want[i] = NewCompiler().Compile(ps[i])
	}

	c := NewParallelCompiler(4)
	got := make([]Classifier, len(ps))
	var wg sync.WaitGroup
	for i := range ps {
		wg.Add(1)
		go func() {
			defer wg.Done()
			got[i] = c.Compile(ps[i])
		}()
	}
	wg.Wait()
	for i := range ps {
		if err := sameClassifier(want[i], got[i]); err != nil {
			t.Fatalf("policy %d: %v", i, err)
		}
	}
}
