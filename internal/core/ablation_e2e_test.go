package core_test

import (
	"testing"
	"time"

	"sdx/internal/core"
	"sdx/internal/experiments"
	"sdx/internal/iputil"
	"sdx/internal/pkt"
	"sdx/internal/router"
)

// TestNaiveModeForwardsIdentically verifies the §4.2 optimization is
// semantics-preserving: the per-prefix lowering (RecompilePerPrefix, no
// VNH grouping) forwards every probe exactly like the full pipeline,
// while using strictly more rules.
func TestNaiveModeForwardsIdentically(t *testing.T) {
	f := newFig1(t)
	f.setFig1Policies(t)
	if rep := f.ctrl.Recompile(core.CompilePolicy(asB, []core.Term{
		core.FwdPort(pkt.MatchAll.SrcIP(pfx("0.0.0.0/1")), 2),
		core.FwdPort(pkt.MatchAll.SrcIP(pfx("128.0.0.0/1")), 3),
	}, nil)); rep.Err != nil {
		t.Fatal(rep.Err)
	}

	type probe struct {
		src, dst iputil.Addr
		port     uint16
	}
	probes := []probe{
		{ip("50.0.0.1"), ip("11.1.1.1"), 80},
		{ip("200.0.0.1"), ip("11.1.1.1"), 80},
		{ip("50.0.0.1"), ip("11.1.1.1"), 443},
		{ip("50.0.0.1"), ip("12.1.1.1"), 22},
		{ip("50.0.0.1"), ip("13.1.1.1"), 80},
		{ip("200.0.0.1"), ip("13.1.1.1"), 22},
		{ip("50.0.0.1"), ip("14.1.1.1"), 80},
		{ip("50.0.0.1"), ip("14.1.1.1"), 443},
		{ip("50.0.0.1"), ip("15.1.1.1"), 80},
	}
	deliveries := func() []pkt.PortID {
		out := make([]pkt.PortID, len(probes))
		for i, pr := range probes {
			f.clearReceived()
			if !f.a.Send(tcp(pr.src, pr.dst, pr.port)) {
				out[i] = 0
				continue
			}
			for _, r := range []*router.BorderRouter{f.b1, f.b2, f.c, f.z} {
				if len(r.Received()) > 0 {
					out[i] = r.Port().ID
				}
			}
		}
		return out
	}

	full := f.ctrl.Recompile()
	want := deliveries()

	naive := core.RecompilePerPrefix(f.ctrl)
	got := deliveries()
	for i := range probes {
		if got[i] != want[i] {
			t.Fatalf("probe %+v: naive delivered at %d, full at %d", probes[i], got[i], want[i])
		}
	}
	if naive.Rules <= full.Rules {
		t.Fatalf("naive mode should cost more rules: %d vs %d", naive.Rules, full.Rules)
	}

	// And back: the full pipeline restores the smaller table.
	again := f.ctrl.Recompile()
	if again.Rules != full.Rules {
		t.Fatalf("round trip changed rules: %d vs %d", again.Rules, full.Rules)
	}
	final := deliveries()
	for i := range probes {
		if final[i] != want[i] {
			t.Fatalf("probe %+v changed after restoring full mode", probes[i])
		}
	}
}

// BenchmarkAblation measures what §4.2's VNH/VMAC grouping saves on one
// exchange (experiments.NewGroupedExchange at the EXPERIMENTS.md size):
// each iteration runs a full pass and a per-prefix one. It reports both
// rule counts, the group count they share, and the mean time of each
// pass. §4.3.1's disjoint concatenation is measured on its own by
// internal/policy's BenchmarkParallelComposition.
func BenchmarkAblation(b *testing.B) {
	ctrl, _, err := experiments.NewGroupedExchange(60, 150, 1)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	var full, perPrefix core.CompileReport
	var fullTime, perPrefixTime time.Duration
	for i := 0; i < b.N; i++ {
		full = ctrl.Recompile()
		perPrefix = core.RecompilePerPrefix(ctrl)
		fullTime += full.Elapsed
		perPrefixTime += perPrefix.Elapsed
	}
	if perPrefix.Groups != full.Groups {
		b.Fatalf("per-prefix pass saw %d groups, full pass %d", perPrefix.Groups, full.Groups)
	}
	b.ReportMetric(float64(full.Rules), "full-rules")
	b.ReportMetric(float64(perPrefix.Rules), "per-prefix-rules")
	b.ReportMetric(float64(full.Groups), "groups")
	b.ReportMetric(float64(fullTime.Microseconds())/1e3/float64(b.N), "full-ms")
	b.ReportMetric(float64(perPrefixTime.Microseconds())/1e3/float64(b.N), "per-prefix-ms")
}
