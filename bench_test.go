package sdx

// One benchmark per table and figure of the paper's evaluation, plus
// micro-benchmarks of the hot paths. The custom metrics reported via
// b.ReportMetric are the paper's y-axes:
//
//	BenchmarkTable1TraceSynthesis    updates/s of trace generation
//	BenchmarkFig5a / Fig5b           end-to-end deployment replays
//	BenchmarkFig6PrefixGroups        groups (sub-linear in prefixes)
//	BenchmarkFig7FlowRules           rules (linear in groups)
//	BenchmarkFig8InitialCompilation  compile ns (superlinear in groups)
//	BenchmarkFig9BurstRules          additional rules per 100-update burst
//	BenchmarkFig10UpdateTime         fast-path ns per BGP update
//
// Run them all with:  go test -bench=. -benchmem
// cmd/sdx-bench prints the same data as full tables/series.

import (
	"fmt"
	"runtime"
	"testing"

	"sdx/internal/bgp"
	"sdx/internal/core"
	"sdx/internal/experiments"
	"sdx/internal/iputil"
	"sdx/internal/pkt"
	"sdx/internal/workload"
)

func BenchmarkTable1TraceSynthesis(b *testing.B) {
	x := workload.NewIXP(workload.DefaultTopology(100, 5000, 1))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tr := workload.GenerateTrace(x, workload.DefaultTrace(5000, int64(i)))
		if len(tr.Events) != 5000 {
			b.Fatal("bad trace")
		}
	}
	b.ReportMetric(5000, "updates/op")
}

func BenchmarkFig5aAppSpecificPeering(b *testing.B) {
	for i := 0; i < b.N; i++ {
		s, err := experiments.Fig5a(120, 40, 80)
		if err != nil {
			b.Fatal(err)
		}
		if err := s.CheckFig5a(40, 80); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFig5bLoadBalance(b *testing.B) {
	for i := 0; i < b.N; i++ {
		s, err := experiments.Fig5b(80, 30)
		if err != nil {
			b.Fatal(err)
		}
		if err := s.CheckFig5b(30); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFig6PrefixGroups(b *testing.B) {
	for _, n := range []int{100, 200, 300} {
		for _, prefixes := range []int{5000, 10000} {
			b.Run(fmt.Sprintf("participants=%d/prefixes=%d", n, prefixes), func(b *testing.B) {
				var groups int
				for i := 0; i < b.N; i++ {
					pts := experiments.Fig6([]int{n}, []int{prefixes}, prefixes, 1)
					groups = pts[0].Groups
				}
				b.ReportMetric(float64(groups), "groups")
			})
		}
	}
}

func BenchmarkFig7FlowRules(b *testing.B) {
	for _, n := range []int{100, 200, 300} {
		for _, groups := range []int{200, 400} {
			b.Run(fmt.Sprintf("participants=%d/groups=%d", n, groups), func(b *testing.B) {
				var rules int
				for i := 0; i < b.N; i++ {
					pts, err := experiments.Fig78([]int{n}, []int{groups}, 1)
					if err != nil {
						b.Fatal(err)
					}
					rules = pts[0].Rules
				}
				b.ReportMetric(float64(rules), "rules")
			})
		}
	}
}

func BenchmarkFig8InitialCompilation(b *testing.B) {
	for _, n := range []int{100, 300} {
		for _, groups := range []int{200, 400} {
			b.Run(fmt.Sprintf("participants=%d/groups=%d", n, groups), func(b *testing.B) {
				pts, err := experiments.Fig78([]int{n}, []int{groups}, 1)
				if err != nil {
					b.Fatal(err)
				}
				// Report the measured compile time as the benchmark's
				// own metric; the loop recompiles for timing stability.
				b.ReportMetric(float64(pts[0].CompileTime.Nanoseconds()), "compile-ns")
				for i := 0; i < b.N; i++ {
					if _, err := experiments.Fig78([]int{n}, []int{groups}, 1); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
}

func BenchmarkFig9BurstRules(b *testing.B) {
	for _, n := range []int{100, 300} {
		b.Run(fmt.Sprintf("participants=%d/burst=100", n), func(b *testing.B) {
			var additional int
			for i := 0; i < b.N; i++ {
				pts, err := experiments.Fig9([]int{n}, []int{100}, 200, 1)
				if err != nil {
					b.Fatal(err)
				}
				additional = pts[0].AdditionalRules
			}
			b.ReportMetric(float64(additional), "rules/burst")
		})
	}
}

func BenchmarkFig10UpdateTime(b *testing.B) {
	for _, n := range []int{100, 300} {
		b.Run(fmt.Sprintf("participants=%d", n), func(b *testing.B) {
			res, err := experiments.Fig10([]int{n}, 100, 200, 1)
			if err != nil {
				b.Fatal(err)
			}
			b.ReportMetric(float64(res[0].Percentile(0.5).Nanoseconds()), "p50-ns")
			b.ReportMetric(float64(res[0].Percentile(0.99).Nanoseconds()), "p99-ns")
			for i := 0; i < b.N; i++ {
				if _, err := experiments.Fig10([]int{n}, 10, 200, int64(i)); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// --- Hot-path micro-benchmarks ----------------------------------------------

// BenchmarkProcessUpdate measures the controller's full fast path for a
// single-prefix announcement against a loaded exchange.
func BenchmarkProcessUpdate(b *testing.B) {
	x := workload.NewIXP(workload.DefaultTopology(100, 2000, 1))
	ctrl, err := workload.Load(x)
	if err != nil {
		b.Fatal(err)
	}
	if err := workload.InstallPolicies(ctrl, workload.AssignPolicies(x, workload.DefaultPolicyMix(1))); err != nil {
		b.Fatal(err)
	}
	ctrl.Recompile()
	peer := x.Participants[0].AS
	prefix := x.Participants[0].Prefixes[0]
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ctrl.ApplyBatch(PeerUpdate{From: peer, Update: &bgp.Update{
			Attrs: &bgp.PathAttrs{ASPath: []uint32{peer, uint32(900 + i%50)}, NextHop: iputil.Addr(peer)},
			NLRI:  []iputil.Prefix{prefix},
		}})
		if i%200 == 199 {
			b.StopTimer()
			ctrl.Recompile()
			b.StartTimer()
		}
	}
}

// BenchmarkProcessUpdateGrouped measures the fast path for announcements
// that do touch policy: prefixes only the top announcer announces, on the
// exchange of groupedRecompiler, where the viewer forwards by port towards
// that announcer. Each such update compiles per-prefix rules through many
// small Optimize calls, a cost BenchmarkProcessUpdate's prefix never pays.
// The periodic recompile changes ns/op with b.N, so compare runs at one
// fixed -benchtime.
func BenchmarkProcessUpdateGrouped(b *testing.B) {
	ctrl, x, _, recompile := groupedRecompiler(b)
	recompile(0)
	announcers := make(map[iputil.Prefix]int)
	for i := range x.Participants {
		for _, p := range x.Participants[i].Prefixes {
			announcers[p]++
		}
	}
	top := x.TopAnnouncers()[0]
	var targets []iputil.Prefix
	for _, p := range top.Prefixes {
		if announcers[p] == 1 {
			targets = append(targets, p)
		}
	}
	update := func(i int) core.UpdateResult {
		return ctrl.ApplyBatch(PeerUpdate{From: top.AS, Update: &bgp.Update{
			Attrs: &bgp.PathAttrs{ASPath: []uint32{top.AS, uint32(900 + i%50)}, NextHop: iputil.Addr(top.AS)},
			NLRI:  []iputil.Prefix{targets[i%len(targets)]},
		}})
	}
	if len(targets) == 0 || update(0).AffectedGroups == 0 {
		b.Fatalf("no policy-touching prefix among %d targets", len(targets))
	}
	ctrl.Recompile()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		update(i)
		if i%200 == 199 {
			b.StopTimer()
			ctrl.Recompile()
			b.StartTimer()
		}
	}
}

// BenchmarkRecompile measures the full optimization pass on a mid-size
// exchange.
func BenchmarkRecompile(b *testing.B) {
	x := workload.NewIXP(workload.DefaultTopology(100, 2000, 1))
	ctrl, err := workload.Load(x)
	if err != nil {
		b.Fatal(err)
	}
	if err := workload.InstallPolicies(ctrl, workload.AssignPolicies(x, workload.DefaultPolicyMix(1))); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rep := ctrl.Recompile()
		if rep.Rules == 0 {
			b.Fatal("no rules")
		}
	}
}

// groupedRecompiler sets up the policy-dense 100×400 exchange that the
// end-to-end benchmark's policy-recompile phase drives, and returns its
// controller and IXP with the participant whose outbound policy
// alternates and a full pass that installs policy i%2 of two towards the
// two top announcers. The two policies key the same groups, so no pass
// moves a next hop.
func groupedRecompiler(tb testing.TB) (ctrl *core.Controller, x *workload.IXP, viewer uint32, recompile func(i int)) {
	ctrl, x, err := experiments.NewGroupedExchange(100, 400, 1)
	if err != nil {
		tb.Fatal(err)
	}
	top := x.TopAnnouncers()
	wa, wb := top[0].AS, top[1].AS
	viewer = top[len(top)-1].AS
	policies := [2][]core.Term{
		{core.Fwd(pkt.MatchAll.DstPort(80), wa), core.Fwd(pkt.MatchAll.DstPort(8080), wb)},
		{core.Fwd(pkt.MatchAll.DstPort(443), wa), core.Fwd(pkt.MatchAll.DstPort(8443), wb)},
	}
	return ctrl, x, viewer, func(i int) {
		if rep := ctrl.Recompile(core.CompilePolicy(viewer, nil, policies[i%2])); rep.Err != nil || rep.Rules == 0 {
			tb.Fatalf("recompile: %d rules, err %v", rep.Rules, rep.Err)
		}
	}
}

// liveHeapMB is the heap in use after a full collection, in MB.
func liveHeapMB() float64 {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(ms.HeapAlloc) / (1 << 20)
}

// BenchmarkRecompileGrouped measures the full pass on the exchange of
// groupedRecompiler, with a border-router sink attached. adverts/op is
// what that sink receives per pass: no next hop moves, so anything above
// 0 is redundant advertisement. live-MB is the heap in use after the last
// pass, with the controller alive.
func BenchmarkRecompileGrouped(b *testing.B) {
	ctrl, _, viewer, recompile := groupedRecompiler(b)
	adverts := 0
	if _, err := ctrl.OnRoute(viewer, func(core.RouteAd) { adverts++ }); err != nil {
		b.Fatal(err)
	}
	recompile(1)
	adverts = 0
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		recompile(i)
	}
	b.StopTimer()
	b.ReportMetric(float64(adverts)/float64(b.N), "adverts/op")
	b.ReportMetric(liveHeapMB(), "live-MB")
	runtime.KeepAlive(ctrl)
}

// BenchmarkTableLoad measures the table transfer of the RIB-heavy exchange
// (100 participants, 20k prefixes, no policies) that the end-to-end
// benchmark's table-steady workload sets up. live-MB is the heap in use
// after the load, with the controller alive.
func BenchmarkTableLoad(b *testing.B) {
	b.ReportAllocs()
	var live float64
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		x := workload.NewIXP(workload.DefaultTopology(100, 20000, 1))
		b.StartTimer()
		ctrl, err := workload.Load(x)
		if err != nil {
			b.Fatal(err)
		}
		b.StopTimer()
		live = liveHeapMB()
		runtime.KeepAlive(ctrl)
		b.StartTimer()
	}
	b.ReportMetric(live, "live-MB")
}

// BenchmarkFabricForwarding measures a single packet through the compiled
// fabric (switch lookup + action application).
func BenchmarkFabricForwarding(b *testing.B) {
	s, err := experiments.Fig5a(2, 1, 2)
	if err != nil {
		b.Fatal(err)
	}
	_ = s
	// Reuse the e2e Figure 1 fixture shape through the public API.
	ctrl := New()
	ctrl.AddParticipant(ParticipantConfig{AS: 100, Name: "A", Ports: []PhysicalPort{{ID: 1}}})
	ctrl.AddParticipant(ParticipantConfig{AS: 200, Name: "B", Ports: []PhysicalPort{{ID: 2}}})
	ctrl.ApplyBatch(PeerUpdate{From: 200, Update: &bgp.Update{
		Attrs: &bgp.PathAttrs{ASPath: []uint32{200}, NextHop: iputil.Addr(PortIP(2))},
		NLRI:  []iputil.Prefix{MustParsePrefix("20.0.0.0/8")},
	}})
	ctrl.Recompile(CompilePolicy(100, nil, []Term{Fwd(MatchAll.DstPort(80), 200)}))
	comp := ctrl.Compiled()
	if len(comp.VMACs) == 0 {
		b.Fatal("no groups")
	}
	p := pkt.Packet{
		EthType: 0x0800, DstMAC: comp.VMACs[0],
		SrcIP: MustParseAddr("10.0.0.1"), DstIP: MustParseAddr("20.0.0.1"),
		Proto: 6, DstPort: 80,
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ctrl.InjectFromPort(1, p)
	}
}
