// Package experiments implements the paper's evaluation (§6) and
// deployment (§5.2) scenarios, one constructor per table or figure. Each
// experiment returns plain data (rows or series) that cmd/sdx-bench
// prints and the repository's benchmarks measure. Everything is
// deterministic given a seed.
package experiments

import (
	"fmt"
	"sort"
	"time"

	"sdx/internal/bgp"
	"sdx/internal/core"
	"sdx/internal/iputil"
	"sdx/internal/pkt"
	"sdx/internal/rs"
	"sdx/internal/workload"
)

// --- Table 1: IXP dataset statistics ---------------------------------------

// Table1Row compares one synthesized IXP trace against the published
// aggregate it models.
type Table1Row struct {
	Name            string
	Peers           int
	Prefixes        int
	Updates         int
	PaperUpdates    int
	UpdatedFraction float64 // measured
	PaperFraction   float64 // published
	BurstP75        int
	MedianGap       time.Duration
}

// Table1 synthesizes traces shaped like the three RIPE collector
// datasets of Table 1 (scaled down by `scale`, default 100, so the suite
// runs quickly; scale 1 reproduces full-size traces).
func Table1(scale int, seed int64) []Table1Row {
	if scale < 1 {
		scale = 100
	}
	specs := []struct {
		name          string
		peers         int
		prefixes      int
		updates       int
		paperFraction float64
	}{
		{"AMS-IX", 639, 518082, 11161624, 0.0988},
		{"DE-CIX", 580, 518391, 30934525, 0.1364},
		{"LINX", 496, 503392, 16658819, 0.1267},
	}
	var rows []Table1Row
	for i, sp := range specs {
		peers := sp.peers / scale
		if peers < 10 {
			peers = 10
		}
		prefixes := sp.prefixes / scale
		updates := sp.updates / scale
		x := workload.NewIXP(workload.DefaultTopology(peers, prefixes, seed+int64(i)))
		tr := workload.GenerateTrace(x, workload.TraceConfig{
			Seed: seed + int64(i), Updates: updates,
			UpdatedFraction: sp.paperFraction, WithdrawFraction: 0.2,
		})
		st := tr.Stats(prefixes)
		rows = append(rows, Table1Row{
			Name:            sp.name,
			Peers:           peers,
			Prefixes:        prefixes,
			Updates:         st.Updates,
			PaperUpdates:    sp.updates,
			UpdatedFraction: st.UpdatedFraction,
			PaperFraction:   sp.paperFraction,
			BurstP75:        st.BurstP75,
			MedianGap:       st.InterArrivalP50,
		})
	}
	return rows
}

// --- Figure 6: prefix groups vs prefixes ------------------------------------

// Fig6Point is one (prefixes with policies, resulting prefix groups)
// sample for a participant count.
type Fig6Point struct {
	Participants int
	Prefixes     int
	Groups       int
}

// Fig6 reproduces §6.2's prefix-group experiment: the top N participants
// by announcement count have their announced-prefix sets intersected with
// a random sample of x policy prefixes, and the minimum disjoint subsets
// are computed over the intersections. The group count should grow
// sub-linearly in x.
func Fig6(participants []int, prefixSteps []int, totalPrefixes int, seed int64) []Fig6Point {
	var out []Fig6Point
	for _, n := range participants {
		x := workload.NewIXP(workload.DefaultTopology(n, totalPrefixes, seed))
		top := x.TopAnnouncers()
		rng := x.Rand()
		universe := append([]iputil.Prefix(nil), x.Prefixes...)
		rng.Shuffle(len(universe), func(i, j int) { universe[i], universe[j] = universe[j], universe[i] })

		// Default next hop per prefix: its first announcer (the route
		// server's best, with every path length equal).
		defaultAS := make(map[iputil.Prefix]uint32)
		for i := range x.Participants {
			p := &x.Participants[i]
			for _, q := range p.Prefixes {
				if _, ok := defaultAS[q]; !ok {
					defaultAS[q] = p.AS
				}
			}
		}

		for _, step := range prefixSteps {
			if step > len(universe) {
				step = len(universe)
			}
			px := make(map[iputil.Prefix]bool, step)
			for _, q := range universe[:step] {
				px[q] = true
			}
			sets := make([][]iputil.Prefix, 0, len(top))
			for _, p := range top {
				var s []iputil.Prefix
				for _, q := range p.Prefixes {
					if px[q] {
						s = append(s, q)
					}
				}
				if len(s) > 0 {
					sets = append(sets, s)
				}
			}
			groups := core.MinDisjointSubsets(sets, func(q iputil.Prefix) uint32 { return defaultAS[q] })
			out = append(out, Fig6Point{Participants: n, Prefixes: step, Groups: len(groups)})
		}
	}
	return out
}

// --- Figures 7 and 8: rules and compile time vs prefix groups ---------------

// Fig78Point is one sample of the rules (Fig 7) and initial compilation
// time (Fig 8) experiments.
type Fig78Point struct {
	Participants int
	Groups       int // requested prefix groups
	GroupsActual int
	Rules        int
	CompileTime  time.Duration
	VNHCompute   time.Duration // included in CompileTime; grouping only
}

// NewGroupedExchange loads an IXP and installs the §6.1 policy mix plus
// exactly `groups` single-prefix outbound terms so that the compiled
// exchange has a controlled number of prefix groups: the workload behind
// the Fig 7–10 experiments and the benchmarks.
func NewGroupedExchange(participants, groups int, seed int64) (*core.Controller, *workload.IXP, error) {
	prefixes := groups * 2
	if prefixes < 1000 {
		prefixes = 1000
	}
	x := workload.NewIXP(workload.DefaultTopology(participants, prefixes, seed))
	ctrl, err := workload.Load(x)
	if err != nil {
		return nil, nil, err
	}

	// Base §6.1 inbound mix (inbound policies don't create groups).
	pols := workload.AssignPolicies(x, workload.DefaultPolicyMix(seed))
	for _, p := range pols {
		p.Out = nil
	}

	// Outbound terms pinned to distinct prefixes create one group each.
	rng := x.Rand()
	announcedBy := make(map[iputil.Prefix]uint32)
	for i := range x.Participants {
		for _, q := range x.Participants[i].Prefixes {
			announcedBy[q] = x.Participants[i].AS
		}
	}
	all := append([]iputil.Prefix(nil), x.Prefixes...)
	rng.Shuffle(len(all), func(i, j int) { all[i], all[j] = all[j], all[i] })
	senders := x.TopAnnouncers()
	// As in §6.1, the same popular destinations attract policies from
	// several sources, so the per-group rule count (and the Fig 7/9
	// slope) grows with the participant count.
	sendersPerPrefix := participants / 50
	if sendersPerPrefix < 1 {
		sendersPerPrefix = 1
	}
	added := 0
	cursor := 0
	for _, q := range all {
		if added >= groups {
			break
		}
		owner := announcedBy[q]
		if owner == 0 {
			continue
		}
		installed := 0
		for k := 0; k < len(senders) && installed < sendersPerPrefix; k++ {
			sender := senders[cursor%len(senders)]
			cursor++
			if sender.AS == owner {
				continue
			}
			p := pols[sender.AS]
			if p == nil {
				p = &workload.Policies{}
				pols[sender.AS] = p
			}
			m := pkt.MatchAll.DstIP(q).DstPort([]uint16{80, 443}[added%2])
			p.Out = append(p.Out, core.Fwd(m, owner))
			installed++
		}
		if installed > 0 {
			added++
		}
	}
	if err := workload.InstallPolicies(ctrl, pols); err != nil {
		return nil, nil, err
	}
	return ctrl, x, nil
}

// Fig78 measures installed rules and initial compilation time as the
// number of prefix groups grows, for several participant counts.
func Fig78(participants []int, groupSteps []int, seed int64) ([]Fig78Point, error) {
	var out []Fig78Point
	for _, n := range participants {
		for _, g := range groupSteps {
			ctrl, _, err := NewGroupedExchange(n, g, seed)
			if err != nil {
				return nil, err
			}
			// Compile twice and keep the faster run: the first pass pays
			// one-off allocator warm-up that is noise, not pipeline cost.
			rep := ctrl.Recompile()
			rep2 := ctrl.Recompile()
			if rep2.Elapsed < rep.Elapsed {
				rep.Elapsed = rep2.Elapsed
			}
			out = append(out, Fig78Point{
				Participants: n,
				Groups:       g,
				GroupsActual: rep.Groups,
				Rules:        rep.Rules,
				CompileTime:  rep.Elapsed,
			})
		}
	}
	return out, nil
}

// --- Figure 9: additional rules per BGP burst -------------------------------

// Fig9Point is one (burst size, additional fast-band rules) sample.
type Fig9Point struct {
	Participants    int
	BurstSize       int
	AdditionalRules int
}

// Fig9 measures the worst-case fast-path rule overhead: every update in
// the burst changes the best path of a distinct policy-covered prefix, so
// each forces a fresh per-prefix VNH (§4.3.2, Figure 9).
func Fig9(participants []int, burstSizes []int, groups int, seed int64) ([]Fig9Point, error) {
	var out []Fig9Point
	for _, n := range participants {
		ctrl, x, err := NewGroupedExchange(n, groups, seed)
		if err != nil {
			return nil, err
		}
		ctrl.Recompile()

		// Collect policy-covered prefixes (the grouped ones).
		comp := ctrl.Compiled()
		var covered []iputil.Prefix
		for q := range comp.GroupIdx {
			covered = append(covered, q)
		}
		sort.Slice(covered, func(i, j int) bool { return covered[i].Compare(covered[j]) < 0 })
		announcedBy := make(map[iputil.Prefix]uint32)
		for i := range x.Participants {
			for _, q := range x.Participants[i].Prefixes {
				announcedBy[q] = x.Participants[i].AS
			}
		}

		for _, size := range burstSizes {
			ctrl.Recompile() // clear the fast band between bursts
			additional := 0
			for i := 0; i < size && i < len(covered); i++ {
				q := covered[i]
				peer := announcedBy[q]
				res := reannounce(ctrl, x, peer, q, uint32(1000+i))
				additional += res.AdditionalRules
			}
			out = append(out, Fig9Point{Participants: n, BurstSize: size, AdditionalRules: additional})
		}
	}
	return out, nil
}

// --- Figure 10: per-update processing time ----------------------------------

// Fig10Result is the distribution of single-update fast-path times.
type Fig10Result struct {
	Participants int
	Times        []time.Duration // sorted ascending
}

// Percentile returns the p-quantile (0..1) of the distribution.
func (r *Fig10Result) Percentile(p float64) time.Duration {
	if len(r.Times) == 0 {
		return 0
	}
	i := int(p * float64(len(r.Times)))
	if i >= len(r.Times) {
		i = len(r.Times) - 1
	}
	return r.Times[i]
}

// Fig10 measures the time to process single BGP updates through the fast
// path for several participant counts.
func Fig10(participants []int, updates, groups int, seed int64) ([]Fig10Result, error) {
	var out []Fig10Result
	for _, n := range participants {
		ctrl, x, err := NewGroupedExchange(n, groups, seed)
		if err != nil {
			return nil, err
		}
		ctrl.Recompile()
		comp := ctrl.Compiled()
		var covered []iputil.Prefix
		for q := range comp.GroupIdx {
			covered = append(covered, q)
		}
		sort.Slice(covered, func(i, j int) bool { return covered[i].Compare(covered[j]) < 0 })
		announcedBy := make(map[iputil.Prefix]uint32)
		for i := range x.Participants {
			for _, q := range x.Participants[i].Prefixes {
				announcedBy[q] = x.Participants[i].AS
			}
		}

		res := Fig10Result{Participants: n}
		for i := 0; i < updates; i++ {
			q := covered[i%len(covered)]
			ur := reannounce(ctrl, x, announcedBy[q], q, uint32(2000+i))
			res.Times = append(res.Times, ur.Elapsed)
			if (i+1)%200 == 0 {
				ctrl.Recompile() // periodic background optimization
			}
		}
		sort.Slice(res.Times, func(i, j int) bool { return res.Times[i] < res.Times[j] })
		out = append(out, res)
	}
	return out, nil
}

// reannounce re-advertises prefix q from peer with a fresh AS path so the
// best route (and hence the VNH) changes.
func reannounce(ctrl *core.Controller, x *workload.IXP, peer uint32, q iputil.Prefix, salt uint32) core.UpdateResult {
	nh := iputil.Addr(peer)
	if wp := x.Participant(peer); wp != nil && len(wp.Ports) > 0 {
		nh = wp.Ports[0].IP()
	}
	return ctrl.ApplyBatch(rs.PeerUpdate{From: peer, Update: &bgp.Update{
		Attrs: &bgp.PathAttrs{ASPath: []uint32{peer, 900 + salt%100, 800 + salt%50}, NextHop: nh},
		NLRI:  []iputil.Prefix{q},
	}})
}

// Render helpers ------------------------------------------------------------

// FormatDuration renders a duration with millisecond precision.
func FormatDuration(d time.Duration) string {
	return fmt.Sprintf("%.3fms", float64(d.Microseconds())/1000)
}
