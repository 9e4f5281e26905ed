package workload

import (
	"math/rand"

	"sdx/internal/bgp"
	"sdx/internal/core"
	"sdx/internal/iputil"
	"sdx/internal/pkt"
	"sdx/internal/rs"
)

// Policies is one participant's SDX policy.
type Policies struct {
	In, Out []core.Term
}

// PolicyMixConfig reproduces §6.1's assignment: the top 15% of eyeball
// ASes, the top 5% of transit ASes, and a random 5% of content ASes
// install custom policies.
type PolicyMixConfig struct {
	Seed            int64
	EyeballFraction float64 // default 0.15
	TransitFraction float64 // default 0.05
	ContentFraction float64 // default 0.05
}

// DefaultPolicyMix returns the paper's §6.1 fractions.
func DefaultPolicyMix(seed int64) PolicyMixConfig {
	return PolicyMixConfig{Seed: seed, EyeballFraction: 0.15, TransitFraction: 0.05, ContentFraction: 0.05}
}

// randHeaderMatch picks one random non-IP header field to match on, as in
// §6.1 ("match on one header field that we select at random").
func randHeaderMatch(rng *rand.Rand) pkt.Match {
	switch rng.Intn(3) {
	case 0:
		return pkt.MatchAll.DstPort([]uint16{80, 443, 8080, 53}[rng.Intn(4)])
	case 1:
		return pkt.MatchAll.SrcPort(uint16(1024 + rng.Intn(4)))
	default:
		return pkt.MatchAll.Proto([]uint8{pkt.ProtoTCP, pkt.ProtoUDP}[rng.Intn(2)])
	}
}

// AssignPolicies builds the §6.1 policy mix for a synthesized IXP. The
// returned map has an entry only for participants with custom policies.
func AssignPolicies(x *IXP, cfg PolicyMixConfig) map[uint32]*Policies {
	rng := rand.New(rand.NewSource(cfg.Seed))
	out := make(map[uint32]*Policies)
	get := func(as uint32) *Policies {
		p := out[as]
		if p == nil {
			p = &Policies{}
			out[as] = p
		}
		return p
	}

	eyeballs := x.ByCategory(Eyeball)
	transits := x.ByCategory(Transit)
	contents := x.ByCategory(Content)

	topEyeballs := eyeballs[:fracCount(len(eyeballs), cfg.EyeballFraction)]
	topTransits := transits[:fracCount(len(transits), cfg.TransitFraction)]
	// Content providers are sampled at random rather than by size.
	nContent := fracCount(len(contents), cfg.ContentFraction)
	pickedContent := make([]*Participant, len(contents))
	copy(pickedContent, contents)
	rng.Shuffle(len(pickedContent), func(i, j int) {
		pickedContent[i], pickedContent[j] = pickedContent[j], pickedContent[i]
	})
	pickedContent = pickedContent[:nContent]

	// Content providers: outbound (application-specific peering) policies
	// toward three random top eyeball networks, plus one inbound
	// redirection policy.
	for _, cp := range pickedContent {
		p := get(cp.AS)
		for i := 0; i < 3 && len(topEyeballs) > 0; i++ {
			eb := topEyeballs[rng.Intn(len(topEyeballs))]
			if eb.AS == cp.AS {
				continue
			}
			p.Out = append(p.Out, core.Fwd(randHeaderMatch(rng), eb.AS))
		}
		if len(cp.Ports) > 0 {
			p.In = append(p.In, core.FwdPort(randHeaderMatch(rng), cp.Ports[0].ID))
		}
	}

	// Eyeball networks: inbound traffic engineering for half of the
	// sampled content providers, matching one header field each.
	for _, eb := range topEyeballs {
		if len(eb.Ports) == 0 {
			continue
		}
		p := get(eb.AS)
		for i, cp := range pickedContent {
			if i%2 != 0 || cp.AS == eb.AS {
				continue
			}
			port := eb.Ports[rng.Intn(len(eb.Ports))]
			m := randHeaderMatch(rng)
			if len(cp.Prefixes) > 0 {
				m = m.SrcIP(cp.Prefixes[rng.Intn(len(cp.Prefixes))])
			}
			p.In = append(p.In, core.FwdPort(m, port.ID))
		}
	}

	// Transit providers: outbound policies for one prefix group toward
	// half of the top eyeballs, plus inbound policies proportional to the
	// content providers.
	for _, tr := range topTransits {
		p := get(tr.AS)
		for i, eb := range topEyeballs {
			if i%2 != 0 || eb.AS == tr.AS {
				continue
			}
			m := randHeaderMatch(rng)
			if len(eb.Prefixes) > 0 {
				m = m.DstIP(eb.Prefixes[rng.Intn(len(eb.Prefixes))])
			}
			p.Out = append(p.Out, core.Fwd(m, eb.AS))
		}
		for i := range pickedContent {
			if i%2 != 0 || len(tr.Ports) == 0 {
				continue
			}
			p.In = append(p.In, core.FwdPort(randHeaderMatch(rng), tr.Ports[rng.Intn(len(tr.Ports))].ID))
		}
	}

	// Drop participants that ended up with no terms (e.g. remote refs).
	for as, p := range out {
		if len(p.In) == 0 && len(p.Out) == 0 {
			delete(out, as)
		}
	}
	return out
}

func fracCount(n int, frac float64) int {
	c := int(float64(n) * frac)
	if c < 1 && n > 0 {
		c = 1
	}
	if c > n {
		c = n
	}
	return c
}

// Load installs a synthesized IXP into a fresh SDX controller:
// participants are registered and every announced prefix is fed through
// the route server (AS-path lengths vary so the decision process has real
// work). Policies are not installed; use InstallPolicies.
func Load(x *IXP) (*core.Controller, error) {
	ctrl := core.NewController()
	for i := range x.Participants {
		wp := &x.Participants[i]
		if _, err := ctrl.AddParticipant(core.ParticipantConfig{
			AS: wp.AS, Name: wp.Name, Ports: wp.Ports,
		}); err != nil {
			return nil, err
		}
	}
	rng := rand.New(rand.NewSource(x.rng.Int63()))
	for i := range x.Participants {
		wp := &x.Participants[i]
		if len(wp.Prefixes) == 0 {
			continue
		}
		// Announce in batches sharing one attribute vector, like real
		// table transfers, and feed the whole table through the batch-first
		// ingestion API in one call per participant.
		const batch = 500
		var updates []rs.PeerUpdate
		for start := 0; start < len(wp.Prefixes); start += batch {
			end := min(start+batch, len(wp.Prefixes))
			path := []uint32{wp.AS}
			for h := 0; h < rng.Intn(3); h++ {
				path = append(path, uint32(900+rng.Intn(100)))
			}
			nh := iputil.Addr(wp.AS)
			if len(wp.Ports) > 0 {
				nh = wp.Ports[0].IP()
			}
			updates = append(updates, rs.PeerUpdate{From: wp.AS, Update: &bgp.Update{
				Attrs: &bgp.PathAttrs{ASPath: path, NextHop: nh},
				NLRI:  wp.Prefixes[start:end],
			}})
		}
		ctrl.ApplyBatch(updates...)
	}
	return ctrl, nil
}

// InstallPolicies applies an AssignPolicies result to a controller
// without recompiling (call Recompile afterwards to measure Fig 8).
func InstallPolicies(ctrl *core.Controller, policies map[uint32]*Policies) error {
	for as, p := range policies {
		if err := ctrl.SetPolicy(as, p.In, p.Out); err != nil {
			return err
		}
	}
	return nil
}
