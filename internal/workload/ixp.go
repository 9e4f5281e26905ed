// Package workload synthesizes the evaluation inputs of the paper's §6:
// IXP topologies with realistic participant and prefix-announcement
// distributions (modeled on AMS-IX / DE-CIX / LINX), the §6.1 policy mix
// across eyeball, transit and content participants, and BGP update traces
// matching the burst-size and inter-arrival statistics of Table 1.
// All generators are deterministic given a seed.
package workload

import (
	"fmt"
	"math"
	"math/rand"
	"sort"

	"sdx/internal/core"
	"sdx/internal/iputil"
	"sdx/internal/pkt"
)

// Category classifies a participant for policy assignment (§6.1).
type Category int

// Participant categories.
const (
	Eyeball Category = iota
	Transit
	Content
)

func (c Category) String() string {
	switch c {
	case Eyeball:
		return "eyeball"
	case Transit:
		return "transit"
	default:
		return "content"
	}
}

// Participant is one synthesized IXP member.
type Participant struct {
	AS       uint32
	Name     string
	Ports    []core.PhysicalPort
	Category Category
	Prefixes []iputil.Prefix // announced prefixes
}

// IXP is a synthesized exchange point.
type IXP struct {
	Participants []Participant
	Prefixes     []iputil.Prefix // all announced prefixes, sorted
	rng          *rand.Rand
}

// TopologyConfig controls IXP synthesis.
type TopologyConfig struct {
	Seed         int64
	Participants int
	Prefixes     int
	// MultiPortFraction is the fraction of participants with two fabric
	// ports (large IXPs commonly dual-home big members).
	MultiPortFraction float64
}

// DefaultTopology mirrors the paper's experimental setup for n
// participants and m prefixes.
func DefaultTopology(n, m int, seed int64) TopologyConfig {
	return TopologyConfig{Seed: seed, Participants: n, Prefixes: m, MultiPortFraction: 0.2}
}

// NewIXP synthesizes an exchange. The prefix-announcement distribution is
// heavily skewed, as at AMS-IX: roughly 1% of participants announce half
// of the prefixes, and the bottom 90% together announce only a few
// percent. Participant categories follow a typical IXP mix (half
// eyeball, a third transit, the rest content).
func NewIXP(cfg TopologyConfig) *IXP {
	rng := rand.New(rand.NewSource(cfg.Seed))
	ixp := &IXP{rng: rng}

	// Allocate distinct /24s from 16.0.0.0 upward, avoiding the
	// exchange's own 172.x ranges.
	prefixes := make([]iputil.Prefix, cfg.Prefixes)
	for i := range prefixes {
		base := uint32(0x10_00_00_00) + uint32(i)<<8
		prefixes[i] = iputil.NewPrefix(iputil.Addr(base), 24)
	}
	ixp.Prefixes = append([]iputil.Prefix(nil), prefixes...)

	// Zipf-like announcement weights: participant ranked r gets weight
	// proportional to 1/(r+1)^1.6, which concentrates announcements in
	// the top ~1% like the published AMS-IX distribution.
	weights := make([]float64, cfg.Participants)
	totalW := 0.0
	for r := range weights {
		weights[r] = 1.0 / math.Pow(float64(r+1), 1.6)
		totalW += weights[r]
	}

	nextPort := pkt.PortID(1)
	for i := 0; i < cfg.Participants; i++ {
		p := Participant{
			AS:   uint32(65000 + i),
			Name: fmt.Sprintf("AS%d", 65000+i),
		}
		ports := 1
		if rng.Float64() < cfg.MultiPortFraction {
			ports = 2
		}
		for j := 0; j < ports; j++ {
			p.Ports = append(p.Ports, core.PhysicalPort{ID: nextPort})
			nextPort++
		}
		switch {
		case rng.Float64() < 0.5:
			p.Category = Eyeball
		case rng.Float64() < 0.6:
			p.Category = Transit
		default:
			p.Category = Content
		}
		ixp.Participants = append(ixp.Participants, p)
	}

	// Assign each prefix to an announcing participant by weight; a
	// second participant co-announces ~30% of prefixes (route diversity,
	// so withdrawals have fallbacks).
	pick := func() int {
		x := rng.Float64() * totalW
		for r, w := range weights {
			x -= w
			if x <= 0 {
				return r
			}
		}
		return len(weights) - 1
	}
	for _, pfx := range prefixes {
		first := pick()
		ixp.Participants[first].Prefixes = append(ixp.Participants[first].Prefixes, pfx)
		if rng.Float64() < 0.3 {
			second := pick()
			if second != first {
				ixp.Participants[second].Prefixes = append(ixp.Participants[second].Prefixes, pfx)
			}
		}
	}
	for i := range ixp.Participants {
		ps := ixp.Participants[i].Prefixes
		sort.Slice(ps, func(a, b int) bool { return ps[a].Compare(ps[b]) < 0 })
	}
	return ixp
}

// ByCategory returns participants of one category, ordered by descending
// announced-prefix count (the §6.1 "top N%" selections).
func (x *IXP) ByCategory(c Category) []*Participant {
	var out []*Participant
	for i := range x.Participants {
		if x.Participants[i].Category == c {
			out = append(out, &x.Participants[i])
		}
	}
	sort.Slice(out, func(i, j int) bool {
		if len(out[i].Prefixes) != len(out[j].Prefixes) {
			return len(out[i].Prefixes) > len(out[j].Prefixes)
		}
		return out[i].AS < out[j].AS
	})
	return out
}

// TopAnnouncers returns all participants ordered by descending announced
// prefix count.
func (x *IXP) TopAnnouncers() []*Participant {
	out := make([]*Participant, len(x.Participants))
	for i := range x.Participants {
		out[i] = &x.Participants[i]
	}
	sort.Slice(out, func(i, j int) bool {
		if len(out[i].Prefixes) != len(out[j].Prefixes) {
			return len(out[i].Prefixes) > len(out[j].Prefixes)
		}
		return out[i].AS < out[j].AS
	})
	return out
}

// Participant returns the member with the given AS.
func (x *IXP) Participant(as uint32) *Participant {
	for i := range x.Participants {
		if x.Participants[i].AS == as {
			return &x.Participants[i]
		}
	}
	return nil
}

// nextHop is the next hop a trace announcement from peer carries: the
// participant's first port IP, or the AS number as an address for a
// participant without ports.
func (x *IXP) nextHop(peer uint32) iputil.Addr {
	if p := x.Participant(peer); p != nil && len(p.Ports) > 0 {
		return p.Ports[0].IP()
	}
	return iputil.Addr(peer)
}

// Rand exposes the topology's seeded RNG for downstream generators that
// want a correlated stream.
func (x *IXP) Rand() *rand.Rand { return x.rng }
