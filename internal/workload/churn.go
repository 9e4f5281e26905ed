package workload

import (
	"math"
	"math/rand"
	"time"

	"sdx/internal/bgp"
	"sdx/internal/iputil"
)

// ChurnConfig controls sustained-churn synthesis: a steady full-rate
// update stream (no Table 1 burst gaps) whose prefix selection is skewed
// so a small hot set absorbs most of the updates — the workload shape
// that stresses ingestion throughput and rewards coalescing, as opposed
// to GenerateTrace's statistically faithful but mostly-idle replay.
type ChurnConfig struct {
	Seed int64
	// Updates is the total number of UPDATE messages to generate.
	Updates int
	// HotFraction is the fraction of eligible prefixes forming the hot
	// set (default 1%).
	HotFraction float64
	// HotShare is the fraction of updates aimed at the hot set (default
	// 80% — an ~80/1 skew, flapping-prefix heavy like real churn).
	HotShare float64
	// WithdrawFraction is the fraction of updates that are withdrawals.
	WithdrawFraction float64
	// Interval is the simulated time between consecutive updates.
	Interval time.Duration
}

// DefaultChurn is the standard sustained-churn shape: 1% of prefixes
// take 80% of the updates, one update per simulated millisecond.
func DefaultChurn(updates int, seed int64) ChurnConfig {
	return ChurnConfig{
		Seed: seed, Updates: updates,
		HotFraction: 0.01, HotShare: 0.8,
		WithdrawFraction: 0.2, Interval: time.Millisecond,
	}
}

// GenerateChurn synthesizes a sustained churn trace against an IXP
// topology. Every update targets an announced prefix and is attributed
// to one of its announcers; hot-set membership and per-update choices are
// deterministic given the seed.
func GenerateChurn(x *IXP, cfg ChurnConfig) *Trace {
	rng := rand.New(rand.NewSource(cfg.Seed))
	tr := &Trace{}

	announcers := make(map[iputil.Prefix][]uint32)
	for i := range x.Participants {
		p := &x.Participants[i]
		for _, q := range p.Prefixes {
			announcers[q] = append(announcers[q], p.AS)
		}
	}
	eligible := make([]iputil.Prefix, 0, len(x.Prefixes))
	for _, q := range x.Prefixes {
		if len(announcers[q]) > 0 {
			eligible = append(eligible, q)
		}
	}
	if len(eligible) == 0 {
		return tr
	}
	rng.Shuffle(len(eligible), func(i, j int) { eligible[i], eligible[j] = eligible[j], eligible[i] })
	hot := int(math.Ceil(float64(len(eligible)) * cfg.HotFraction))
	if hot < 1 {
		hot = 1
	}
	if hot > len(eligible) {
		hot = len(eligible)
	}
	hotSet, coldSet := eligible[:hot], eligible[hot:]

	now := time.Duration(0)
	for emitted := 0; emitted < cfg.Updates; emitted++ {
		var q iputil.Prefix
		if len(coldSet) == 0 || rng.Float64() < cfg.HotShare {
			q = hotSet[rng.Intn(len(hotSet))]
		} else {
			q = coldSet[rng.Intn(len(coldSet))]
		}
		peers := announcers[q]
		peer := peers[rng.Intn(len(peers))]
		var u *bgp.Update
		if rng.Float64() < cfg.WithdrawFraction {
			u = &bgp.Update{Withdrawn: []iputil.Prefix{q}}
		} else {
			path := []uint32{peer}
			for h := 0; h < 1+rng.Intn(3); h++ {
				path = append(path, uint32(900+rng.Intn(100)))
			}
			u = &bgp.Update{
				Attrs: &bgp.PathAttrs{ASPath: path, NextHop: x.nextHop(peer)},
				NLRI:  []iputil.Prefix{q},
			}
		}
		tr.Events = append(tr.Events, TraceEvent{At: now, Peer: peer, Update: u})
		now += cfg.Interval
	}
	tr.Bursts = []int{len(tr.Events)} // one sustained burst
	return tr
}

// ScaleProfile names a full-table-scale topology plus churn workload, the
// trace sizes behind cmd/bgpgen -profile.
type ScaleProfile struct {
	Name         string
	Participants int
	Prefixes     int
	Updates      int // churn updates driven through the controller
}

// ScaleProfiles are the named benchmark sizes, smallest first. "full" is
// the paper-extrapolated target: a full Internet routing table's worth of
// prefixes spread over 1000 participants.
var ScaleProfiles = []ScaleProfile{
	{Name: "ci", Participants: 100, Prefixes: 20_000, Updates: 40_000},
	{Name: "quarter", Participants: 250, Prefixes: 250_000, Updates: 150_000},
	{Name: "full", Participants: 1000, Prefixes: 1_000_000, Updates: 500_000},
}

// LookupScaleProfile returns the named profile, or false.
func LookupScaleProfile(name string) (ScaleProfile, bool) {
	for _, p := range ScaleProfiles {
		if p.Name == name {
			return p, true
		}
	}
	return ScaleProfile{}, false
}
