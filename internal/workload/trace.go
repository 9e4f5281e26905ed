package workload

import (
	"math/rand"
	"sort"
	"time"

	"sdx/internal/bgp"
	"sdx/internal/iputil"
)

// TraceEvent is one BGP update in a synthesized trace.
type TraceEvent struct {
	At     time.Duration // offset from trace start (simulated time)
	Peer   uint32        // advertising participant
	Update *bgp.Update
}

// Trace is a synthesized BGP update trace with the §4.3.2 / Table 1
// statistical shape: updates arrive in bursts; 75% of bursts touch at
// most three prefixes; burst inter-arrival times exceed 10 seconds 75% of
// the time and one minute half of the time; only 10–14% of prefixes see
// any update over the whole trace.
type Trace struct {
	Events []TraceEvent
	Bursts []int // prefixes touched per burst, in order
}

// TraceConfig controls synthesis.
type TraceConfig struct {
	Seed int64
	// Updates is the total number of UPDATE messages to generate.
	Updates int
	// UpdatedFraction is the fraction of the IXP's prefixes eligible for
	// updates (Table 1 measures 9.9–13.6%).
	UpdatedFraction float64
	// WithdrawFraction is the fraction of updates that are withdrawals
	// (each later re-announced by the same peer).
	WithdrawFraction float64
}

// DefaultTrace mirrors the week-long RIPE traces of Table 1, scaled to
// the requested update count.
func DefaultTrace(updates int, seed int64) TraceConfig {
	return TraceConfig{Seed: seed, Updates: updates, UpdatedFraction: 0.12, WithdrawFraction: 0.2}
}

// GenerateTrace synthesizes a trace against an IXP topology. Updates
// target only the eligible subset of prefixes and are attributed to a
// participant that announces the prefix.
func GenerateTrace(x *IXP, cfg TraceConfig) *Trace {
	rng := rand.New(rand.NewSource(cfg.Seed))
	tr := &Trace{}

	// Eligible prefixes and their announcers.
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
	rng.Shuffle(len(eligible), func(i, j int) { eligible[i], eligible[j] = eligible[j], eligible[i] })
	n := int(float64(len(eligible)) * cfg.UpdatedFraction)
	if n < 1 {
		n = 1
	}
	if n > len(eligible) {
		n = len(eligible)
	}
	eligible = eligible[:n]

	now := time.Duration(0)
	emitted := 0
	for emitted < cfg.Updates {
		// Burst inter-arrival: half the bursts are > 1 min apart, a
		// quarter 10–60 s, a quarter < 10 s (§4.3.2).
		switch r := rng.Float64(); {
		case r < 0.52:
			now += time.Duration(61+rng.Intn(540)) * time.Second
		case r < 0.76:
			now += time.Duration(10+rng.Intn(50)) * time.Second
		default:
			now += time.Duration(100+rng.Intn(9900)) * time.Millisecond
		}
		// Burst size: 75% ≤ 3 prefixes, heavy tail beyond.
		var size int
		switch r := rng.Float64(); {
		case r < 0.78:
			size = 1 + rng.Intn(3)
		case r < 0.95:
			size = 4 + rng.Intn(17)
		case r < 0.999:
			size = 21 + rng.Intn(180)
		default:
			size = 1000 + rng.Intn(500)
		}
		if size > cfg.Updates-emitted {
			size = cfg.Updates - emitted
		}
		tr.Bursts = append(tr.Bursts, size)
		for i := 0; i < size; i++ {
			q := eligible[rng.Intn(len(eligible))]
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
			now += time.Duration(rng.Intn(50)) * time.Millisecond
			emitted++
		}
	}
	return tr
}

// Stats summarizes a trace for the Table 1 comparison.
type TraceStats struct {
	Updates         int
	PrefixesUpdated int
	UpdatedFraction float64 // vs. the universe size passed in
	Bursts          int
	BurstP75        int // 75th percentile burst size
	MaxBurst        int
	InterArrivalP25 time.Duration // 25th percentile burst inter-arrival
	InterArrivalP50 time.Duration
	Duration        time.Duration
}

// Stats computes trace statistics against a prefix universe of the given
// size.
func (t *Trace) Stats(universe int) TraceStats {
	s := TraceStats{Updates: len(t.Events), Bursts: len(t.Bursts)}
	seen := map[iputil.Prefix]bool{}
	for _, e := range t.Events {
		for _, q := range e.Update.Withdrawn {
			seen[q] = true
		}
		for _, q := range e.Update.NLRI {
			seen[q] = true
		}
	}
	s.PrefixesUpdated = len(seen)
	if universe > 0 {
		s.UpdatedFraction = float64(len(seen)) / float64(universe)
	}
	if len(t.Events) > 0 {
		s.Duration = t.Events[len(t.Events)-1].At
	}
	if len(t.Bursts) > 0 {
		bs := append([]int(nil), t.Bursts...)
		sort.Ints(bs)
		s.BurstP75 = bs[len(bs)*3/4]
		s.MaxBurst = bs[len(bs)-1]
	}
	// Burst start times: first event of each burst.
	var starts []time.Duration
	idx := 0
	for _, size := range t.Bursts {
		if idx < len(t.Events) {
			starts = append(starts, t.Events[idx].At)
		}
		idx += size
	}
	if len(starts) > 1 {
		gaps := make([]time.Duration, 0, len(starts)-1)
		for i := 1; i < len(starts); i++ {
			gaps = append(gaps, starts[i]-starts[i-1])
		}
		sort.Slice(gaps, func(i, j int) bool { return gaps[i] < gaps[j] })
		s.InterArrivalP25 = gaps[len(gaps)/4]
		s.InterArrivalP50 = gaps[len(gaps)/2]
	}
	return s
}
