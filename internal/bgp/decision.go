package bgp

// The BGP decision process (RFC 4271 §9.1, simplified to the steps an IXP
// route server applies): highest local preference, shortest AS path,
// lowest origin, lowest MED (compared only between routes from the same
// neighboring AS), and finally lowest router ID / peer AS as a
// deterministic tie-break.

// defaultLocalPref is applied to routes without a LOCAL_PREF attribute.
const defaultLocalPref = 100

// Better reports whether route a is preferred over route b. Both must be
// for the same prefix; nil routes lose to non-nil routes.
func Better(a, b *Route) bool {
	if a == nil {
		return false
	}
	if b == nil {
		return true
	}
	la, lb := effectiveLocalPref(a.Attrs), effectiveLocalPref(b.Attrs)
	if la != lb {
		return la > lb
	}
	if pa, pb := a.Attrs.PathLen(), b.Attrs.PathLen(); pa != pb {
		return pa < pb
	}
	if a.Attrs.Origin != b.Attrs.Origin {
		return a.Attrs.Origin < b.Attrs.Origin
	}
	// MED is comparable only between routes learned from the same
	// neighboring AS (the first AS in the path).
	if a.Attrs.FirstAS() == b.Attrs.FirstAS() {
		ma, mb := effectiveMED(a.Attrs), effectiveMED(b.Attrs)
		if ma != mb {
			return ma < mb
		}
	}
	if a.PeerID != b.PeerID {
		return a.PeerID < b.PeerID
	}
	return a.PeerAS < b.PeerAS
}

func effectiveLocalPref(a *PathAttrs) uint32 {
	if a.HasLocalPref {
		return a.LocalPref
	}
	return defaultLocalPref
}

func effectiveMED(a *PathAttrs) uint32 {
	if a.HasMED {
		return a.MED
	}
	return 0
}

// Best returns the preferred route among candidates (nil for none) using
// the "deterministic MED" procedure real BGP implementations adopt:
// candidates are first grouped by neighboring AS and the best of each
// group chosen (where MED is comparable), then the group winners compete
// without MED. Pairwise Better alone is not transitive across neighbor
// groups — the classic MED ordering anomaly — so this two-phase scan is
// what makes the outcome independent of candidate order. The groups live
// in a small stack buffer: candidate lists are short, so a linear search
// for the group beats a map and allocates nothing.
func Best(candidates []*Route) *Route {
	var buf [8]*Route
	winners := buf[:0]
	for _, r := range candidates {
		if r == nil {
			continue
		}
		i := 0
		for i < len(winners) && winners[i].Attrs.FirstAS() != r.Attrs.FirstAS() {
			i++
		}
		if i == len(winners) {
			winners = append(winners, r)
		} else if Better(r, winners[i]) {
			winners[i] = r
		}
	}
	var best *Route
	for _, r := range winners {
		if betterIgnoringMED(r, best) {
			best = r
		}
	}
	return best
}

// betterIgnoringMED is the decision process without the MED step,
// applied between routes from different neighboring ASes.
func betterIgnoringMED(a, b *Route) bool {
	if a == nil {
		return false
	}
	if b == nil {
		return true
	}
	la, lb := effectiveLocalPref(a.Attrs), effectiveLocalPref(b.Attrs)
	if la != lb {
		return la > lb
	}
	if pa, pb := a.Attrs.PathLen(), b.Attrs.PathLen(); pa != pb {
		return pa < pb
	}
	if a.Attrs.Origin != b.Attrs.Origin {
		return a.Attrs.Origin < b.Attrs.Origin
	}
	if a.PeerID != b.PeerID {
		return a.PeerID < b.PeerID
	}
	return a.PeerAS < b.PeerAS
}
