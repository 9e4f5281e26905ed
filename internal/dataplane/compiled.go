package dataplane

// The compiled match engine. A FlowTable's naive lookup is a linear scan
// over the priority-ordered entry list — O(rules) per packet, the
// per-packet bottleneck at production rule counts (~7k rules at 300
// participants, sdx-bench -exp fig7). This file compiles a table snapshot
// into a dispatch structure, the same classifier-to-dispatch step Open
// vSwitch performs for the paper's deployment target and P4 formalizes
// for hardware:
//
//   - a dst-prefix trie (internal/iputil.Trie) over the rules' dstIP
//     constraints: a lookup walks the packet's dstIP path and visits only
//     the buckets of prefixes that actually cover the destination;
//   - within each bucket, rules are partitioned by which of the exact
//     dispatch fields (inPort, dstMAC, ethType) they constrain — a
//     "signature" — and each signature group dispatches through an
//     exact-match map on those field values, tuple-space style;
//   - the surviving candidates (typically a handful) are checked with the
//     full Match and the winner chosen by the same deterministic
//     precedence the naive scan uses: priority descending, cookie
//     ascending, insertion sequence ascending.
//
// The engine is immutable once built and stamped with the table
// generation that produced it. It is a base, not a mirror: additive
// mutations (Add, AddBatch) leave it in place, and a lookup folds its
// answer over the add-log entries newer than its stamp (addLog.fold in
// table.go) — the same rule that revalidates a cached verdict, exact for
// the same reason. It is rebuilt only once it is older than the log's
// floor, which a destructive mutation (DeleteCookie, Replace, Flush)
// causes at once and additive ones after addLogBound entries, or on
// Precompile. Correctness is enforced differentially:
// internal/dataplane/difftest replays seeded traffic through this engine
// and the naive scan over the compiletest corpus, and FuzzCompiledLookup
// does the same on fuzzer-chosen rule sets and install sequences.

import (
	"sdx/internal/iputil"
	"sdx/internal/pkt"
)

// Signature bits: which of the exact dispatch fields a rule constrains.
const (
	sigInPort = 1 << iota
	sigDstMAC
	sigEthType
)

// sigKey is the exact-match dispatch key within one signature group.
// Fields outside the group's signature stay zero on both sides (rule and
// packet), so map equality compares only the constrained fields.
type sigKey struct {
	inPort  pkt.PortID
	dstMAC  pkt.MAC
	ethType uint16
}

// sigGroup holds the rules of one bucket that share a dispatch signature,
// keyed by their exact field values. Each slice is sorted in table
// precedence order, so the first full-match hit is the group's winner.
type sigGroup struct {
	sig uint8
	m   map[sigKey][]*FlowEntry
}

// bucket is the rule set attached to one dstIP prefix (or to no dstIP
// constraint at all), split into signature groups. A bucket never holds
// more than 8 groups (the signature power set).
type bucket struct {
	groups []sigGroup
}

// engine is one immutable compiled form of a table snapshot.
type engine struct {
	gen   uint64
	trie  iputil.Trie // dstIP prefix -> *bucket
	wild  bucket      // rules with no dstIP constraint
	rules int
}

func sigOf(m pkt.Match) uint8 {
	var sig uint8
	if m.Has(pkt.FInPort) {
		sig |= sigInPort
	}
	if m.Has(pkt.FDstMAC) {
		sig |= sigDstMAC
	}
	if m.Has(pkt.FEthType) {
		sig |= sigEthType
	}
	return sig
}

func ruleKey(m pkt.Match, sig uint8) sigKey {
	var k sigKey
	if sig&sigInPort != 0 {
		k.inPort, _ = m.GetInPort()
	}
	if sig&sigDstMAC != 0 {
		k.dstMAC, _ = m.GetDstMAC()
	}
	if sig&sigEthType != 0 {
		k.ethType, _ = m.GetEthType()
	}
	return k
}

func (b *bucket) add(e *FlowEntry) {
	sig := sigOf(e.Match)
	k := ruleKey(e.Match, sig)
	for i := range b.groups {
		if b.groups[i].sig == sig {
			b.groups[i].m[k] = append(b.groups[i].m[k], e)
			return
		}
	}
	b.groups = append(b.groups, sigGroup{sig: sig, m: map[sigKey][]*FlowEntry{k: {e}}})
}

// match scans the bucket for the packet's best matching rule and returns
// the better of it and best under table precedence. Per signature group
// it builds the packet's dispatch key, follows the exact-match map, and
// stops at the group's first full match (group slices are
// precedence-sorted).
func (b *bucket) match(p pkt.Packet, best *FlowEntry) *FlowEntry {
	for i := range b.groups {
		g := &b.groups[i]
		var k sigKey
		if g.sig&sigInPort != 0 {
			k.inPort = p.InPort
		}
		if g.sig&sigDstMAC != 0 {
			k.dstMAC = p.DstMAC
		}
		if g.sig&sigEthType != 0 {
			k.ethType = p.EthType
		}
		for _, e := range g.m[k] {
			if e.Match.Matches(p) {
				if best == nil || entryBefore(e, best) {
					best = e
				}
				break
			}
		}
	}
	return best
}

// buildEngine compiles a precedence-ordered entry snapshot. Entries with
// a dstIP constraint land in the bucket of their exact prefix; the rest
// go to the wildcard bucket. Because the snapshot is already in table
// order, every per-key slice comes out precedence-sorted.
func buildEngine(gen uint64, es []*FlowEntry) *engine {
	en := &engine{gen: gen, rules: len(es)}
	for _, e := range es {
		pfx, ok := e.Match.GetDstIP()
		if !ok {
			en.wild.add(e)
			continue
		}
		if v, found := en.trie.Get(pfx); found {
			v.(*bucket).add(e)
			continue
		}
		b := &bucket{}
		b.add(e)
		en.trie.Insert(pfx, b)
	}
	return en
}

// lookup returns the packet's winning entry, or nil for a miss. It
// consults the wildcard bucket plus the bucket of every stored prefix
// covering p.DstIP — exactly the rules whose dstIP constraint can match —
// and picks the global winner under entryBefore. Allocation-free.
func (en *engine) lookup(p pkt.Packet) *FlowEntry {
	best := en.wild.match(p, nil)
	it := en.trie.Path(p.DstIP)
	for {
		_, v, ok := it.Next()
		if !ok {
			break
		}
		best = v.(*bucket).match(p, best)
	}
	return best
}
