package pkt

import (
	"math/rand"
	"testing"

	"sdx/internal/iputil"
)

// nestedPrefix draws from a few chains of nested prefixes of mixed
// lengths, so that one random prefix often contains another.
func nestedPrefix(r *rand.Rand) iputil.Prefix {
	base := iputil.Addr(10<<24 | uint32(r.Intn(2))<<16 | uint32(r.Intn(2))<<8 | uint32(r.Intn(2)))
	return iputil.NewPrefix(base, []uint8{0, 8, 16, 23, 24, 32}[r.Intn(6)])
}

// denseMatch constrains each field with probability 1/3, over value
// domains small enough that equal exact fields and nested prefixes, and
// so covering pairs, are common.
func denseMatch(r *rand.Rand) Match {
	m := MatchAll
	set := func() bool { return r.Intn(3) == 0 }
	if set() {
		m = m.InPort(PortID(r.Intn(3)))
	}
	if set() {
		m = m.SrcMAC(MAC(r.Intn(2)))
	}
	if set() {
		m = m.DstMAC(MAC(r.Intn(3)))
	}
	if set() {
		m = m.EthType(EthTypeIPv4)
	}
	if set() {
		m = m.SrcIP(nestedPrefix(r))
	}
	if set() {
		m = m.DstIP(nestedPrefix(r))
	}
	if set() {
		m = m.Proto([]uint8{ProtoTCP, ProtoUDP}[r.Intn(2)])
	}
	if set() {
		m = m.SrcPort(uint16(r.Intn(2)))
	}
	if set() {
		m = m.DstPort([]uint16{80, 443}[r.Intn(2)])
	}
	return m
}

// TestCoverIndexFindsEveryCover: Find yields exactly the inserted matches
// that cover the query, each once, against a scan of all of them.
func TestCoverIndexFindsEveryCover(t *testing.T) {
	r := rand.New(rand.NewSource(32))
	for trial := 0; trial < 200; trial++ {
		n := 1 + r.Intn(400)
		ms := make([]Match, n)
		for i := range ms {
			ms[i] = denseMatch(r)
		}
		idx := NewCoverIndex(n, nil, func(id int32) *Match { return &ms[id] })
		for i := range ms {
			idx.Insert(&ms[i])
		}
		for probe := 0; probe < 50; probe++ {
			q := denseMatch(r)
			if probe%2 == 0 {
				q = ms[r.Intn(n)]
			}
			want := 0
			for _, m := range ms {
				if m.Covers(q) {
					want++
				}
			}
			seen := make(map[int32]bool)
			idx.Find(&q, func(id int32) bool {
				if seen[id] || !ms[id].Covers(q) {
					t.Fatalf("trial %d: Find(%v) yielded %d = %v twice or not covering", trial, q, id, ms[id])
				}
				seen[id] = true
				return true
			})
			if len(seen) != want {
				t.Fatalf("trial %d: Find(%v) yielded %d covers, scan finds %d", trial, q, len(seen), want)
			}
			if want > 1 {
				calls := 0
				idx.Find(&q, func(int32) bool { calls++; return false })
				if calls != 1 {
					t.Fatalf("Find kept yielding after false: %d calls", calls)
				}
			}
		}
	}
}
