package pkt

import "math/bits"

// CoverIndex answers "which earlier matches cover this one?" over a
// sequence of matches that the caller stores, without scanning them all.
//
// A match m covers a query q only if m's present fields are a subset of
// q's and m's exact (non-prefix) fields equal q's, so inserted matches are
// bucketed by (present mask, values of the exact fields in it). A query
// visits the subsets of its own mask that some inserted match has, probes
// the one bucket each subset names, and confirms every candidate with
// Covers: a hash collision costs time, never a wrong answer. The prefix
// fields take part only through the mask.
//
// The index copies no matches. Inserts are numbered 0, 1, 2, ... and the
// index reads the match of id i back through the caller's accessor, so
// at(i) must keep returning the match inserted as id i.
type CoverIndex struct {
	at    func(id int32) *Match
	shift uint8                         // 64 - log2(len(heads))
	heads []int32                       // bucket -> 1 + first id of its chain; 0 = empty
	next  []int32                       // id -> 1 + next id of its chain; 0 = end
	n     int32                         // inserts so far
	union uint16                        // union of inserted present masks
	masks [(1 << NumFields) / 64]uint64 // bitset of inserted present masks
}

// NewCoverIndex returns an index for at most n inserts. buf is scratch
// for the chains: the index takes the least power of two >= 2n (at least
// 2) plus n int32s, from buf when it has the capacity, so a [128]int32
// serves n <= 32 without allocating.
func NewCoverIndex(n int, buf []int32, at func(id int32) *Match) CoverIndex {
	size := 2
	for size < 2*n {
		size <<= 1
	}
	if cap(buf) < size+n {
		buf = make([]int32, size+n)
	}
	buf = buf[:size+n]
	clear(buf[:size])
	return CoverIndex{
		at:    at,
		shift: uint8(64 - bits.TrailingZeros(uint(size))),
		heads: buf[:size],
		next:  buf[size:],
	}
}

// Insert adds m as the next id. At most n matches may be inserted.
func (x *CoverIndex) Insert(m *Match) {
	b := x.bucket(m, m.present)
	x.next[x.n] = x.heads[b]
	x.n++
	x.heads[b] = x.n
	x.union |= m.present
	x.masks[m.present/64] |= 1 << (m.present % 64)
}

// Find calls yield with the id of every inserted match that covers q,
// until yield returns false. Ids come in no particular order.
func (x *CoverIndex) Find(q *Match, yield func(id int32) bool) {
	// Every inserted mask lies inside union, so only the subsets of
	// q.present & union can name a bucket.
	sub := q.present & x.union
	for s := sub; ; s = (s - 1) & sub {
		if x.masks[s/64]&(1<<(s%64)) != 0 {
			for e := x.heads[x.bucket(q, s)]; e != 0; e = x.next[e-1] {
				if m := x.at(e - 1); m.present == s && m.Covers(*q) && !yield(e-1) {
					return
				}
			}
		}
		if s == 0 {
			return
		}
	}
}

// bucket hashes mask s and m's values of the exact fields in s.
func (x *CoverIndex) bucket(m *Match, s uint16) uint64 {
	const k = 0x9e3779b97f4a7c15
	h := uint64(s) * k
	mix := func(f Field, v uint64) {
		if s&(1<<f) != 0 {
			h = (h ^ v) * k
		}
	}
	mix(FInPort, uint64(m.inPort))
	mix(FSrcMAC, uint64(m.srcMAC))
	mix(FDstMAC, uint64(m.dstMAC))
	mix(FEthType, uint64(m.ethType))
	mix(FProto, uint64(m.proto))
	mix(FSrcPort, uint64(m.srcPort))
	mix(FDstPort, uint64(m.dstPort))
	return (h ^ h>>29) >> x.shift
}
