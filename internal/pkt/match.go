package pkt

import (
	"fmt"
	"sort"
	"strings"

	"sdx/internal/iputil"
)

// Match is a conjunctive predicate over packet headers. Unset fields are
// wildcards; IP fields carry prefix constraints, all other fields are exact.
// The zero Match matches every packet. Match is a comparable value type, so
// it can key maps.
type Match struct {
	present uint16 // bitmask indexed by Field

	inPort  PortID
	srcMAC  MAC
	dstMAC  MAC
	ethType uint16
	srcIP   iputil.Prefix
	dstIP   iputil.Prefix
	proto   uint8
	srcPort uint16
	dstPort uint16
}

// MatchAll is the wildcard match.
var MatchAll = Match{}

// Has reports whether field f is constrained.
func (m Match) Has(f Field) bool { return m.present&(1<<f) != 0 }

// IsAll reports whether the match is a full wildcard.
func (m Match) IsAll() bool { return m.present == 0 }

// NumFieldsSet returns the number of constrained fields.
func (m Match) NumFieldsSet() int {
	n := 0
	for f := Field(0); f < NumFields; f++ {
		if m.Has(f) {
			n++
		}
	}
	return n
}

// Builder-style setters. Each returns a copy with the field constrained,
// so matches compose fluently: MatchAll.DstPort(80).DstIP(p).

// InPort constrains the ingress port.
func (m Match) InPort(p PortID) Match { m.inPort = p; m.present |= 1 << FInPort; return m }

// SrcMAC constrains the Ethernet source address.
func (m Match) SrcMAC(a MAC) Match { m.srcMAC = a; m.present |= 1 << FSrcMAC; return m }

// DstMAC constrains the Ethernet destination address.
func (m Match) DstMAC(a MAC) Match { m.dstMAC = a; m.present |= 1 << FDstMAC; return m }

// EthType constrains the EtherType.
func (m Match) EthType(t uint16) Match { m.ethType = t; m.present |= 1 << FEthType; return m }

// SrcIP constrains the IPv4 source to a prefix.
func (m Match) SrcIP(p iputil.Prefix) Match { m.srcIP = p; m.present |= 1 << FSrcIP; return m }

// DstIP constrains the IPv4 destination to a prefix.
func (m Match) DstIP(p iputil.Prefix) Match { m.dstIP = p; m.present |= 1 << FDstIP; return m }

// Proto constrains the IP protocol.
func (m Match) Proto(p uint8) Match { m.proto = p; m.present |= 1 << FProto; return m }

// SrcPort constrains the transport source port.
func (m Match) SrcPort(p uint16) Match { m.srcPort = p; m.present |= 1 << FSrcPort; return m }

// DstPort constrains the transport destination port.
func (m Match) DstPort(p uint16) Match { m.dstPort = p; m.present |= 1 << FDstPort; return m }

// GetSrcIP returns the source-IP prefix constraint, if present.
func (m Match) GetSrcIP() (iputil.Prefix, bool) { return m.srcIP, m.Has(FSrcIP) }

// GetSrcMAC returns the source-MAC constraint, if present.
func (m Match) GetSrcMAC() (MAC, bool) { return m.srcMAC, m.Has(FSrcMAC) }

// GetEthType returns the EtherType constraint, if present.
func (m Match) GetEthType() (uint16, bool) { return m.ethType, m.Has(FEthType) }

// GetProto returns the IP-protocol constraint, if present.
func (m Match) GetProto() (uint8, bool) { return m.proto, m.Has(FProto) }

// GetSrcPort returns the source-port constraint, if present.
func (m Match) GetSrcPort() (uint16, bool) { return m.srcPort, m.Has(FSrcPort) }

// GetDstPort returns the destination-port constraint, if present.
func (m Match) GetDstPort() (uint16, bool) { return m.dstPort, m.Has(FDstPort) }

// GetDstIP returns the destination-IP prefix constraint, if present.
func (m Match) GetDstIP() (iputil.Prefix, bool) { return m.dstIP, m.Has(FDstIP) }

// GetDstMAC returns the destination-MAC constraint, if present.
func (m Match) GetDstMAC() (MAC, bool) { return m.dstMAC, m.Has(FDstMAC) }

// GetInPort returns the ingress-port constraint, if present.
func (m Match) GetInPort() (PortID, bool) { return m.inPort, m.Has(FInPort) }

// Matches reports whether packet p satisfies every constraint.
func (m Match) Matches(p Packet) bool {
	if m.Has(FInPort) && p.InPort != m.inPort {
		return false
	}
	if m.Has(FSrcMAC) && p.SrcMAC != m.srcMAC {
		return false
	}
	if m.Has(FDstMAC) && p.DstMAC != m.dstMAC {
		return false
	}
	if m.Has(FEthType) && p.EthType != m.ethType {
		return false
	}
	if m.Has(FSrcIP) && !m.srcIP.Contains(p.SrcIP) {
		return false
	}
	if m.Has(FDstIP) && !m.dstIP.Contains(p.DstIP) {
		return false
	}
	if m.Has(FProto) && p.Proto != m.proto {
		return false
	}
	if m.Has(FSrcPort) && p.SrcPort != m.srcPort {
		return false
	}
	if m.Has(FDstPort) && p.DstPort != m.dstPort {
		return false
	}
	return true
}

// Intersect returns the conjunction of two matches, and whether it is
// non-empty. Exact fields must agree; IP prefixes intersect as prefixes.
func (m Match) Intersect(o Match) (Match, bool) {
	out := m
	for f := Field(0); f < NumFields; f++ {
		if !o.Has(f) {
			continue
		}
		if !m.Has(f) {
			out = out.copyField(o, f)
			continue
		}
		switch f {
		case FSrcIP:
			p, ok := m.srcIP.Intersect(o.srcIP)
			if !ok {
				return Match{}, false
			}
			out.srcIP = p
		case FDstIP:
			p, ok := m.dstIP.Intersect(o.dstIP)
			if !ok {
				return Match{}, false
			}
			out.dstIP = p
		default:
			if !m.fieldEqual(o, f) {
				return Match{}, false
			}
		}
	}
	return out, true
}

// Disjoint reports whether no packet can satisfy both matches.
func (m Match) Disjoint(o Match) bool {
	_, ok := m.Intersect(o)
	return !ok
}

// Overlaps reports whether some packet satisfies both matches, i.e. the
// intersection is non-empty. Overlapping rules at the same priority with
// divergent actions make forwarding nondeterministic; the verifier in
// internal/verify uses this to flag them.
func (m Match) Overlaps(o Match) bool {
	_, ok := m.Intersect(o)
	return ok
}

// Covers reports whether every packet matching o also matches m.
func (m Match) Covers(o Match) bool {
	if m.present&^o.present != 0 {
		return false // o is wider on some field m constrains
	}
	for f := Field(0); f < NumFields; f++ {
		if !m.Has(f) {
			continue
		}
		switch f {
		case FSrcIP:
			if !m.srcIP.ContainsPrefix(o.srcIP) {
				return false
			}
		case FDstIP:
			if !m.dstIP.ContainsPrefix(o.dstIP) {
				return false
			}
		default:
			if !m.fieldEqual(o, f) {
				return false
			}
		}
	}
	return true
}

func (m Match) fieldEqual(o Match, f Field) bool {
	switch f {
	case FInPort:
		return m.inPort == o.inPort
	case FSrcMAC:
		return m.srcMAC == o.srcMAC
	case FDstMAC:
		return m.dstMAC == o.dstMAC
	case FEthType:
		return m.ethType == o.ethType
	case FProto:
		return m.proto == o.proto
	case FSrcPort:
		return m.srcPort == o.srcPort
	case FDstPort:
		return m.dstPort == o.dstPort
	default:
		panic("pkt: fieldEqual on prefix field")
	}
}

func (m Match) copyField(o Match, f Field) Match {
	switch f {
	case FInPort:
		m.inPort = o.inPort
	case FSrcMAC:
		m.srcMAC = o.srcMAC
	case FDstMAC:
		m.dstMAC = o.dstMAC
	case FEthType:
		m.ethType = o.ethType
	case FSrcIP:
		m.srcIP = o.srcIP
	case FDstIP:
		m.dstIP = o.dstIP
	case FProto:
		m.proto = o.proto
	case FSrcPort:
		m.srcPort = o.srcPort
	case FDstPort:
		m.dstPort = o.dstPort
	}
	m.present |= 1 << f
	return m
}

// ClearField returns a copy with field f unconstrained.
func (m Match) ClearField(f Field) Match {
	m.present &^= 1 << f
	switch f {
	case FInPort:
		m.inPort = 0
	case FSrcMAC:
		m.srcMAC = 0
	case FDstMAC:
		m.dstMAC = 0
	case FEthType:
		m.ethType = 0
	case FSrcIP:
		m.srcIP = iputil.Prefix{}
	case FDstIP:
		m.dstIP = iputil.Prefix{}
	case FProto:
		m.proto = 0
	case FSrcPort:
		m.srcPort = 0
	case FDstPort:
		m.dstPort = 0
	}
	return m
}

// String renders the match as "match(f=v, ...)"; the wildcard renders as
// "match(*)". Fields print in a stable sorted order.
func (m Match) String() string {
	if m.IsAll() {
		return "match(*)"
	}
	var parts []string
	add := func(f Field, v string) {
		if m.Has(f) {
			parts = append(parts, f.String()+"="+v)
		}
	}
	add(FInPort, fmt.Sprint(m.inPort))
	add(FSrcMAC, m.srcMAC.String())
	add(FDstMAC, m.dstMAC.String())
	add(FEthType, fmt.Sprintf("0x%04x", m.ethType))
	add(FSrcIP, m.srcIP.String())
	add(FDstIP, m.dstIP.String())
	add(FProto, fmt.Sprint(m.proto))
	add(FSrcPort, fmt.Sprint(m.srcPort))
	add(FDstPort, fmt.Sprint(m.dstPort))
	sort.Strings(parts)
	return "match(" + strings.Join(parts, ", ") + ")"
}
