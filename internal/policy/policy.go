// Package policy implements the SDX's Pyretic-style policy language
// (SIGCOMM'14 §3) and its compilation to prioritized match/action
// classifiers (§4): boolean match predicates, forwarding and header-rewrite
// actions, parallel (+) and sequential (>>) composition, and if-then-else.
//
// A policy denotes a function from a located packet to a set of located
// packets (empty set = drop, singleton = unicast, larger sets = multicast).
// Eval gives that denotation directly; Compile translates the policy to
// an equivalent Classifier — an ordered rule list with first-match-wins
// semantics that maps one-to-one onto OpenFlow-style flow tables.
package policy

import (
	"fmt"
	"strings"

	"sdx/internal/pkt"
)

// Policy is a node in the policy AST. Policies are immutable once built;
// nodes are created through the constructor functions, and identical
// sub-policies can be shared between compositions.
type Policy interface {
	// Eval applies the policy's denotation to one located packet.
	Eval(p pkt.Packet) []pkt.Packet
	// String renders Pyretic-like concrete syntax.
	String() string
}

// Filter passes packets matching any element of Union and drops the rest.
// An empty union drops everything; use Match(pkt.MatchAll) to pass all.
type Filter struct {
	Union []pkt.Match
}

// Match returns a filter policy passing packets that satisfy any of ms.
func Match(ms ...pkt.Match) *Filter {
	return &Filter{Union: ms}
}

// Eval implements Policy.
func (f *Filter) Eval(p pkt.Packet) []pkt.Packet {
	for _, m := range f.Union {
		if m.Matches(p) {
			return []pkt.Packet{p}
		}
	}
	return nil
}

// Covers reports whether packet p satisfies the filter's predicate.
func (f *Filter) Covers(p pkt.Packet) bool {
	for _, m := range f.Union {
		if m.Matches(p) {
			return true
		}
	}
	return false
}

func (f *Filter) String() string {
	if len(f.Union) == 0 {
		return "match(false)"
	}
	parts := make([]string, len(f.Union))
	for i, m := range f.Union {
		parts[i] = m.String()
	}
	return strings.Join(parts, " | ")
}

// Fwd forwards every packet to a port.
type Fwd struct {
	Port pkt.PortID
}

// FwdTo returns a forwarding policy.
func FwdTo(port pkt.PortID) *Fwd { return &Fwd{Port: port} }

// Eval implements Policy.
func (f *Fwd) Eval(p pkt.Packet) []pkt.Packet {
	q, _ := pkt.Output(f.Port).Apply(p)
	return []pkt.Packet{q}
}

func (f *Fwd) String() string { return fmt.Sprintf("fwd(%d)", f.Port) }

// Mod rewrites header fields and passes the packet on unchanged otherwise.
type Mod struct {
	Mods pkt.Mods
}

// Modify returns a header-rewrite policy.
func Modify(m pkt.Mods) *Mod { return &Mod{Mods: m} }

// Eval implements Policy.
func (m *Mod) Eval(p pkt.Packet) []pkt.Packet {
	return []pkt.Packet{m.Mods.Apply(p)}
}

func (m *Mod) String() string {
	if m.Mods.IsEmpty() {
		return "pass"
	}
	return m.Mods.String()
}

// Drop discards every packet.
type Drop struct{}

// DropAll returns the drop policy.
func DropAll() *Drop { return &Drop{} }

// Eval implements Policy.
func (*Drop) Eval(pkt.Packet) []pkt.Packet { return nil }

func (*Drop) String() string { return "drop" }

// Pass forwards every packet unchanged (the identity policy).
type Pass struct{}

// PassAll returns the identity policy.
func PassAll() *Pass { return &Pass{} }

// Eval implements Policy.
func (*Pass) Eval(p pkt.Packet) []pkt.Packet { return []pkt.Packet{p} }

func (*Pass) String() string { return "pass" }

// Parallel applies every sub-policy to the packet and unions the results
// (Pyretic's + operator).
type Parallel struct {
	Ps []Policy
}

// Union returns the parallel composition of ps. Degenerate cases collapse:
// zero policies is drop, one policy is itself.
func Union(ps ...Policy) Policy {
	switch len(ps) {
	case 0:
		return DropAll()
	case 1:
		return ps[0]
	}
	return &Parallel{Ps: ps}
}

// Eval implements Policy.
func (pp *Parallel) Eval(p pkt.Packet) []pkt.Packet {
	var out []pkt.Packet
	for _, sub := range pp.Ps {
		out = append(out, sub.Eval(p)...)
	}
	return out
}

func (pp *Parallel) String() string {
	parts := make([]string, len(pp.Ps))
	for i, p := range pp.Ps {
		parts[i] = "(" + p.String() + ")"
	}
	return strings.Join(parts, " + ")
}

// Sequential pipes each sub-policy's outputs into the next (Pyretic's >>).
type Sequential struct {
	Ps []Policy
}

// Seq returns the sequential composition of ps. Degenerate cases collapse:
// zero policies is pass, one policy is itself.
func Seq(ps ...Policy) Policy {
	switch len(ps) {
	case 0:
		return PassAll()
	case 1:
		return ps[0]
	}
	return &Sequential{Ps: ps}
}

// Eval implements Policy.
func (sp *Sequential) Eval(p pkt.Packet) []pkt.Packet {
	cur := []pkt.Packet{p}
	for _, sub := range sp.Ps {
		var next []pkt.Packet
		for _, q := range cur {
			next = append(next, sub.Eval(q)...)
		}
		cur = next
		if len(cur) == 0 {
			return nil
		}
	}
	return cur
}

func (sp *Sequential) String() string {
	parts := make([]string, len(sp.Ps))
	for i, p := range sp.Ps {
		parts[i] = "(" + p.String() + ")"
	}
	return strings.Join(parts, " >> ")
}

// If applies Then to packets satisfying Pred and Else to the rest
// (Pyretic's if_ operator, used by the SDX runtime to fall back to default
// BGP forwarding, §4.1).
type If struct {
	Pred *Filter
	Then Policy
	Else Policy
}

// IfThenElse builds an If node.
func IfThenElse(pred *Filter, then, els Policy) *If {
	return &If{Pred: pred, Then: then, Else: els}
}

// Eval implements Policy.
func (ip *If) Eval(p pkt.Packet) []pkt.Packet {
	if ip.Pred.Covers(p) {
		return ip.Then.Eval(p)
	}
	return ip.Else.Eval(p)
}

func (ip *If) String() string {
	return fmt.Sprintf("if(%s, %s, %s)", ip.Pred, ip.Then, ip.Else)
}
