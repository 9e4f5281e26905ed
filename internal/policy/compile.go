package policy

import (
	"fmt"

	"sdx/internal/pkt"
)

// Compile translates a policy into an equivalent total classifier, one
// node at a time, on the calling goroutine. It keeps no classifier
// between calls: a sub-classifier that several compositions share is
// compiled once by the caller and composed with Then. Compile reads only
// p, so concurrent calls are safe.
func Compile(p Policy) Classifier {
	switch n := p.(type) {
	case *Filter:
		return compileFilter(n)
	case *Fwd:
		return compileFwd(n)
	case *Mod:
		return compileMod(n)
	case *Drop:
		return Classifier{{Match: pkt.MatchAll}}
	case *Pass:
		return Classifier{{Match: pkt.MatchAll, Actions: []pkt.Action{pkt.Pass}}}
	case *Parallel:
		return compileParallel(n.Ps)
	case *Sequential:
		return compileSequential(n.Ps)
	case *If:
		return compileIf(n)
	default:
		panic(fmt.Sprintf("policy: unknown node type %T", p))
	}
}

func compileFilter(n *Filter) Classifier {
	cl := make(Classifier, 0, len(n.Union)+1)
	for _, m := range n.Union {
		cl = append(cl, Rule{Match: m, Actions: []pkt.Action{pkt.Pass}})
	}
	cl = append(cl, Rule{Match: pkt.MatchAll})
	return cl.Optimize()
}

func compileFwd(n *Fwd) Classifier {
	return Classifier{{Match: pkt.MatchAll, Actions: []pkt.Action{pkt.Output(n.Port)}}}
}

func compileMod(n *Mod) Classifier {
	return Classifier{{Match: pkt.MatchAll, Actions: []pkt.Action{{Mods: n.Mods, Out: pkt.OutNone}}}}
}

func compileParallel(ps []Policy) Classifier {
	if len(ps) == 0 {
		return Classifier{{Match: pkt.MatchAll}}
	}
	// Try the disjointness fast path first: if every branch compiles to a
	// guarded classifier with pairwise-disjoint in-port guards, parallel
	// composition is concatenation (§4.3.1).
	sub := make([]Classifier, len(ps))
	for i, p := range ps {
		sub[i] = Compile(p)
	}
	if len(sub) > 1 {
		if cat, ok := ConcatDisjoint(sub...); ok {
			return cat
		}
	}
	acc := sub[0]
	for _, s := range sub[1:] {
		acc = parallelCompose(acc, s)
	}
	return acc
}

func compileSequential(ps []Policy) Classifier {
	if len(ps) == 0 {
		return Classifier{{Match: pkt.MatchAll, Actions: []pkt.Action{pkt.Pass}}}
	}
	acc := Compile(ps[0])
	for _, p := range ps[1:] {
		acc = Then(acc, Compile(p))
	}
	return acc
}

// compileIf compiles if(pred, then, else) without materializing predicate
// negation: the predicate's classifier partitions flow space into
// pass-regions and drop-regions in priority order; pass-regions are crossed
// with the then-classifier and drop-regions with the else-classifier.
func compileIf(n *If) Classifier {
	pred := Compile(n.Pred)
	thenC := Compile(n.Then)
	elseC := Compile(n.Else)
	var out Classifier
	for _, pr := range pred {
		branch := elseC
		if !pr.IsDrop() {
			branch = thenC
		}
		for _, r := range branch {
			m, ok := pr.Match.Intersect(r.Match)
			if !ok {
				continue
			}
			out = append(out, Rule{Match: m, Actions: r.Actions})
		}
	}
	return out.Optimize()
}
