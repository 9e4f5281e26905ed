package policy

import (
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"

	"sdx/internal/pkt"
	"sdx/internal/telemetry"
)

// ParallelCompiler translates policies to classifiers like Compiler, but
// fans independent sub-policies — the branches of parallel and sequential
// compositions, the arms of if-then-else — out across a bounded worker
// pool. Composition folds run in the same order as the serial compiler
// after all branches complete, so the output classifier is byte-identical
// to Compiler's for any policy; only wall-clock time differs.
//
// Concurrent Compile calls are safe and share the pool. Reset must not
// race with Compile (the SDX controller serializes recompilations; worker
// fan-out happens inside one Compile call).
type ParallelCompiler struct {
	sem chan struct{}

	// DisableConcat forces full cross-product parallel composition even
	// for disjoint guarded policies (§4.3.1 ablation).
	DisableConcat bool

	seqOps, parOps, busyNS atomic.Int64
}

// NewParallelCompiler returns a compiler with a pool of `workers`
// concurrent compile slots (0 or negative means GOMAXPROCS).
func NewParallelCompiler(workers int) *ParallelCompiler {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	return &ParallelCompiler{sem: make(chan struct{}, workers)}
}

// Workers returns the pool size.
func (c *ParallelCompiler) Workers() int { return cap(c.sem) }

// Stats returns a snapshot of the work counters. SeqOps and ParOps match
// the serial compiler's; BusyNS sums the time pool workers spent
// compiling fanned-out branches (inline fallbacks run on the caller's
// clock and are not counted).
func (c *ParallelCompiler) Stats() CompileStats {
	return CompileStats{
		SeqOps: int(c.seqOps.Load()),
		ParOps: int(c.parOps.Load()),
		BusyNS: c.busyNS.Load(),
	}
}

// Reset zeroes the work counters, so Stats covers the calls after it.
func (c *ParallelCompiler) Reset() {
	c.seqOps.Store(0)
	c.parOps.Store(0)
	c.busyNS.Store(0)
}

// Compile translates a policy into an equivalent total classifier.
func (c *ParallelCompiler) Compile(p Policy) Classifier {
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
		return c.buildParallel(n.Ps)
	case *Sequential:
		return c.buildSequential(n.Ps)
	case *If:
		return c.buildIf(n)
	default:
		panic(fmt.Sprintf("policy: unknown node type %T", p))
	}
}

// fanOut compiles every policy, in a pool worker per branch while slots
// are free and inline on the calling goroutine otherwise. The fallback
// keeps nested fan-outs deadlock-free: a branch that cannot get a slot
// makes progress on its parent's goroutine instead of waiting for one.
// Results are merged in input order, so downstream folds see exactly the
// serial compiler's operand order.
func (c *ParallelCompiler) fanOut(ps []Policy) []Classifier {
	sub := make([]Classifier, len(ps))
	var wg sync.WaitGroup
	for i, p := range ps {
		select {
		case c.sem <- struct{}{}:
			wg.Add(1)
			go func() {
				defer wg.Done()
				defer func() { <-c.sem }()
				t := telemetry.StartTimer(nil)
				sub[i] = c.Compile(p)
				c.busyNS.Add(int64(t.Stop()))
			}()
		default:
			sub[i] = c.Compile(p)
		}
	}
	wg.Wait()
	return sub
}

func (c *ParallelCompiler) buildParallel(ps []Policy) Classifier {
	if len(ps) == 0 {
		return Classifier{{Match: pkt.MatchAll}}
	}
	sub := c.fanOut(ps)
	if len(sub) > 1 && !c.DisableConcat {
		if cat, ok := ConcatDisjoint(sub...); ok {
			return cat
		}
	}
	acc := sub[0]
	for _, s := range sub[1:] {
		c.parOps.Add(1)
		acc = parallelCompose(acc, s)
	}
	return acc
}

func (c *ParallelCompiler) buildSequential(ps []Policy) Classifier {
	if len(ps) == 0 {
		return Classifier{{Match: pkt.MatchAll, Actions: []pkt.Action{pkt.Pass}}}
	}
	sub := c.fanOut(ps)
	acc := sub[0]
	for _, s := range sub[1:] {
		c.seqOps.Add(1)
		acc = Then(acc, s)
	}
	return acc
}

func (c *ParallelCompiler) buildIf(n *If) Classifier {
	sub := c.fanOut([]Policy{n.Pred, n.Then, n.Else})
	return composeIf(sub[0], sub[1], sub[2])
}
