package core

import (
	"sync"

	"sdx/internal/policy"
)

// CompileParallel runs the same §4 pipeline as Compile with the policy
// compilation fanned out across pc's worker pool: Band1 and Band2 compile
// concurrently on the shared memo cache, and inside each band the
// per-participant policies fan out again. The front half (group) is the
// serial compiler's own — one Adj-RIB-In reading, VNH/VMAC assignment
// strictly in group order — so the output is byte-identical to Compile's,
// only wall-clock time differs.
func (c *compiler) CompileParallel(pc *policy.ParallelCompiler) *Compiled {
	out, owners, sets, setGroups := c.group()

	pc.DisableCache = c.opts.DisableCache
	pc.DisableConcat = c.opts.DisableConcat
	stage2 := c.stage2Policy()
	stage1, ok1 := c.stage1Policy(ownerIndex(owners), setGroups, out.VMACs, sets)
	defaults, ok2 := c.defaultPolicy(out.Groups, out.VMACs)

	var wg sync.WaitGroup
	if ok1 {
		wg.Add(1)
		go func() {
			defer wg.Done()
			out.Band1 = finalizeBand(pc.Compile(policy.Seq(stage1, stage2)))
		}()
	}
	if ok2 {
		wg.Add(1)
		go func() {
			defer wg.Done()
			out.Band2 = finalizeBand(pc.Compile(policy.Seq(defaults, stage2)))
		}()
	}
	wg.Wait()
	out.Stats = pc.Stats()
	return out
}
