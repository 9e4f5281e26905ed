package core

import "sdx/internal/policy"

// CompileParallel runs the same §4 pipeline as Compile with the policy
// compilation fanned out across pc's worker pool: stage 2 and the two
// band heads compile concurrently, and inside each the per-participant
// policies fan out again. The front half (group) is the serial compiler's
// own — one Adj-RIB-In reading, VNH/VMAC assignment strictly in group
// order — so the output is byte-identical to Compile's, only wall-clock
// time differs.
func (c *compiler) CompileParallel(pc *policy.ParallelCompiler) *Compiled {
	out, owners, sets, setGroups := c.group()
	pc.DisableConcat = c.opts.DisableConcat
	c.assemble(out, owners, sets, setGroups, pc.Compile, true)
	return out
}
