package core_test

import (
	"fmt"
	"testing"

	"sdx/internal/compiletest"
	"sdx/internal/core"
)

// TestDifferentialCorpus checks, on every workload of the differential
// corpus (compiletest.CorpusWorkload), that grouping is an optimisation:
// the forwarding outcomes of the §4.2 VNH/VMAC pipeline equal those of
// the reference RecompilePerPrefix, an independent per-prefix lowering
// that groups nothing, and a full recompilation afterwards restores
// them. Each case compares after the state the corpus reaches: the
// initial compile, then, for cases with bursts, the burst replay through
// CompileFast and a full recompilation. Determinism and soundness over
// the same corpus are compiletest's TestDifferentialSerialVsParallel.
func TestDifferentialCorpus(t *testing.T) {
	for i := 0; i < compiletest.CorpusSize; i++ {
		t.Run(fmt.Sprintf("case%03d", i), func(t *testing.T) {
			w, bursts := compiletest.CorpusWorkload(i)
			b, err := compiletest.Build(w)
			if err != nil {
				t.Fatal(err)
			}
			b.Compile()
			if bursts > 0 {
				b.Replay(b.Trace(bursts*3, w.Seed+99))
				b.Compile()
			}

			grouped := compiletest.Outcomes(b.Ctrl, 4, 6)
			core.RecompilePerPrefix(b.Ctrl)
			if err := compiletest.DiffOutcomes("grouped-vs-per-prefix forwarding", grouped, compiletest.Outcomes(b.Ctrl, 4, 6)); err != nil {
				t.Fatal(err)
			}
			b.Ctrl.Recompile()
			if err := compiletest.DiffOutcomes("restored grouped forwarding", grouped, compiletest.Outcomes(b.Ctrl, 4, 6)); err != nil {
				t.Fatal(err)
			}
		})
	}
}
