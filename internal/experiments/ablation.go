package experiments

import (
	"time"

	"sdx/internal/core"
)

// AblationRow reports one pipeline variant's cost on the same exchange.
type AblationRow struct {
	Mode        string
	Rules       int
	Groups      int
	CompileTime time.Duration
}

// Ablation quantifies two of the paper's scalability mechanisms by
// disabling them one at a time on the same exchange (§4.2's VNH/VMAC
// grouping, §4.3.1's disjoint-policy concatenation):
//
//   - full:       the complete pipeline
//   - no-vnh:     per-prefix destination-IP rules (data-plane blowup)
//   - no-concat:  cross-product parallel composition (control-plane cost)
//
// §4.3.1's third mechanism, memoization, has no row: the one sub-policy
// the pipeline shares, stage 2, is compiled once per pass by
// construction.
func Ablation(participants, groups int, seed int64) ([]AblationRow, error) {
	ctrl, _, err := NewGroupedExchange(participants, groups, seed)
	if err != nil {
		return nil, err
	}
	modes := []struct {
		name string
		opts []core.CompileOption
	}{
		{"full", nil},
		{"no-vnh", []core.CompileOption{core.CompileNaiveDstIP()}},
		{"no-concat", []core.CompileOption{core.CompileWithoutConcat()}},
	}
	var rows []AblationRow
	for _, m := range modes {
		// Two passes per mode; keep the faster one (allocator warm-up).
		rep := ctrl.Recompile(m.opts...)
		rep2 := ctrl.Recompile(m.opts...)
		if rep2.Elapsed < rep.Elapsed {
			rep = rep2
		}
		rows = append(rows, AblationRow{
			Mode:        m.name,
			Rules:       rep.Rules,
			Groups:      rep.Groups,
			CompileTime: rep.Elapsed,
		})
	}
	// Leave the controller in the full configuration.
	ctrl.Recompile()
	return rows, nil
}
