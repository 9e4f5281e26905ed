package core

// CompileOption configures one Recompile pass, mirroring the
// NewController(opts ...Option) pattern. The zero-option call
// Recompile() runs the paper's full pipeline (VNH grouping, disjoint
// concatenation).
type CompileOption func(*compileConfig)

// compileConfig is the resolved form of a Recompile call's options.
type compileConfig struct {
	opts     compileOptions
	policies []policyChange
}

// policyChange is a pending SetPolicy carried by CompilePolicy.
type policyChange struct {
	as                uint32
	inbound, outbound []Term
}

// CompileNaiveDstIP disables the §4.2 VNH/VMAC grouping: one rule per
// destination prefix, the naive compilation whose rule explosion
// motivates the paper's multi-stage FIB.
func CompileNaiveDstIP() CompileOption {
	return func(cfg *compileConfig) { cfg.opts.NaiveDstIP = true }
}

// CompileWithoutConcat forces full cross-product parallel composition
// even for disjoint guarded policies (§4.3.1 ablation).
func CompileWithoutConcat() CompileOption {
	return func(cfg *compileConfig) { cfg.opts.DisableConcat = true }
}

// CompilePolicy installs a participant's policy before compiling, so
// "set policy and recompile" is one call:
//
//	rep := ctrl.Recompile(core.CompilePolicy(as, inbound, outbound))
//	if rep.Err != nil { ... }
//
// Several CompilePolicy options may be combined; they apply in order.
// Every one is validated before any is installed: a validation failure
// installs none of them, aborts the pass before any compilation, and is
// reported in CompileReport.Err.
func CompilePolicy(as uint32, inbound, outbound []Term) CompileOption {
	return func(cfg *compileConfig) {
		cfg.policies = append(cfg.policies, policyChange{as: as, inbound: inbound, outbound: outbound})
	}
}
