package core

// CompileOption configures one Recompile pass, mirroring the
// NewController(opts ...Option) pattern. The zero-option call
// Recompile() runs the paper's full pipeline (parallel compiler, VNH
// grouping, disjoint concatenation).
type CompileOption func(*compileConfig)

// compileConfig is the resolved form of a Recompile call's options.
type compileConfig struct {
	opts     CompileOptions
	policies []policyChange
}

// policyChange is a pending SetPolicy carried by CompilePolicy.
type policyChange struct {
	as                uint32
	inbound, outbound []Term
}

// CompileSerial forces the single-threaded reference compiler — the
// baseline the differential harness and speedup benchmarks compare the
// parallel pipeline against.
func CompileSerial() CompileOption {
	return func(cfg *compileConfig) { cfg.opts.Serial = true }
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

// WithCompileOptions applies a whole CompileOptions struct at once — the
// bridge for ablation tables that enumerate option combinations.
func WithCompileOptions(o CompileOptions) CompileOption {
	return func(cfg *compileConfig) {
		cfg.opts.NaiveDstIP = cfg.opts.NaiveDstIP || o.NaiveDstIP
		cfg.opts.DisableConcat = cfg.opts.DisableConcat || o.DisableConcat
		cfg.opts.Serial = cfg.opts.Serial || o.Serial
	}
}

// CompilePolicy installs a participant's policy before compiling, so
// "set policy and recompile" is one call:
//
//	rep := ctrl.Recompile(core.CompilePolicy(as, inbound, outbound))
//	if rep.Err != nil { ... }
//
// A validation failure aborts the pass before any compilation and is
// reported in CompileReport.Err. Several CompilePolicy options may be
// combined; they apply in order.
func CompilePolicy(as uint32, inbound, outbound []Term) CompileOption {
	return func(cfg *compileConfig) {
		cfg.policies = append(cfg.policies, policyChange{as: as, inbound: inbound, outbound: outbound})
	}
}
