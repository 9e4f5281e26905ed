package core

// CompileOption configures one Recompile pass, mirroring the
// NewController(opts ...Option) pattern. CompilePolicy is the only one.
type CompileOption func(*compileConfig)

// compileConfig is the resolved form of a Recompile call's options.
type compileConfig struct {
	policies []policyChange
}

// policyChange is a pending SetPolicy carried by CompilePolicy.
type policyChange struct {
	as                uint32
	inbound, outbound []Term
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
