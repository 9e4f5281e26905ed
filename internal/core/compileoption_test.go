package core_test

import (
	"strings"
	"testing"

	"sdx/internal/core"
	"sdx/internal/pkt"
)

// TestCompilePolicyOption folds a policy install into Recompile and checks
// both the success and the validation-failure paths.
func TestCompilePolicyOption(t *testing.T) {
	f := newFig1(t)

	rep := f.ctrl.Recompile(core.CompilePolicy(asA, nil, []core.Term{
		core.Fwd(pkt.MatchAll.DstPort(80), asB),
	}))
	if rep.Err != nil {
		t.Fatalf("valid policy: %v", rep.Err)
	}
	if rep.Rules == 0 {
		t.Fatal("policy install should have compiled rules")
	}
	f.sendAndExpect(t, f.a, tcp(ip("50.0.0.1"), ip("11.1.1.1"), 80), f.b1)

	compiles := f.ctrl.Metrics().Counter("controller.full_compiles").Value()
	bad := f.ctrl.Recompile(core.CompilePolicy(9999, nil, nil))
	if bad.Err == nil || !strings.Contains(bad.Err.Error(), "unknown participant") {
		t.Fatalf("unknown AS should fail validation, got err=%v", bad.Err)
	}
	if bad.Rules != 0 || bad.Elapsed != 0 {
		t.Fatalf("failed pass must not compile: %+v", bad)
	}
	if got := f.ctrl.Metrics().Counter("controller.full_compiles").Value(); got != compiles {
		t.Fatalf("failed pass ran a compile: %d -> %d", compiles, got)
	}

	// A refused change refuses the whole call: the valid policy before it
	// must not be installed either.
	canon := f.ctrl.Compiled().Canonical()
	mixed := f.ctrl.Recompile(
		core.CompilePolicy(asA, nil, []core.Term{core.Fwd(pkt.MatchAll.DstPort(443), asC)}),
		core.CompilePolicy(9999, nil, nil),
	)
	if mixed.Err == nil || !strings.Contains(mixed.Err.Error(), "unknown participant") {
		t.Fatalf("unknown AS in a mixed call should fail validation, got err=%v", mixed.Err)
	}
	if f.ctrl.Dirty() {
		t.Fatal("refused call left the controller dirty: a policy was installed")
	}
	if rep := f.ctrl.Recompile(); rep.Err != nil {
		t.Fatal(rep.Err)
	}
	if got := f.ctrl.Compiled().Canonical(); got != canon {
		t.Fatal("refused call changed the compiled policy")
	}
	f.sendAndExpect(t, f.a, tcp(ip("50.0.0.1"), ip("11.1.1.1"), 80), f.b1)
}
