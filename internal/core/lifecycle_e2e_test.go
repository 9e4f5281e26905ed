package core_test

import (
	"sync/atomic"
	"testing"
	"time"

	"sdx/internal/bgp"
	"sdx/internal/core"
	"sdx/internal/dataplane"
	"sdx/internal/iputil"
	"sdx/internal/rs"
)

func TestRemoveParticipant(t *testing.T) {
	f := newFig1(t)
	f.setFig1Policies(t)

	// Web to p3 goes via B (policy). Remove B entirely.
	f.sendAndExpect(t, f.a, tcp(ip("50.0.0.1"), ip("13.1.1.1"), 80), f.b1)
	srv := f.ctrl.RouteServer()
	if r, ok := srv.BestRoute(asA, f.p3); !ok || r.PeerAS != asB {
		t.Fatalf("A's best route for p3 before removal: %v, want via B", r)
	}
	if _, err := f.ctrl.RemoveParticipant(asB); err != nil {
		t.Fatal(err)
	}
	if r, ok := srv.BestRoute(asA, f.p3); !ok || r.PeerAS != asC {
		t.Fatalf("removal should move A's best route for p3 to C, got %v", r)
	}
	if _, ok := f.ctrl.Participant(asB); ok {
		t.Fatal("participant should be gone")
	}

	// B's routes are withdrawn: p3 now reaches C; p1 still via C.
	f.sendAndExpect(t, f.a, tcp(ip("50.0.0.1"), ip("13.1.1.1"), 80), f.c)
	f.sendAndExpect(t, f.a, tcp(ip("50.0.0.1"), ip("11.1.1.1"), 22), f.c)

	// A full recompile with the dangling policy (A still targets B) must
	// not fail and must keep forwarding consistent.
	rep := f.ctrl.Recompile()
	if rep.Rules == 0 {
		t.Fatal("recompile produced nothing")
	}
	f.sendAndExpect(t, f.a, tcp(ip("50.0.0.1"), ip("13.1.1.1"), 80), f.c)

	if _, err := f.ctrl.RemoveParticipant(asB); err == nil {
		t.Fatal("double removal must error")
	}
}

func TestEnableCommunitiesEndToEnd(t *testing.T) {
	f := newFig1(t)
	f.ctrl.EnableCommunities(64512)
	f.setFig1Policies(t)

	// Z re-announces p5 with a "do not announce to AS A" community.
	p5 := pfx("15.0.0.0/8")
	f.z.Withdraw(p5)
	f.ctrl.ApplyBatch(rs.PeerUpdate{From: asZ, Update: &bgp.Update{
		Attrs: &bgp.PathAttrs{
			ASPath:      []uint32{asZ},
			NextHop:     core.PortIP(6),
			Communities: []uint32{0<<16 | asA},
		},
		NLRI: []iputil.Prefix{p5},
	}})
	f.ctrl.Recompile()

	// A has no route: the send fails at the FIB.
	f.clearReceived()
	if f.a.Send(tcp(ip("50.0.0.1"), ip("15.1.1.1"), 80)) {
		t.Fatal("A should have no route to p5")
	}
	// B still sees it.
	if _, ok := f.ctrl.RouteServer().BestRoute(asB, p5); !ok {
		t.Fatal("B should still have p5")
	}
}

func TestStartOptimizer(t *testing.T) {
	f := newFig1(t)
	f.setFig1Policies(t)
	stop := f.ctrl.StartOptimizer(10 * time.Millisecond)
	defer stop()

	// A withdrawal populates the fast band; the optimizer must clear it
	// without an explicit Recompile call.
	f.b1.Withdraw(f.p3)
	if f.ctrl.FastRules() == 0 {
		t.Fatal("fast band should be populated")
	}
	deadline := time.Now().Add(2 * time.Second)
	for f.ctrl.FastRules() != 0 {
		if time.Now().After(deadline) {
			t.Fatal("optimizer did not run")
		}
		time.Sleep(5 * time.Millisecond)
	}
	if f.ctrl.Dirty() {
		t.Fatal("controller should be clean after the optimizer pass")
	}
	// Forwarding stays correct afterwards.
	f.sendAndExpect(t, f.a, tcp(ip("50.0.0.1"), ip("13.1.1.1"), 80), f.c)
	stop()
}

// gateSink is a RuleSink that, once armed, blocks the first band swap
// (Replace) until released, then disarms. Only full recompiles call
// Replace — the fast path uses AddBatch — so arming it freezes exactly
// the optimizer's recompile, never the test's own update calls.
type gateSink struct {
	armed   atomic.Bool
	entered chan struct{}
	release chan struct{}
}

func newGateSink() *gateSink {
	return &gateSink{entered: make(chan struct{}), release: make(chan struct{})}
}

func (s *gateSink) AddBatch([]*dataplane.FlowEntry) {}
func (s *gateSink) DeleteCookie(uint64)             {}

func (s *gateSink) Replace(uint64, []*dataplane.FlowEntry) {
	if s.armed.CompareAndSwap(true, false) {
		s.entered <- struct{}{}
		<-s.release
	}
}

// TestStartOptimizerStopJoins pins the shutdown contract: the stop func
// returned by StartOptimizer must not return while a background recompile
// is still in flight, and after it returns the optimizer must never
// recompile again.
func TestStartOptimizerStopJoins(t *testing.T) {
	f := newFig1(t)
	f.setFig1Policies(t)
	sink := newGateSink()
	f.ctrl.AddRuleMirror(sink) // disarmed: the registration replay passes through

	stop := f.ctrl.StartOptimizer(5 * time.Millisecond)
	sink.armed.Store(true)
	f.b1.Withdraw(f.p3) // dirties the controller; next tick recompiles

	select {
	case <-sink.entered: // optimizer frozen inside Recompile
	case <-time.After(5 * time.Second):
		t.Fatal("optimizer never started a recompile")
	}

	stopped := make(chan struct{})
	go func() {
		stop()
		close(stopped)
	}()
	select {
	case <-stopped:
		t.Fatal("stop() returned while a recompile was in flight")
	case <-time.After(100 * time.Millisecond):
	}

	close(sink.release)
	select {
	case <-stopped:
	case <-time.After(5 * time.Second):
		t.Fatal("stop() did not return after the recompile finished")
	}

	// After stop, dirtying the controller must not trigger another pass.
	before := f.ctrl.Metrics().Counter("controller.full_compiles").Value()
	f.b1.Announce(f.p3, asB)
	time.Sleep(50 * time.Millisecond)
	if after := f.ctrl.Metrics().Counter("controller.full_compiles").Value(); after != before {
		t.Fatalf("optimizer recompiled after stop: %d -> %d full compiles", before, after)
	}
}
