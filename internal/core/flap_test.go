package core_test

import (
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"sdx/internal/bgp"
	"sdx/internal/core"
	"sdx/internal/dataplane"
	"sdx/internal/iputil"
	"sdx/internal/pkt"
	"sdx/internal/rs"
)

// recSink records every mirror operation for assertion.
type recSink struct {
	mu  sync.Mutex
	ops []string
}

func (r *recSink) log(op string) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.ops = append(r.ops, op)
}
func (r *recSink) AddBatch([]*dataplane.FlowEntry) { r.log("add") }
func (r *recSink) Replace(cookie uint64, _ []*dataplane.FlowEntry) {
	r.log("replace")
	_ = cookie
}
func (r *recSink) DeleteCookie(uint64) { r.log("delete") }
func (r *recSink) FlushAll()           { r.log("flush") }
func (r *recSink) Ops() []string {
	r.mu.Lock()
	defer r.mu.Unlock()
	return append([]string(nil), r.ops...)
}

func newFlapController(t *testing.T, ageOut time.Duration) *core.Controller {
	t.Helper()
	ctrl := core.NewController(core.WithRouteAgeOut(ageOut))
	for i, as := range []uint32{100, 200} {
		_, err := ctrl.AddParticipant(core.ParticipantConfig{
			AS: as, Name: string(rune('A' + i)),
			Ports: []core.PhysicalPort{{ID: pkt.PortID(i + 1)}},
		})
		if err != nil {
			t.Fatal(err)
		}
	}
	return ctrl
}

func announceFrom(ctrl *core.Controller, as uint32, p iputil.Prefix) {
	ctrl.ApplyBatch(rs.PeerUpdate{From: as, Update: &bgp.Update{
		Attrs: &bgp.PathAttrs{ASPath: []uint32{as}, NextHop: iputil.Addr(as)},
		NLRI:  []iputil.Prefix{p},
	}})
}

// TestPeerDownAgesOutRoutes: a session staying down past the age-out
// loses its routes; other participants see the withdraw.
func TestPeerDownAgesOutRoutes(t *testing.T) {
	ctrl := newFlapController(t, 50*time.Millisecond)
	target := pfx("10.0.0.0/8")
	announceFrom(ctrl, 200, target)
	if _, ok := ctrl.RouteServer().BestRoute(100, target); !ok {
		t.Fatal("announcement did not take")
	}

	var mu sync.Mutex
	var withdraws int
	if _, err := ctrl.OnRoute(100, func(ad core.RouteAd) {
		if ad.Withdraw && ad.Prefix == target {
			mu.Lock()
			withdraws++
			mu.Unlock()
		}
	}); err != nil {
		t.Fatal(err)
	}

	ctrl.PeerDown(200)
	// Inside the grace window the route survives.
	if _, ok := ctrl.RouteServer().BestRoute(100, target); !ok {
		t.Fatal("route flushed before the age-out expired")
	}
	deadline := time.Now().Add(2 * time.Second)
	for {
		if _, ok := ctrl.RouteServer().BestRoute(100, target); !ok {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("route survived past the age-out")
		}
		time.Sleep(5 * time.Millisecond)
	}
	mu.Lock()
	w := withdraws
	mu.Unlock()
	if w == 0 {
		t.Fatal("age-out flushed silently: no withdraw advertised")
	}
}

// TestPeerUpCancelsAgeOut: a reconnect inside the grace window (PeerUp +
// the session's full table re-exchange) must not lose routes later.
func TestPeerUpCancelsAgeOut(t *testing.T) {
	ctrl := newFlapController(t, 60*time.Millisecond)
	target := pfx("10.0.0.0/8")
	announceFrom(ctrl, 200, target)

	ctrl.PeerDown(200)
	time.Sleep(15 * time.Millisecond)
	ctrl.PeerUp(200)
	// PeerUp flushes the stale Adj-RIB-In; the fresh session re-announces.
	announceFrom(ctrl, 200, target)

	time.Sleep(150 * time.Millisecond) // well past the original age-out
	if _, ok := ctrl.RouteServer().BestRoute(100, target); !ok {
		t.Fatal("cancelled age-out still flushed the routes")
	}
}

// TestPeerUpAgeOutFiredTimerRace: PeerUp racing an age-out timer that
// has already FIRED (t.Stop() returns false, the callback is queued on
// the controller lock) must not let the stale flush run after PeerUp's
// flush and the fresh session's re-announcements. The test pins the
// interleaving deterministically: a blocking route sink holds the
// controller lock across the timer's fire window, then a blocking logger
// parks the fired callback at the age-out log seam while PeerUp and the
// re-announcement race it.
func TestPeerUpAgeOutFiredTimerRace(t *testing.T) {
	target := pfx("10.0.0.0/8")

	var armed atomic.Bool
	logBlocked := make(chan struct{})
	logRelease := make(chan struct{})
	logf := func(format string, _ ...any) {
		if strings.Contains(format, "age-out") && armed.CompareAndSwap(true, false) {
			close(logBlocked)
			<-logRelease
		}
	}
	ctrl := core.NewController(core.WithRouteAgeOut(25*time.Millisecond), core.WithLogger(logf))
	for i, as := range []uint32{100, 200} {
		if _, err := ctrl.AddParticipant(core.ParticipantConfig{
			AS: as, Name: string(rune('A' + i)),
			Ports: []core.PhysicalPort{{ID: pkt.PortID(i + 1)}},
		}); err != nil {
			t.Fatal(err)
		}
	}
	announceFrom(ctrl, 200, target)
	armed.Store(true)
	ctrl.PeerDown(200)

	// Advertisement sinks run under the controller lock, so a sink that
	// blocks keeps the lock held while the age-out timer fires and its
	// callback queues on the lock — exactly the Stop()==false window.
	sinkBlocked := make(chan struct{})
	sinkRelease := make(chan struct{})
	var once sync.Once
	unreg, err := ctrl.OnRoute(100, func(core.RouteAd) {
		once.Do(func() {
			close(sinkBlocked)
			<-sinkRelease
		})
	})
	if err != nil {
		t.Fatal(err)
	}
	defer unreg()
	go func() {
		// The withdraw/announce cycle guarantees the sink fires (see
		// TestOnRouteUnregister).
		announceFrom(ctrl, 200, pfx("11.0.0.0/8"))
		ctrl.ApplyBatch(rs.PeerUpdate{From: 200, Update: &bgp.Update{Withdrawn: []iputil.Prefix{pfx("11.0.0.0/8")}}})
	}()
	<-sinkBlocked
	time.Sleep(60 * time.Millisecond) // > age-out: the timer fires, callback queues on c.mu
	close(sinkRelease)
	<-logBlocked // the fired callback reached the flush seam

	// The session comes back: PeerUp cancels (too late for Stop) and the
	// fresh session re-announces its table.
	peerUpDone := make(chan struct{})
	go func() {
		defer close(peerUpDone)
		ctrl.PeerUp(200)
		announceFrom(ctrl, 200, target)
	}()
	// Pre-fix the callback is parked outside the lock, so PeerUp and the
	// re-announcement complete here; post-fix the callback holds the lock
	// across its generation check and flush, so PeerUp waits and the
	// select times out — either way the stale flush is released last.
	select {
	case <-peerUpDone:
	case <-time.After(200 * time.Millisecond):
	}
	close(logRelease)
	<-peerUpDone

	// The released callback finishes asynchronously; watch the Loc-RIB
	// long enough to catch its flush landing after the re-announcement.
	for deadline := time.Now().Add(500 * time.Millisecond); time.Now().Before(deadline); {
		if _, ok := ctrl.RouteServer().BestRoute(100, target); !ok {
			t.Fatal("stale age-out flush ran after PeerUp + re-announcement and dropped a live route")
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// TestOnRouteUnregister: the closure returned by OnRoute stops delivery.
func TestOnRouteUnregister(t *testing.T) {
	ctrl := newFlapController(t, time.Hour)
	var mu sync.Mutex
	var got int
	unregister, err := ctrl.OnRoute(100, func(core.RouteAd) {
		mu.Lock()
		got++
		mu.Unlock()
	})
	if err != nil {
		t.Fatal(err)
	}
	// A plain announcement reaches no policy, so force re-advertisement
	// through a withdraw/announce cycle seen by every sink.
	announceFrom(ctrl, 200, pfx("10.0.0.0/8"))
	ctrl.ApplyBatch(rs.PeerUpdate{From: 200, Update: &bgp.Update{Withdrawn: []iputil.Prefix{pfx("10.0.0.0/8")}}})
	mu.Lock()
	before := got
	mu.Unlock()
	if before == 0 {
		t.Fatal("sink never received an advertisement")
	}
	unregister()
	announceFrom(ctrl, 200, pfx("11.0.0.0/8"))
	ctrl.ApplyBatch(rs.PeerUpdate{From: 200, Update: &bgp.Update{Withdrawn: []iputil.Prefix{pfx("11.0.0.0/8")}}})
	mu.Lock()
	after := got
	mu.Unlock()
	if after != before {
		t.Fatalf("unregistered sink still received %d advertisements", after-before)
	}
}

// TestAddRuleMirrorResync: a RuleFlusher sink is flushed before the band
// replay, and RemoveRuleMirror stops further mirroring.
func TestAddRuleMirrorResync(t *testing.T) {
	ctrl := newFlapController(t, time.Hour)
	ctrl.Recompile()

	sink := &recSink{}
	ctrl.AddRuleMirror(sink)
	ops := sink.Ops()
	if len(ops) < 3 || ops[0] != "flush" || ops[1] != "replace" || ops[2] != "replace" {
		t.Fatalf("resync ops = %v, want flush then two band replaces", ops)
	}

	ctrl.RemoveRuleMirror(sink)
	n := len(sink.Ops())
	ctrl.Recompile()
	if got := len(sink.Ops()); got != n {
		t.Fatalf("removed mirror still received %d ops", got-n)
	}

	// A plain sink (no FlushAll) must not be required to implement it.
	plain := &plainSink{}
	ctrl.AddRuleMirror(plain)
	ctrl.RemoveRuleMirror(plain)
}

type plainSink struct{}

func (plainSink) AddBatch([]*dataplane.FlowEntry)        {}
func (plainSink) Replace(uint64, []*dataplane.FlowEntry) {}
func (plainSink) DeleteCookie(uint64)                    {}
