package sdx

// End-to-end telemetry invariants: drive the controller over real BGP
// sessions on loopback TCP and check that the counters, histograms and
// trace agree with each other — every update counted is timed and traced,
// and every full compilation lands exactly one compile-latency sample.

import (
	"encoding/json"
	"fmt"
	"strings"
	"testing"
	"time"

	"sdx/internal/bgp"
	"sdx/internal/core"
	"sdx/internal/iputil"
	"sdx/internal/telemetry"
)

func TestTelemetryEndToEnd(t *testing.T) {
	reg := telemetry.NewRegistry()
	tracer := telemetry.NewTracer(8192)
	ctrl := New(core.WithTelemetry(reg), core.WithTracer(tracer))
	if ctrl.Metrics() != reg || ctrl.Tracer() != tracer {
		t.Fatal("injected registry/tracer not adopted")
	}
	for _, cfg := range []ParticipantConfig{
		{AS: 100, Name: "A", Ports: []PhysicalPort{{ID: 1}}},
		{AS: 200, Name: "B", Ports: []PhysicalPort{{ID: 2}}},
	} {
		if _, err := ctrl.AddParticipant(cfg); err != nil {
			t.Fatal(err)
		}
	}
	if rep := ctrl.Recompile(CompilePolicy(100, nil, []Term{
		Fwd(MatchAll.DstPort(80), 200),
	})); rep.Err != nil {
		t.Fatal(rep.Err)
	}

	srv, err := ListenBGP(ctrl, "127.0.0.1:0", 64512)
	if err != nil {
		t.Skipf("no loopback: %v", err)
	}
	defer srv.Close()

	sess, err := DialBGP(srv.Addr(), bgp.SessionConfig{LocalAS: 200, RouterID: PortIP(2)})
	if err != nil {
		t.Fatal(err)
	}
	defer sess.Close()

	const burst = 50
	for i := 0; i < burst; i++ {
		u := &bgp.Update{
			Attrs: &bgp.PathAttrs{ASPath: []uint32{200}, NextHop: PortIP(2)},
			NLRI:  []iputil.Prefix{MustParsePrefix(fmt.Sprintf("10.%d.0.0/16", i))},
		}
		if err := sess.SendUpdate(u); err != nil {
			t.Fatal(err)
		}
	}

	updatesIn := reg.Counter("controller.updates_in")
	deadline := time.Now().Add(5 * time.Second)
	for updatesIn.Value() < burst {
		if time.Now().After(deadline) {
			t.Fatalf("controller saw %d/%d updates", updatesIn.Value(), burst)
		}
		time.Sleep(5 * time.Millisecond)
	}
	ctrl.Recompile()

	// Every counted update was traced and timed.
	n := updatesIn.Value()
	if traced := tracer.CountByType(telemetry.EventBGPUpdateReceived); traced != uint64(n) {
		t.Fatalf("updates_in %d but %d BGPUpdateReceived events traced", n, traced)
	}
	if timed := reg.Histogram("controller.update_ns").Count(); timed != n {
		t.Fatalf("updates_in %d but update_ns has %d samples", n, timed)
	}

	// Every full compilation landed one compile-latency sample and one
	// CompileDone trace event.
	compiles := reg.Counter("controller.full_compiles").Value()
	if compiles < 2 { // policy install + explicit Recompile
		t.Fatalf("expected at least 2 full compiles, got %d", compiles)
	}
	ch := reg.Histogram("controller.compile_ns")
	if ch.Count() != compiles {
		t.Fatalf("%d full compiles but compile_ns has %d samples", compiles, ch.Count())
	}
	if ch.Sum() == 0 || ch.Quantile(0.5) == 0 {
		t.Fatal("compile-latency histogram is empty")
	}
	if done := tracer.CountByType(telemetry.EventCompileDone); done != uint64(compiles) {
		t.Fatalf("%d full compiles but %d CompileDone events", compiles, done)
	}

	// The BGP session layer saw the burst too.
	if v := reg.Counter("bgp.updates_in").Value(); v < burst {
		t.Fatalf("bgp.updates_in = %d, want >= %d", v, burst)
	}
	if v := reg.Counter("bgp.sessions_established").Value(); v < 1 {
		t.Fatal("no established session counted")
	}
	if tracer.CountByType(telemetry.EventSessionStateChange) == 0 {
		t.Fatal("no session state change traced")
	}

	// The RIB gauges and snapshot plumbing agree with the burst.
	snap := reg.Snapshot()
	if snap.Gauges["rs.adj_rib_routes"] < burst {
		t.Fatalf("rs.adj_rib_routes = %d, want >= %d", snap.Gauges["rs.adj_rib_routes"], burst)
	}
	var buf strings.Builder
	if err := reg.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	var decoded Snapshot
	if err := json.Unmarshal([]byte(buf.String()), &decoded); err != nil {
		t.Fatal(err)
	}
	if decoded.Counters["controller.updates_in"] != n {
		t.Fatalf("JSON snapshot lost updates_in: %d != %d", decoded.Counters["controller.updates_in"], n)
	}
}
