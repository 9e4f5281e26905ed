package main

import (
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"sdx"
	"sdx/internal/bgp"
	"sdx/internal/dataplane"
	"sdx/internal/flow"
	"sdx/internal/iputil"
	"sdx/internal/pkt"
	"sdx/internal/probe"
	"sdx/internal/reconcile"
)

// TestMetricsMux drives an in-process controller through a BGP burst and a
// compilation, then checks each observability endpoint the -metrics flag
// exposes.
func TestMetricsMux(t *testing.T) {
	ctrl := sdx.New()
	for _, cfg := range []sdx.ParticipantConfig{
		{AS: 100, Name: "A", Ports: []sdx.PhysicalPort{{ID: 1}}},
		{AS: 200, Name: "B", Ports: []sdx.PhysicalPort{{ID: 2}}},
	} {
		if _, err := ctrl.AddParticipant(cfg); err != nil {
			t.Fatal(err)
		}
	}
	const burst = 10
	for i := 0; i < burst; i++ {
		ctrl.ApplyBatch(sdx.PeerUpdate{From: 200, Update: &sdx.Update{
			Attrs: &bgp.PathAttrs{ASPath: []uint32{200}, NextHop: sdx.PortIP(2)},
			NLRI:  []iputil.Prefix{sdx.MustParsePrefix(fmt.Sprintf("10.%d.0.0/16", i))},
		}})
	}
	ctrl.Recompile()

	mux := newMetricsMux(ctrl, nil, nil, nil)
	get := func(path string) *httptest.ResponseRecorder {
		t.Helper()
		rec := httptest.NewRecorder()
		mux.ServeHTTP(rec, httptest.NewRequest("GET", path, nil))
		if rec.Code != 200 {
			t.Fatalf("GET %s: status %d", path, rec.Code)
		}
		return rec
	}

	var snap sdx.Snapshot
	if err := json.Unmarshal(get("/metrics").Body.Bytes(), &snap); err != nil {
		t.Fatalf("/metrics: %v", err)
	}
	if snap.Counters["controller.updates_in"] != burst {
		t.Fatalf("updates_in = %d, want %d", snap.Counters["controller.updates_in"], burst)
	}
	h := snap.Histograms["controller.compile_ns"]
	if h.Count < 1 || h.Sum == 0 {
		t.Fatalf("compile_ns histogram empty after Recompile: %+v", h)
	}

	text := get("/metrics/text")
	if ct := text.Header().Get("Content-Type"); ct != "text/plain; charset=utf-8" {
		t.Fatalf("/metrics/text content type %q", ct)
	}
	if body := text.Body.String(); !strings.Contains(body, "controller.updates_in") {
		t.Fatalf("/metrics/text missing updates_in:\n%s", body)
	}

	var events []sdx.Event
	if err := json.Unmarshal(get("/trace").Body.Bytes(), &events); err != nil {
		t.Fatalf("/trace: %v", err)
	}
	if len(events) == 0 {
		t.Fatal("/trace returned no events")
	}
}

// getHealth fetches /health, asserts the HTTP status (the orchestrator
// gate: 200 healthy, 503 unhealthy), and decodes the JSON body.
func getHealth(t *testing.T, mux http.Handler, wantStatus int) map[string]json.RawMessage {
	t.Helper()
	rec := httptest.NewRecorder()
	mux.ServeHTTP(rec, httptest.NewRequest("GET", "/health", nil))
	if rec.Code != wantStatus {
		t.Fatalf("GET /health: status %d, want %d (body %s)", rec.Code, wantStatus, rec.Body.String())
	}
	if ct := rec.Header().Get("Content-Type"); ct != "application/json" {
		t.Fatalf("/health content type %q", ct)
	}
	var out map[string]json.RawMessage
	if err := json.Unmarshal(rec.Body.Bytes(), &out); err != nil {
		t.Fatalf("/health: %v", err)
	}
	return out
}

// failingList decodes the "failing" component list from a /health body.
func failingList(t *testing.T, out map[string]json.RawMessage) []string {
	t.Helper()
	var failing []string
	if raw, ok := out["failing"]; ok {
		if err := json.Unmarshal(raw, &failing); err != nil {
			t.Fatalf("failing list: %v", err)
		}
	}
	return failing
}

// TestHealthEndpoint checks the /health JSON summary in three states: no
// loops wired at all, a reconciler that has not yet passed (503 with the
// failing component named — the regression the unconditional-200 bug
// hid), and one that has completed a clean pass.
func TestHealthEndpoint(t *testing.T) {
	ctrl := sdx.New()

	// No loops: vacuously healthy, no component sections.
	out := getHealth(t, newMetricsMux(ctrl, nil, nil, nil), 200)
	if string(out["healthy"]) != "true" {
		t.Fatalf("no-loop health = %s, want true", out["healthy"])
	}
	if _, ok := out["reconcile"]; ok {
		t.Fatal("reconcile section present without a reconciler")
	}
	if _, ok := out["probe"]; ok {
		t.Fatal("probe section present without a prober")
	}

	// A reconciler over the controller's own local table: intended and
	// installed are the same snapshot, so one pass is clean.
	table := ctrl.Switch().Table()
	rec := reconcile.New(reconcile.Config{}, reconcile.Target{
		Name:      "local",
		Intended:  table.Entries,
		Installed: func() ([]*dataplane.FlowEntry, bool) { return table.Entries(), true },
		Sink:      func() reconcile.Sink { return nil },
	})
	mux := newMetricsMux(ctrl, rec, nil, nil)

	// Pre-pass the reconciler has proven nothing: the gate must fail
	// closed with 503, not report ready.
	out = getHealth(t, mux, http.StatusServiceUnavailable)
	if string(out["healthy"]) != "false" {
		t.Fatalf("pre-pass health = %s, want false", out["healthy"])
	}
	if failing := failingList(t, out); len(failing) != 1 || failing[0] != "reconcile" {
		t.Fatalf("pre-pass failing = %v, want [reconcile]", failing)
	}

	if sum := rec.RunOnce(); !sum.Clean {
		t.Fatalf("local pass not clean: %+v", sum)
	}
	out = getHealth(t, mux, 200)
	if string(out["healthy"]) != "true" {
		t.Fatalf("post-pass health = %s, want true", out["healthy"])
	}
	if failing := failingList(t, out); len(failing) != 0 {
		t.Fatalf("post-pass failing = %v, want empty", failing)
	}
	var rh struct {
		Healthy bool `json:"healthy"`
		Last    struct {
			Pass  int  `json:"Pass"`
			Clean bool `json:"Clean"`
		} `json:"last"`
	}
	if err := json.Unmarshal(out["reconcile"], &rh); err != nil {
		t.Fatalf("reconcile section: %v", err)
	}
	if !rh.Healthy || rh.Last.Pass != 1 || !rh.Last.Clean {
		t.Fatalf("reconcile section = %+v", rh)
	}
}

// TestHealthEndpointProbeUnhealthy is the prober half of the /health 503
// regression: a pair whose probes black-hole must flip the endpoint to
// 503 and name the pair, and a recovering pair must restore 200.
func TestHealthEndpointProbeUnhealthy(t *testing.T) {
	ctrl := sdx.New()

	// A virtual clock and an inject that accepts every probe but never
	// delivers it: each RunOnce past the timeout sweeps one loss. The
	// last swallowed probe is kept so the recovery phase can deliver it.
	now := int64(0)
	var lastProbe pkt.Packet
	blackhole := func(port pkt.PortID, p pkt.Packet) bool {
		lastProbe = p
		return true
	}
	prb := probe.New(probe.Config{
		Timeout:        time.Second,
		UnhealthyAfter: 3,
		NowNS:          func() int64 { return now },
	}, blackhole, probe.Pair{From: 1, To: 2})
	mux := newMetricsMux(ctrl, nil, prb, nil)

	// Fresh pairs start healthy: 200 before any evidence of loss.
	out := getHealth(t, mux, 200)
	if string(out["healthy"]) != "true" {
		t.Fatalf("fresh-prober health = %s, want true", out["healthy"])
	}

	// Three consecutive timed-out probes cross UnhealthyAfter.
	for i := 0; i < 4; i++ {
		prb.RunOnce()
		now += 2 * time.Second.Nanoseconds()
	}
	out = getHealth(t, mux, http.StatusServiceUnavailable)
	if string(out["healthy"]) != "false" {
		t.Fatalf("lossy-prober health = %s, want false", out["healthy"])
	}
	if failing := failingList(t, out); len(failing) != 1 || failing[0] != "probe:1->2" {
		t.Fatalf("lossy-prober failing = %v, want [probe:1->2]", failing)
	}

	// Delivering a fresh probe resets the streak and reopens the gate.
	prb.RunOnce() // sends one more probe, captured by blackhole
	if !prb.Deliver(2, lastProbe) {
		t.Fatal("prober did not consume its own probe")
	}
	out = getHealth(t, mux, 200)
	if string(out["healthy"]) != "true" {
		t.Fatalf("recovered-prober health = %s, want true", out["healthy"])
	}
}

// TestFlowsEndpoint checks /flows in both states: 404 when analytics is
// disabled, and the flows/top JSON when an Analytics is wired.
func TestFlowsEndpoint(t *testing.T) {
	ctrl := sdx.New()

	// Disabled: 404 so orchestration can tell "off" from "empty".
	rec := httptest.NewRecorder()
	newMetricsMux(ctrl, nil, nil, nil).ServeHTTP(rec, httptest.NewRequest("GET", "/flows", nil))
	if rec.Code != http.StatusNotFound {
		t.Fatalf("/flows with analytics off: status %d, want 404", rec.Code)
	}

	// Wired: one ingested record shows up in flows and top.
	ch := make(chan flow.Record, 1)
	ana := flow.NewAnalytics(flow.Config{SampleRate: 10, Alpha: 1}, ch, nil, ctrl.Metrics())
	ana.Ingest(flow.Record{
		Key: flow.Key{
			SrcIP: sdx.MustParseAddr("10.0.0.1"), DstIP: sdx.MustParseAddr("20.0.0.1"),
			Proto: pkt.ProtoTCP, SrcPort: 40000, DstPort: 80, InPort: 1,
		},
		Cookie: 7, Egress: 2, FrameLen: 100,
	})
	ana.Tick()

	rec = httptest.NewRecorder()
	newMetricsMux(ctrl, nil, nil, ana).ServeHTTP(rec, httptest.NewRequest("GET", "/flows", nil))
	if rec.Code != 200 {
		t.Fatalf("/flows: status %d", rec.Code)
	}
	if ct := rec.Header().Get("Content-Type"); ct != "application/json" {
		t.Fatalf("/flows content type %q", ct)
	}
	var out struct {
		Flows []flow.FlowStat `json:"flows"`
		Top   []flow.TopEntry `json:"top"`
	}
	if err := json.Unmarshal(rec.Body.Bytes(), &out); err != nil {
		t.Fatalf("/flows: %v", err)
	}
	if len(out.Flows) != 1 || out.Flows[0].EstBytes != 1000 || out.Flows[0].Egress != 2 {
		t.Fatalf("/flows flows = %+v", out.Flows)
	}
	if len(out.Top) != 1 || out.Top[0].Key.DstPort != 80 {
		t.Fatalf("/flows top = %+v", out.Top)
	}
}
