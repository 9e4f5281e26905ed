package telemetry

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"
)

func TestCounterGauge(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("a.total")
	c.Inc()
	c.Add(4)
	if got := c.Value(); got != 5 {
		t.Fatalf("counter = %d, want 5", got)
	}
	if r.Counter("a.total") != c {
		t.Fatal("Counter not idempotent by name")
	}

	g := r.Gauge("a.size")
	g.Set(10)
	g.Add(-3)
	if got := g.Value(); got != 7 {
		t.Fatalf("gauge = %d, want 7", got)
	}
	if r.Gauge("a.size") != g {
		t.Fatal("Gauge not idempotent by name")
	}
}

func TestNilSafety(t *testing.T) {
	var r *Registry
	c := r.Counter("x")
	g := r.Gauge("x")
	h := r.Histogram("x")
	if c != nil || g != nil || h != nil {
		t.Fatal("nil registry must hand out nil metrics")
	}
	c.Inc()
	c.Add(2)
	g.Set(1)
	g.Add(1)
	h.Observe(1)
	h.ObserveDuration(time.Millisecond)
	r.RegisterGaugeFunc("x", func() int64 { return 1 })
	if c.Value() != 0 || g.Value() != 0 || h.Count() != 0 || h.Sum() != 0 {
		t.Fatal("nil metrics must read as zero")
	}
	if h.Quantile(0.5) != 0 {
		t.Fatal("nil histogram quantile must be 0")
	}
	if s := r.Snapshot(); len(s.Counters) != 0 || len(s.Gauges) != 0 || len(s.Histograms) != 0 {
		t.Fatal("nil registry snapshot must be empty")
	}
	d := StartTimer(nil).Stop()
	if d < 0 {
		t.Fatal("StartTimer(nil) must still measure")
	}

	var tr *Tracer
	tr.Emit(EventCompileDone, 0, "", 0)
	if tr.Total() != 0 || tr.Dropped() != 0 || tr.CountByType(EventCompileDone) != 0 || tr.Events() != nil {
		t.Fatal("nil tracer must read as empty")
	}
}

func TestBucketIndexBounds(t *testing.T) {
	for _, v := range []int64{-5, 0, 1, 2, 3, 4, 7, 8, 1023, 1024, 1 << 40} {
		i := bucketIndex(v)
		lo, hi := bucketBounds(i)
		if v <= 0 {
			if i != 0 {
				t.Fatalf("bucketIndex(%d) = %d, want 0", v, i)
			}
			continue
		}
		if v < lo || v > hi {
			t.Fatalf("value %d landed in bucket %d bounds [%d,%d]", v, i, lo, hi)
		}
	}
}

func TestHistogramQuantiles(t *testing.T) {
	var h Histogram
	// 100 observations of 100 and 100 of 100_000: p50 must sit in the
	// low bucket, p95/p99 in the high one (within 2x bucket error).
	for i := 0; i < 100; i++ {
		h.Observe(100)
		h.Observe(100_000)
	}
	if got := h.Count(); got != 200 {
		t.Fatalf("count = %d, want 200", got)
	}
	if got := h.Sum(); got != 100*100+100*100_000 {
		t.Fatalf("sum = %d", got)
	}
	p50 := h.Quantile(0.50)
	if p50 < 64 || p50 > 255 {
		t.Fatalf("p50 = %d, want within bucket of 100", p50)
	}
	for _, q := range []float64{0.95, 0.99} {
		v := h.Quantile(q)
		if v < 65536 || v > 131071 {
			t.Fatalf("q%v = %d, want within bucket of 100000", q, v)
		}
	}
	s := h.Snapshot()
	if s.Count != 200 || s.P50 != p50 {
		t.Fatalf("snapshot mismatch: %+v", s)
	}
	if len(s.Buckets) != 2 {
		t.Fatalf("buckets = %d, want 2 non-empty", len(s.Buckets))
	}
	if s.Buckets[0].Count != 100 || s.Buckets[1].Count != 100 {
		t.Fatalf("bucket counts = %+v", s.Buckets)
	}
}

func TestHistogramSingleValue(t *testing.T) {
	var h Histogram
	h.Observe(0)
	if got := h.Quantile(0.5); got != 0 {
		t.Fatalf("quantile of single zero = %d", got)
	}
	if got := h.Quantile(0.99); got != 0 {
		t.Fatalf("p99 of single zero = %d", got)
	}
}

// TestHistogramQuantileEdgeCases pins the defined behaviour for inputs
// outside (0, 1] and for degenerate histograms: empty always reports 0,
// q ≤ 0 (or NaN) reports the estimated minimum, q ≥ 1 the estimated
// maximum, and a fully saturated top bucket never returns garbage.
func TestHistogramQuantileEdgeCases(t *testing.T) {
	var empty Histogram
	for _, q := range []float64{-1, 0, 0.5, 1, 2, math.NaN()} {
		if got := empty.Quantile(q); got != 0 {
			t.Fatalf("empty histogram Quantile(%v) = %d, want 0", q, got)
		}
	}
	var nilH *Histogram
	if got := nilH.Quantile(0.5); got != 0 {
		t.Fatalf("nil histogram Quantile = %d, want 0", got)
	}

	var h Histogram
	for i := 0; i < 10; i++ {
		h.Observe(100)     // bucket [64,127]
		h.Observe(100_000) // bucket [65536,131071]
	}
	for _, q := range []float64{-3, 0, math.NaN()} {
		if got := h.Quantile(q); got != 64 {
			t.Fatalf("Quantile(%v) = %d, want the minimum bucket bound 64", q, got)
		}
	}
	for _, q := range []float64{1, 1.5, math.Inf(1)} {
		if got := h.Quantile(q); got != 131071 {
			t.Fatalf("Quantile(%v) = %d, want the maximum bucket bound 131071", q, got)
		}
	}

	// Single-bucket saturation: every observation in one bucket must keep
	// all quantiles inside that bucket's bounds.
	var one Histogram
	for i := 0; i < 1000; i++ {
		one.Observe(100)
	}
	for _, q := range []float64{0, 0.01, 0.5, 0.999, 1, 7} {
		got := one.Quantile(q)
		if got < 64 || got > 127 {
			t.Fatalf("saturated bucket Quantile(%v) = %d, want within [64,127]", q, got)
		}
	}

	// Top-bucket saturation: MaxInt64 observations stay in-range (the top
	// bucket's upper bound is exactly MaxInt64, never a wrapped negative).
	var top Histogram
	top.Observe(math.MaxInt64)
	for _, q := range []float64{0.5, 1, 2} {
		if got := top.Quantile(q); got < 0 {
			t.Fatalf("top bucket Quantile(%v) = %d, wrapped negative", q, got)
		}
	}
}

func TestTimerRecords(t *testing.T) {
	var h Histogram
	d := StartTimer(&h).Stop()
	if d < 0 {
		t.Fatalf("negative duration %v", d)
	}
	if h.Count() != 1 {
		t.Fatalf("timer did not record: count = %d", h.Count())
	}
}

func TestSnapshotJSONRoundTrip(t *testing.T) {
	r := NewRegistry()
	r.Counter("c.one").Add(3)
	r.Gauge("g.one").Set(-2)
	r.Histogram("h.one_ns").Observe(1000)
	r.RegisterGaugeFunc("g.fn", func() int64 { return 42 })

	var buf bytes.Buffer
	if err := r.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	var s Snapshot
	if err := json.Unmarshal(buf.Bytes(), &s); err != nil {
		t.Fatalf("bad JSON: %v\n%s", err, buf.String())
	}
	if s.Counters["c.one"] != 3 || s.Gauges["g.one"] != -2 || s.Gauges["g.fn"] != 42 {
		t.Fatalf("round trip mismatch: %+v", s)
	}
	if h := s.Histograms["h.one_ns"]; h.Count != 1 || h.Sum != 1000 {
		t.Fatalf("histogram round trip mismatch: %+v", h)
	}
}

func TestWriteText(t *testing.T) {
	r := NewRegistry()
	r.Counter("z.total").Inc()
	r.Counter("a.total").Inc()
	r.Gauge("size").Set(9)
	r.Histogram("lat_ns").Observe(5)
	var buf bytes.Buffer
	r.WriteText(&buf)
	out := buf.String()
	ia, iz := strings.Index(out, "a.total"), strings.Index(out, "z.total")
	if ia < 0 || iz < 0 || ia > iz {
		t.Fatalf("counters missing or unsorted:\n%s", out)
	}
	for _, want := range []string{"gauge", "size", "histogram", "lat_ns", "p99="} {
		if !strings.Contains(out, want) {
			t.Fatalf("text dump missing %q:\n%s", want, out)
		}
	}
}

func TestServeHTTP(t *testing.T) {
	r := NewRegistry()
	r.Counter("hits").Inc()

	rec := httptest.NewRecorder()
	r.ServeHTTP(rec, httptest.NewRequest("GET", "/metrics", nil))
	if ct := rec.Header().Get("Content-Type"); !strings.Contains(ct, "json") {
		t.Fatalf("content type = %q", ct)
	}
	var s Snapshot
	if err := json.Unmarshal(rec.Body.Bytes(), &s); err != nil {
		t.Fatal(err)
	}
	if s.Counters["hits"] != 1 {
		t.Fatalf("snapshot = %+v", s)
	}

	rec = httptest.NewRecorder()
	r.ServeHTTP(rec, httptest.NewRequest("GET", "/metrics?format=text", nil))
	if !strings.Contains(rec.Body.String(), "counter") {
		t.Fatalf("text format body: %s", rec.Body.String())
	}
}

func TestTracerRingWrap(t *testing.T) {
	tr := NewTracer(4)
	for i := 0; i < 10; i++ {
		tr.Emit(EventBGPUpdateReceived, uint32(100+i), fmt.Sprintf("d%d", i), int64(i))
	}
	if got := tr.Total(); got != 10 {
		t.Fatalf("total = %d, want 10", got)
	}
	if got := tr.CountByType(EventBGPUpdateReceived); got != 10 {
		t.Fatalf("count by type = %d, want 10", got)
	}
	if got := tr.Dropped(); got != 6 {
		t.Fatalf("dropped = %d, want 6", got)
	}
	evs := tr.Events()
	if len(evs) != 4 {
		t.Fatalf("retained = %d, want 4", len(evs))
	}
	for i, e := range evs {
		wantSeq := uint64(7 + i)
		if e.Seq != wantSeq {
			t.Fatalf("event %d seq = %d, want %d (evs=%+v)", i, e.Seq, wantSeq, evs)
		}
		if e.AS != uint32(100+6+i) || e.Value != int64(6+i) {
			t.Fatalf("event %d payload mismatch: %+v", i, e)
		}
	}
}

func TestTracerPartialRing(t *testing.T) {
	tr := NewTracer(8)
	tr.Emit(EventCompileStarted, 0, "full", 0)
	tr.Emit(EventCompileDone, 0, "", 42)
	evs := tr.Events()
	if len(evs) != 2 || evs[0].Seq != 1 || evs[1].Seq != 2 {
		t.Fatalf("events = %+v", evs)
	}
	if tr.Dropped() != 0 {
		t.Fatalf("dropped = %d, want 0", tr.Dropped())
	}
	if tr.CountByType(EventCompileDone) != 1 || tr.CountByType(EventARPReply) != 0 {
		t.Fatal("per-type counts wrong")
	}
}

func TestEventTypeJSON(t *testing.T) {
	b, err := json.Marshal(Event{Seq: 1, Type: EventSessionStateChange, AS: 65001, Detail: "established"})
	if err != nil {
		t.Fatal(err)
	}
	s := string(b)
	for _, want := range []string{`"SessionStateChange"`, `"as":65001`, `"established"`} {
		if !strings.Contains(s, want) {
			t.Fatalf("event JSON missing %q: %s", want, s)
		}
	}
	if strings.Contains(s, `"value"`) {
		t.Fatalf("zero value should be omitted: %s", s)
	}
	if EventType(200).String() != "Unknown" {
		t.Fatal("out-of-range String")
	}
}

func TestTracerServeHTTP(t *testing.T) {
	tr := NewTracer(4)
	tr.Emit(EventRuleInstalled, 0, "band1", 7)
	rec := httptest.NewRecorder()
	tr.ServeHTTP(rec, httptest.NewRequest("GET", "/trace", nil))
	var evs []Event
	if err := json.Unmarshal(rec.Body.Bytes(), &evs); err != nil {
		t.Fatal(err)
	}
	if len(evs) != 1 || evs[0].Detail != "band1" || evs[0].Value != 7 {
		t.Fatalf("trace body = %+v", evs)
	}
}

// TestRegistryConcurrency hammers one registry with parallel writers
// across all metric kinds while readers snapshot — must be race-clean.
// CI runs it with -race -count=5.
func TestRegistryConcurrency(t *testing.T) {
	r := NewRegistry()
	tr := NewTracer(64)
	r.RegisterGaugeFunc("fn.total", func() int64 { return int64(tr.Total()) })

	const writers = 8
	const perWriter = 500
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perWriter; i++ {
				// Mix shared and per-goroutine names so get-or-create
				// races with both hits and inserts.
				r.Counter("shared.count").Inc()
				r.Counter(fmt.Sprintf("w%d.count", w)).Inc()
				r.Gauge("shared.gauge").Add(1)
				r.Histogram("shared.lat_ns").Observe(int64(i))
				StartTimer(r.Histogram("shared.timer_ns")).Stop()
				tr.Emit(EventType(i%int(numEventTypes)), uint32(w), "", int64(i))
			}
		}(w)
	}
	done := make(chan struct{})
	go func() {
		for {
			select {
			case <-done:
				return
			default:
				r.Snapshot()
				tr.Events()
			}
		}
	}()
	wg.Wait()
	close(done)

	s := r.Snapshot()
	if got := s.Counters["shared.count"]; got != writers*perWriter {
		t.Fatalf("shared.count = %d, want %d", got, writers*perWriter)
	}
	if got := s.Gauges["shared.gauge"]; got != writers*perWriter {
		t.Fatalf("shared.gauge = %d, want %d", got, writers*perWriter)
	}
	if got := s.Histograms["shared.lat_ns"].Count; got != writers*perWriter {
		t.Fatalf("shared.lat_ns count = %d, want %d", got, writers*perWriter)
	}
	if got := tr.Total(); got != writers*perWriter {
		t.Fatalf("tracer total = %d, want %d", got, writers*perWriter)
	}
	if got := s.Gauges["fn.total"]; got != writers*perWriter {
		t.Fatalf("fn.total = %d, want %d", got, writers*perWriter)
	}
	var byType uint64
	for typ := EventType(0); typ < numEventTypes; typ++ {
		byType += tr.CountByType(typ)
	}
	if byType != writers*perWriter {
		t.Fatalf("sum of per-type counts = %d, want %d", byType, writers*perWriter)
	}
}
