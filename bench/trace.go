package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"time"

	"sdx/internal/core"
	"sdx/internal/dataplane"
	"sdx/internal/openflow"
)

// The traced run records spans at seams the bench already owns — around
// SendUpdate, a timing rule sink around openflow.Mirror, a second
// OnRoute sink for the viewer's AS, the viewer session's OnUpdate, and
// the probe loop — so nothing inside internal/ is edited.

// stageNames are the contiguous stages of one update, in order. Each
// runs from the previous boundary to its own, so per update they sum to
// the root span exactly.
var stageNames = []string{
	"bgp.send",            // due → SendUpdate returned (generator lateness included)
	"ingest+rs+core",      // → rule sink entered: wire, decode, ingest queue, decision, fast compile
	"openflow.send",       // → rule sink returned: flow-mod encoded and written
	"core.advertise",      // → controller advertised the prefix to the viewer's AS
	"bgp.adv",             // → viewer session delivered the advertisement
	"openflow.install",    // → last probe the fabric missed: the ad overtook the flow-mod
	"dataplane.first_hit", // → probe delivered by the remote switch
}

// stageMetric is the per-layer metric name of a waterfall stage.
func stageMetric(stage string) string {
	return "wf." + strings.NewReplacer(".", "_", "+", "_").Replace(stage) + "_ms"
}

// recorder collects what the traced seams observe.
type recorder struct {
	mu sync.Mutex
	on bool   // off for the untraced parts of a traced run
	ph *paced // the paced phase being traced, nil outside one
	// adds are the phase's rule-sink AddBatch calls, in order. The fast
	// path installs a prefix's rules and then advertises it, on one
	// goroutine, so the n-th call belongs to the n-th advertisement.
	adds      []addMark
	addRules  []float64
	replaceMS []float64
}

type addMark struct {
	start, end time.Time
	rules      int
}

func (r *recorder) beginPaced(ph *paced) {
	r.mu.Lock()
	if r.on {
		r.ph, r.adds = ph, nil
	}
	r.mu.Unlock()
}

// endPaced hands each traced update the rule-sink call that was its own.
func (r *recorder) endPaced(ph *paced) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.ph != ph {
		return
	}
	for _, u := range ph.res.updates {
		if !u.advSink.IsZero() && u.advOrder < len(r.adds) {
			a := r.adds[u.advOrder]
			u.sinkStart, u.sinkEnd, u.rules = a.start, a.end, a.rules
		}
	}
	r.ph = nil
}

// timingSink wraps the mirror that drives the remote switch.
type timingSink struct {
	openflow.Mirror
	rec *recorder
}

func (t *timingSink) AddBatch(entries []*dataplane.FlowEntry) {
	start := time.Now()
	t.Mirror.AddBatch(entries)
	end := time.Now()
	t.rec.mu.Lock()
	if t.rec.ph != nil {
		t.rec.adds = append(t.rec.adds, addMark{start, end, len(entries)})
		t.rec.addRules = append(t.rec.addRules, float64(len(entries)))
	}
	t.rec.mu.Unlock()
}

func (t *timingSink) Replace(cookie uint64, entries []*dataplane.FlowEntry) {
	start := time.Now()
	t.Mirror.Replace(cookie, entries)
	d := time.Since(start)
	t.rec.mu.Lock()
	t.rec.replaceMS = append(t.rec.replaceMS, ms(d))
	t.rec.mu.Unlock()
}

// advertised is the bench's own OnRoute sink for the viewer's AS. It
// runs under the controller's lock and must not call back into it.
func (r *recorder) advertised(v *router, ad core.RouteAd) {
	at := time.Now()
	if ad.Withdraw {
		return
	}
	salt, ok := saltOf(ad.Attrs)
	if !ok {
		return
	}
	r.mu.Lock()
	ph := r.ph
	r.mu.Unlock()
	if ph == nil {
		return
	}
	v.mu.Lock()
	if u := ph.latest[ad.Prefix]; u != nil && u.salt == salt && u.advSink.IsZero() {
		u.advSink, u.advOrder = at, ph.advertised
		ph.advertised++
	}
	v.mu.Unlock()
}

// span is one traced interval. Parent is an index into the span list
// (-1 for a root); spans of one update share UpdateID.
type span struct {
	Name     string `json:"name"`
	StartNS  int64  `json:"start_ns"`
	EndNS    int64  `json:"end_ns"`
	Parent   int    `json:"parent"`
	UpdateID int    `json:"update_id"`
}

// stages returns the update's stage boundaries, clamped to be monotonic
// (two goroutines' clocks reads can interleave by a few microseconds),
// or false when a seam did not see the update.
func (u *pacedUpdate) stages() ([]time.Time, bool) {
	if u.failed != "" || u.sinkStart.IsZero() || u.advSink.IsZero() {
		return nil, false
	}
	lastMiss := u.lastMiss
	if lastMiss.IsZero() {
		lastMiss = u.advRecv
	}
	b := []time.Time{u.due, u.sendEnd, u.sinkStart, u.sinkEnd, u.advSink, u.advRecv, lastMiss, u.hit}
	for i := 1; i < len(b); i++ {
		if b[i].Before(b[i-1]) {
			b[i] = b[i-1]
		}
	}
	b[len(b)-1] = u.hit
	return b, true
}

// traceReport is what a traced run writes to out/trace-<workload>.json.
type traceReport struct {
	Workload       string             `json:"workload"`
	Seed           int64              `json:"seed"`
	Updates        int                `json:"updates_traced"`
	ConvergeP50MS  float64            `json:"converge_p50_ms"`
	WaterfallMS    map[string]float64 `json:"waterfall_ms"`
	WaterfallSumMS float64            `json:"waterfall_sum_ms"`
	SelfTimeMS     map[string]float64 `json:"self_time_ms_total"`
	Registry       histDeltas         `json:"registry_deltas"`
	Spans          []span             `json:"spans"`
}

// buildTrace turns the traced updates into spans, per-layer self time,
// and the waterfall of the median update: the mean stage lengths over
// the updates between the 40th and 60th latency percentile, which sum
// to the mean latency of that band, i.e. to the median within noise.
func buildTrace(updates []*pacedUpdate, epoch time.Time) traceReport {
	rep := traceReport{WaterfallMS: make(map[string]float64), SelfTimeMS: make(map[string]float64)}
	type staged struct {
		u *pacedUpdate
		b []time.Time
	}
	var ok []staged
	for _, u := range updates {
		if b, complete := u.stages(); complete {
			ok = append(ok, staged{u, b})
		}
	}
	sort.Slice(ok, func(i, j int) bool { return ok[i].u.hit.Sub(ok[i].u.due) < ok[j].u.hit.Sub(ok[j].u.due) })
	rep.Updates = len(ok)
	var lat []float64
	for _, su := range ok {
		lat = append(lat, ms(su.u.hit.Sub(su.u.due)))
		root := len(rep.Spans)
		rep.Spans = append(rep.Spans, span{"update", su.b[0].Sub(epoch).Nanoseconds(), su.u.hit.Sub(epoch).Nanoseconds(), -1, su.u.id})
		for i, name := range stageNames {
			rep.Spans = append(rep.Spans, span{name, su.b[i].Sub(epoch).Nanoseconds(), su.b[i+1].Sub(epoch).Nanoseconds(), root, su.u.id})
			// Stages tile the root, so the root's self time is zero and a
			// stage, having no children, is all self time.
			rep.SelfTimeMS[name] += ms(su.b[i+1].Sub(su.b[i]))
		}
	}
	rep.ConvergeP50MS = median(lat)
	lo, hi := len(ok)*2/5, len(ok)*3/5
	if hi == lo {
		hi = min(lo+1, len(ok))
	}
	band := ok[lo:hi]
	for _, su := range band {
		for i, name := range stageNames {
			rep.WaterfallMS[name] += ms(su.b[i+1].Sub(su.b[i])) / float64(len(band))
		}
	}
	for _, v := range rep.WaterfallMS {
		rep.WaterfallSumMS += v
	}
	return rep
}

func (rep traceReport) write(dir string) (string, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	path := filepath.Join(dir, "trace-"+rep.Workload+".json")
	buf, err := json.Marshal(rep)
	if err != nil {
		return "", err
	}
	return path, os.WriteFile(path, buf, 0o644)
}

// histDelta is how much one registry histogram grew over the paced
// phases of a traced run. The median is read off the registry's
// power-of-two buckets, interpolating inside the one it falls in: the
// mean would carry the one batch per phase that waits out the optimizer
// pass for the controller's lock.
type histDelta struct {
	Count   int64
	SumNS   int64
	Buckets map[int64]int64 // upper bound → observations
}

func (d histDelta) p50US() float64 {
	bounds := make([]int64, 0, len(d.Buckets))
	for le := range d.Buckets {
		bounds = append(bounds, le)
	}
	sort.Slice(bounds, func(i, j int) bool { return bounds[i] < bounds[j] })
	below := int64(0)
	for _, le := range bounds {
		n := d.Buckets[le]
		if n > 0 && 2*(below+n) >= d.Count {
			lo := float64(le) / 2
			return (lo + (float64(le)-lo)*(float64(d.Count)/2-float64(below))/float64(n)) / 1e3
		}
		below += n
	}
	return 0
}

// MarshalJSON adds the derived figures a reader wants.
func (d histDelta) MarshalJSON() ([]byte, error) {
	meanUS := 0.0
	if d.Count > 0 {
		meanUS = float64(d.SumNS) / float64(d.Count) / 1e3
	}
	return json.Marshal(map[string]any{"count": d.Count, "mean_us": meanUS, "p50_us": d.p50US()})
}

// registryHists are the controller's own histograms that split the
// "ingest+rs+core" stage, which the bench cannot see into from outside.
var registryHists = []string{"ingest.install_ns", "controller.update_ns", "rs.decision_ns", "controller.compile_ns"}

type histMark map[string]histDelta

func markHists(c *core.Controller) histMark {
	snap := c.Metrics().Snapshot()
	m := make(histMark)
	for _, name := range registryHists {
		h := snap.Histograms[name]
		d := histDelta{Count: h.Count, SumNS: h.Sum, Buckets: make(map[int64]int64)}
		for _, b := range h.Buckets {
			d.Buckets[b.Le] = b.Count
		}
		m[name] = d
	}
	return m
}

type histDeltas map[string]histDelta

// add accumulates the growth between two marks.
func (d histDeltas) add(from, to histMark) {
	for _, name := range registryHists {
		acc := d[name]
		if acc.Buckets == nil {
			acc.Buckets = make(map[int64]int64)
		}
		acc.Count += to[name].Count - from[name].Count
		acc.SumNS += to[name].SumNS - from[name].SumNS
		for le, n := range to[name].Buckets {
			acc.Buckets[le] += n - from[name].Buckets[le]
		}
		d[name] = acc
	}
}
