// Command bench is the repository's end-to-end benchmark: it assembles
// a whole SDX out of the real parts — BGP sessions over loopback TCP
// into the route server and its ingest queue, the controller with its
// background optimizer, the OpenFlow-style channel to a remote switch —
// and measures it from outside, from a BGP UPDATE leaving a border
// router to the fabric forwarding the next packet according to it.
//
//	go run -C bench . -workload grouped-steady            # one workload
//	go run -C bench . -workload all                       # the set
//	go run -C bench . -workload grouped-steady -trace 1   # per-layer waterfall
//	go run -C bench . -check                              # repeatability
//
// See README.md for the metrics, the workloads and how they interact.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"runtime"
)

// metricDef names one reported metric. BENCHMARK.json repeats this table
// (bench_test.go checks the two agree).
type metricDef struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"` // end-to-end only: share of the parent's median it may worsen by
}

// The bounds are about three times the spread (quartile distance over
// median) that ten runs on ten seeds showed on a two-core sandbox.
var endToEnd = []metricDef{
	{"setup_s", "s", "lower", 0.25},
	{"heap_mb", "MB", "lower", 0.10},
	{"converge_p50_ms", "ms", "lower", 0.25},
	{"updates_per_s", "1/s", "higher", 0.25},
	{"fwd_mpps", "Mpps", "higher", 0.20},
	{"recompile_p50_ms", "ms", "lower", 0.25},
}

var perLayer = []metricDef{
	{Name: "converge_tail_ms", Unit: "ms", Better: "lower"},
	{Name: "gen.lateness_p99_ms", Unit: "ms", Better: "lower"},
	{Name: "trace.converge_p50_ms", Unit: "ms", Better: "lower"},
	{Name: "trace.overhead_pct", Unit: "%", Better: "lower"},
	{Name: "wf.bgp_send_ms", Unit: "ms", Better: "lower"},
	{Name: "wf.ingest_rs_core_ms", Unit: "ms", Better: "lower"},
	{Name: "wf.openflow_send_ms", Unit: "ms", Better: "lower"},
	{Name: "wf.core_advertise_ms", Unit: "ms", Better: "lower"},
	{Name: "wf.bgp_adv_ms", Unit: "ms", Better: "lower"},
	{Name: "wf.openflow_install_ms", Unit: "ms", Better: "lower"},
	{Name: "wf.dataplane_first_hit_ms", Unit: "ms", Better: "lower"},
	{Name: "bgp.codec_us", Unit: "us", Better: "lower"},
	{Name: "bgp.adv_us", Unit: "us", Better: "lower"},
	{Name: "ingest.enqueue_us", Unit: "us", Better: "lower"},
	{Name: "ingest.wait_ms", Unit: "ms", Better: "lower"},
	{Name: "ingest.coalesce_ratio", Unit: "ratio", Better: "higher"},
	{Name: "ingest.blocked", Unit: "count", Better: "lower"},
	{Name: "ingest.drains", Unit: "count", Better: "lower"},
	{Name: "rs.apply_us", Unit: "us", Better: "lower"},
	{Name: "rs.decision_us", Unit: "us", Better: "lower"},
	{Name: "core.fastpath_us", Unit: "us", Better: "lower"},
	{Name: "core.fast_rules_per_update", Unit: "count", Better: "lower"},
	{Name: "policy.compile_ms", Unit: "ms", Better: "lower"},
	{Name: "policy.rules", Unit: "count", Better: "lower"},
	{Name: "policy.groups", Unit: "count", Better: "lower"},
	{Name: "openflow.add_rtt_us", Unit: "us", Better: "lower"},
	{Name: "openflow.replace_ms", Unit: "ms", Better: "lower"},
	{Name: "openflow.flowmods", Unit: "count", Better: "lower"},
	{Name: "dataplane.install_us", Unit: "us", Better: "lower"},
	{Name: "dataplane.engine_build_ms", Unit: "ms", Better: "lower"},
	{Name: "dataplane.lookup_hit_ns", Unit: "ns", Better: "lower"},
	{Name: "dataplane.lookup_miss_ns", Unit: "ns", Better: "lower"},
	{Name: "dataplane.cache_hit_rate", Unit: "ratio", Better: "higher"},
	{Name: "dataplane.engine_builds", Unit: "count", Better: "lower"},
	{Name: "dataplane.allocs_per_pkt", Unit: "count", Better: "lower"},
	{Name: "dataplane.packet_ins", Unit: "count", Better: "lower"},
}

// Working-set sizes of the forwarding stream, against the megaflow
// cache's 16 shards × 4096 entries.
const (
	workingSetSteady  = 2048   // well inside the cache
	workingSetScatter = 262144 // 4× its capacity
)

// workloadSpec is one set of inputs. Every run goes through the same
// phases, because the benchmark contract wants every end-to-end metric
// from every workload; a workload sets the properties the system's
// behaviour depends on: which exchange, how large the stream's working
// set is against the cache, and whether updates arrive beside traffic.
type workloadSpec struct {
	Name string `json:"name"`
	Why  string `json:"why"`

	fix        fixture
	workingSet int
	churn      bool // the paced feed runs while the forwarding stream runs
}

var workloads = []workloadSpec{
	{
		Name: "grouped-steady",
		Why:  "policy-dense exchange (~400 groups, ~1.9k rules), each layer loaded alone, stream inside the megaflow cache: the baseline every other workload changes one property of",
		fix:  fixtureGrouped, workingSet: workingSetSteady,
	},
	{
		Name: "grouped-scatter",
		Why:  "same exchange, stream working set 4x the megaflow cache: forwarding takes the engine-dispatch path, so a cache change that costs the miss path shows here and not in grouped-steady",
		fix:  fixtureGrouped, workingSet: workingSetScatter,
	},
	{
		Name: "grouped-churn",
		Why:  "same exchange and stream, paced updates arriving beside the traffic: every fast-path install clears the cache and rebuilds the engine, the pps the fabric sustains during reconvergence",
		fix:  fixtureGrouped, workingSet: workingSetSteady, churn: true,
	},
	{
		Name: "table-steady",
		Why:  "RIB-heavy exchange (100 participants, 20k prefixes, the BENCH_scale ci shape, few rules): the route server and set-up do most of the work, compile and fabric little",
		fix:  fixtureTable, workingSet: workingSetSteady,
	},
}

func findWorkload(name string) (workloadSpec, bool) {
	for _, w := range workloads {
		if w.Name == name {
			return w, true
		}
	}
	return workloadSpec{}, false
}

// value is one measured metric.
type value struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// environment is recorded in every report: these numbers are from a
// small sandbox, over the host's loopback, with synthetic traffic.
type environment struct {
	NProc        int      `json:"nproc"`
	GOMAXPROCS   int      `json:"gomaxprocs"`
	GoVersion    string   `json:"go_version"`
	Network      string   `json:"network"`
	Traffic      string   `json:"traffic"`
	Generators   string   `json:"load_generators"`
	Connections  string   `json:"load_tcp_connections"`
	Optimizer    string   `json:"optimizer"`
	IngestQueue  string   `json:"ingest_queue"`
	Off          []string `json:"deliberately_off"`
	PacketSizeB  int      `json:"packet_size_bytes"`
	UpdateRateHz int      `json:"paced_updates_per_s"`
}

func currentEnvironment() environment {
	return environment{
		NProc:        runtime.NumCPU(),
		GOMAXPROCS:   runtime.GOMAXPROCS(0),
		GoVersion:    runtime.Version(),
		Network:      "host loopback TCP (127.0.0.1), not a real link",
		Traffic:      "synthetic, generated from the seed",
		Generators:   "at most 2 goroutines at a time in this one process (pacer + stream, or two burst writers)",
		Connections:  "3 BGP sessions (two announcers, one viewer)",
		Optimizer:    "one StartOptimizer pass in every paced phase, 60% in (sdxd's default is a pass every 5 s)",
		IngestQueue:  "QueueConfig{} defaults: MaxDelay 2ms, MaxBatch 4096, MaxPending 65536",
		Off:          []string{"reconciler", "liveness prober", "flow sampler", "multi-switch fabric"},
		PacketSizeB:  54, // header-only TCP: the smallest size, where per-packet cost dominates
		UpdateRateHz: pacedRate,
	}
}

// report is everything one run prints.
type report struct {
	Workload    string           `json:"workload"`
	Fixture     string           `json:"fixture"`
	Seed        int64            `json:"seed"`
	Seconds     float64          `json:"seconds"`
	Traced      bool             `json:"traced"`
	Environment environment      `json:"environment"`
	Valid       bool             `json:"valid"` // false: the load generator, not the system, set the numbers
	Invalid     []string         `json:"invalid_because,omitempty"`
	Correct     bool             `json:"correct"`
	Attempted   int              `json:"attempted"`
	Failed      int              `json:"failed"`
	Failures    map[string]int   `json:"failures,omitempty"`
	Metrics     map[string]value `json:"metrics"`
	Detail      map[string]any   `json:"detail"`
}

func (r *report) fail(reason string, n int) {
	if n == 0 {
		return
	}
	r.Failed += n
	if r.Failures == nil {
		r.Failures = make(map[string]int)
	}
	r.Failures[reason] += n
}

func (r *report) failAll(failures map[string]int) {
	for reason, n := range failures {
		r.fail(reason, n)
	}
}

// contractLine is the last line of a run's standard output.
func (r *report) contractLine() string {
	buf, err := json.Marshal(struct {
		Correct   bool             `json:"correct"`
		Attempted int              `json:"attempted"`
		Failed    int              `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{r.Correct, r.Attempted, r.Failed, r.Metrics})
	if err != nil {
		panic(err) // plain numbers and strings always marshal
	}
	return string(buf)
}

// options are the test's way to shrink a run; flags do not reach them.
type options struct {
	setupRepeats int
	tableSize    int // prefixes of the table fixture
	outDir       string
}

var defaults = options{setupRepeats: 3, tableSize: fixtureTable.size, outDir: "out"}

func main() {
	name := flag.String("workload", "all", "workload to run, or \"all\"")
	seed := flag.Int64("seed", 1, "seed every input is generated from")
	seconds := flag.Float64("seconds", 15, "length of the measured run")
	trace := flag.Int("trace", 0, "1: traced run reporting the per-layer metrics instead of the end-to-end ones")
	check := flag.Bool("check", false, "run the set twice and fail if an end-to-end metric moves by more than its bound")
	flag.Parse()
	if err := run(*name, *seed, *seconds, *trace != 0, *check); err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}
}

func run(name string, seed int64, seconds float64, traced, check bool) error {
	if seconds <= 0 {
		return errors.New("-seconds must be positive")
	}
	set := workloads
	if name != "all" {
		w, ok := findWorkload(name)
		if !ok {
			return fmt.Errorf("unknown workload %q", name)
		}
		set = []workloadSpec{w}
	}
	if check {
		return runCheck(set, seed, seconds)
	}
	bad := 0
	for _, w := range set {
		rep, err := runWorkload(w, seed, seconds, traced, defaults)
		if err != nil {
			return fmt.Errorf("%s: %w", w.Name, err)
		}
		pretty, err := json.MarshalIndent(rep, "", "  ")
		if err != nil {
			return err
		}
		fmt.Println(string(pretty))
		fmt.Println(rep.contractLine())
		if !rep.Correct {
			bad++
		}
	}
	if bad > 0 {
		return fmt.Errorf("%d workload(s) failed their output checks", bad)
	}
	return nil
}

func runWorkload(w workloadSpec, seed int64, seconds float64, traced bool, opt options) (*report, error) {
	if !w.fix.grouped {
		w.fix.size = opt.tableSize
	}
	rep := &report{
		Workload: w.Name, Fixture: w.fix.name, Seed: seed, Seconds: seconds, Traced: traced,
		Environment: currentEnvironment(), Valid: true,
		Metrics: make(map[string]value), Detail: make(map[string]any),
	}
	var err error
	if traced {
		err = runTraced(w, rep, opt)
	} else {
		err = runMeasured(w, rep, opt)
	}
	if err != nil {
		return nil, err
	}
	defs := endToEnd
	if traced {
		defs = perLayer
	}
	for _, d := range defs {
		if _, ok := rep.Metrics[d.Name]; !ok {
			return nil, fmt.Errorf("metric %s was not measured", d.Name)
		}
	}
	if len(rep.Metrics) != len(defs) {
		return nil, fmt.Errorf("%d metrics measured, %d defined", len(rep.Metrics), len(defs))
	}
	rep.Correct = rep.Failed == 0
	return rep, nil
}

// runCheck is the repeatability check: two sets of runs of the same
// code must agree within each end-to-end metric's own bound.
func runCheck(set []workloadSpec, seed int64, seconds float64) error {
	var sets [2]map[string]*report
	for i := range sets {
		sets[i] = make(map[string]*report)
		for _, w := range set {
			rep, err := runWorkload(w, seed, seconds, false, defaults)
			if err != nil {
				return fmt.Errorf("%s: %w", w.Name, err)
			}
			sets[i][w.Name] = rep
		}
	}
	bad := 0
	fmt.Printf("%-16s %-18s %12s %12s %8s %7s\n", "workload", "metric", "set 1", "set 2", "spread", "bound")
	for _, w := range set {
		a, b := sets[0][w.Name], sets[1][w.Name]
		for _, d := range endToEnd {
			x, y := a.Metrics[d.Name].Value, b.Metrics[d.Name].Value
			spread := 0.0
			if x+y > 0 {
				spread = 2 * max(x-y, y-x) / (x + y)
			}
			verdict := ""
			if spread > d.Bound {
				verdict = "  EXCEEDS"
				bad++
			}
			fmt.Printf("%-16s %-18s %12.4f %12.4f %7.1f%% %6.0f%%%s\n", w.Name, d.Name, x, y, 100*spread, 100*d.Bound, verdict)
		}
		for i, r := range []*report{a, b} {
			if !r.Correct || !r.Valid {
				fmt.Printf("%-16s set %d: correct=%v valid=%v failures=%v invalid=%v\n", w.Name, i+1, r.Correct, r.Valid, r.Failures, r.Invalid)
				bad++
			}
		}
	}
	if bad > 0 {
		return fmt.Errorf("%d metric(s) or run(s) outside their bounds", bad)
	}
	return nil
}
