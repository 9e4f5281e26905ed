package main

import (
	"encoding/json"
	"math"
	"os"
	"regexp"
	"runtime"
	"testing"
	"time"
)

// smoke shrinks a run: one set-up, and the table exchange at a tenth of
// its prefixes.
func smoke(t *testing.T) options {
	return options{setupRepeats: 1, tableSize: 2000, outDir: t.TempDir()}
}

func checkMetrics(t *testing.T, rep *report, defs []metricDef, mayBeZero map[string]bool) {
	t.Helper()
	if len(rep.Metrics) != len(defs) {
		t.Errorf("%s: %d metrics, want %d", rep.Workload, len(rep.Metrics), len(defs))
	}
	for _, d := range defs {
		v, ok := rep.Metrics[d.Name]
		switch {
		case !ok:
			t.Errorf("%s: metric %s missing", rep.Workload, d.Name)
		case v.Unit != d.Unit:
			t.Errorf("%s: %s has unit %q, want %q", rep.Workload, d.Name, v.Unit, d.Unit)
		case math.IsNaN(v.Value) || math.IsInf(v.Value, 0):
			t.Errorf("%s: %s = %v", rep.Workload, d.Name, v.Value)
		case v.Value == 0 && !mayBeZero[d.Name]:
			t.Errorf("%s: %s is zero", rep.Workload, d.Name)
		}
	}
	if rep.Failed != 0 || !rep.Correct {
		t.Errorf("%s: %d of %d operations failed: %v", rep.Workload, rep.Failed, rep.Attempted, rep.Failures)
	}
	if rep.Attempted < 1 {
		t.Errorf("%s: attempted %d", rep.Workload, rep.Attempted)
	}
}

// waitGoroutines waits for the goroutine count to come back to base:
// sessions, the queue's drainer, the optimizer and the agent's listener
// are all joined by teardown, a closed connection's reader exits a
// moment after.
func waitGoroutines(t *testing.T, base int) {
	t.Helper()
	deadline := time.Now().Add(3 * time.Second)
	for runtime.NumGoroutine() > base {
		if time.Now().After(deadline) {
			buf := make([]byte, 1<<16)
			t.Fatalf("%d goroutines, %d before the run:\n%s", runtime.NumGoroutine(), base, buf[:runtime.Stack(buf, true)])
		}
		time.Sleep(10 * time.Millisecond)
	}
}

func TestSmokeEveryWorkload(t *testing.T) {
	if testing.Short() {
		t.Skip("assembles the whole system over loopback")
	}
	base := runtime.NumGoroutine()
	for _, w := range workloads {
		rep, err := runWorkload(w, 1, 0.5, false, smoke(t))
		if err != nil {
			t.Fatalf("%s: %v", w.Name, err)
		}
		checkMetrics(t, rep, endToEnd, nil)
		waitGoroutines(t, base)
	}
}

func TestSmokeTraced(t *testing.T) {
	if testing.Short() {
		t.Skip("assembles the whole system over loopback")
	}
	base := runtime.NumGoroutine()
	opt := smoke(t)
	w, _ := findWorkload("grouped-churn")
	rep, err := runWorkload(w, 1, 1, true, opt)
	if err != nil {
		t.Fatal(err)
	}
	// Counts of things that need not happen, and differences that can
	// come out at nothing.
	checkMetrics(t, rep, perLayer, map[string]bool{
		"ingest.blocked": true, "dataplane.allocs_per_pkt": true, "dataplane.packet_ins": true,
		"wf.openflow_install_ms": true, "trace.overhead_pct": true,
	})
	waitGoroutines(t, base)

	buf, err := os.ReadFile(rep.Detail["trace_file"].(string))
	if err != nil {
		t.Fatal(err)
	}
	var tr traceReport
	if err := json.Unmarshal(buf, &tr); err != nil {
		t.Fatal(err)
	}
	if len(tr.Spans) != tr.Updates*(1+len(stageNames)) || tr.Updates == 0 {
		t.Fatalf("%d spans for %d updates", len(tr.Spans), tr.Updates)
	}
	for i, sp := range tr.Spans {
		if sp.Parent < 0 {
			continue
		}
		root := tr.Spans[sp.Parent]
		if root.UpdateID != sp.UpdateID || sp.StartNS < root.StartNS || sp.EndNS > root.EndNS || sp.EndNS < sp.StartNS {
			t.Fatalf("span %d %+v does not sit inside its root %+v", i, sp, root)
		}
	}
	if diff := math.Abs(tr.WaterfallSumMS-tr.ConvergeP50MS) / tr.ConvergeP50MS; diff > 0.25 {
		t.Errorf("waterfall sums to %.3f ms, traced converge p50 is %.3f ms", tr.WaterfallSumMS, tr.ConvergeP50MS)
	}
}

// TestBenchmarkJSON holds BENCHMARK.json to the tables in main.go and
// to the benchmark contract's limits.
func TestBenchmarkJSON(t *testing.T) {
	buf, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var b struct {
		Command    []string       `json:"command"`
		Paths      []string       `json:"paths"`
		RunSeconds int            `json:"run_seconds"`
		Workloads  []workloadSpec `json:"workloads"`
		EndToEnd   []metricDef    `json:"end_to_end"`
		PerLayer   []metricDef    `json:"per_layer"`
	}
	if err := json.Unmarshal(buf, &b); err != nil {
		t.Fatal(err)
	}
	name := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unit := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	seen := make(map[string]bool)
	checkName := func(n string) {
		if !name.MatchString(n) || seen[n] {
			t.Errorf("name %q is malformed or used twice", n)
		}
		seen[n] = true
	}
	if len(b.Workloads) != len(workloads) {
		t.Fatalf("%d workloads, main.go has %d", len(b.Workloads), len(workloads))
	}
	for i, w := range b.Workloads {
		checkName(w.Name)
		if w.Name != workloads[i].Name || w.Why != workloads[i].Why {
			t.Errorf("workload %d is %q, main.go has %q", i, w.Name, workloads[i].Name)
		}
		if len(w.Why) > 200 {
			t.Errorf("%s: why has %d characters", w.Name, len(w.Why))
		}
	}
	compare := func(kind string, got, want []metricDef) {
		if len(got) != len(want) {
			t.Fatalf("%d %s metrics, main.go has %d", len(got), kind, len(want))
		}
		for i, d := range got {
			checkName(d.Name)
			if d != want[i] {
				t.Errorf("%s metric %d is %+v, main.go has %+v", kind, i, d, want[i])
			}
			if !unit.MatchString(d.Unit) || (d.Better != "lower" && d.Better != "higher") || d.Bound > 0.25 {
				t.Errorf("%s metric %+v breaks the contract", kind, d)
			}
		}
	}
	compare("end-to-end", b.EndToEnd, endToEnd)
	compare("per-layer", b.PerLayer, perLayer)
	if b.RunSeconds < 1 || b.RunSeconds > 60 || len(b.Paths) != 1 || b.Paths[0] != "bench" || len(b.Command) == 0 {
		t.Errorf("run_seconds %d, paths %v, command %v", b.RunSeconds, b.Paths, b.Command)
	}
}
