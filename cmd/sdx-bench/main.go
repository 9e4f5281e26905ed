// Command sdx-bench regenerates every table and figure of the paper's
// evaluation (SIGCOMM'14 §5.2 and §6) as text rows/series, on synthesized
// workloads shaped like the published datasets.
//
// Usage:
//
//	sdx-bench -exp all            # everything, quick sizes
//	sdx-bench -exp fig8 -full     # one experiment at paper scale
//	sdx-bench -exp table1 -seed 7
//
// Absolute numbers differ from the paper (this is a Go reimplementation
// measured on a software switch, not a Python prototype on a testbed);
// the shapes — who wins, growth orders, crossovers — are the
// reproduction target. See EXPERIMENTS.md for the side-by-side reading.
package main

import (
	"flag"
	"fmt"
	"log"
	"os"
	"time"

	"sdx/internal/experiments"
)

func main() {
	exp := flag.String("exp", "all", "experiment: table1|fig5a|fig5b|fig6|fig7|fig8|fig9|fig10|all")
	seed := flag.Int64("seed", 1, "workload seed")
	full := flag.Bool("full", false, "paper-scale parameters (slower)")
	flag.Parse()

	run := func(name string, fn func() error) {
		if *exp != "all" && *exp != name {
			return
		}
		fmt.Printf("==== %s ====\n", name)
		start := time.Now()
		if err := fn(); err != nil {
			log.Fatalf("%s: %v", name, err)
		}
		fmt.Printf("(%s completed in %v)\n\n", name, time.Since(start).Round(time.Millisecond))
	}

	run("table1", func() error { return table1(*seed, *full) })
	run("fig5a", func() error { return fig5a(*full) })
	run("fig5b", func() error { return fig5b(*full) })
	run("fig6", func() error { return fig6(*seed, *full) })
	run("fig7", func() error { return fig78(*seed, *full, false) })
	run("fig8", func() error { return fig78(*seed, *full, true) })
	run("fig9", func() error { return fig9(*seed, *full) })
	run("fig10", func() error { return fig10(*seed, *full) })

	if *exp != "all" {
		switch *exp {
		case "table1", "fig5a", "fig5b", "fig6", "fig7", "fig8", "fig9", "fig10":
		default:
			fmt.Fprintf(os.Stderr, "unknown experiment %q\n", *exp)
			os.Exit(2)
		}
	}
}

func table1(seed int64, full bool) error {
	scale := 100
	if full {
		scale = 1
	}
	rows := experiments.Table1(scale, seed)
	fmt.Printf("Table 1: IXP datasets (synthesized at 1/%d scale; paper values in parens)\n", scale)
	fmt.Printf("%-8s %8s %10s %12s %20s %10s %12s\n",
		"ixp", "peers", "prefixes", "updates", "%prefixes updated", "burstP75", "medianGap")
	for _, r := range rows {
		fmt.Printf("%-8s %8d %10d %12d %9.2f%% (%5.2f%%) %10d %12s\n",
			r.Name, r.Peers, r.Prefixes, r.Updates,
			r.UpdatedFraction*100, r.PaperFraction*100, r.BurstP75, r.MedianGap.Round(time.Second))
	}
	return nil
}

func fig5a(full bool) error {
	steps, policyAt, withdrawAt := 300, 100, 200
	if full {
		steps, policyAt, withdrawAt = 1800, 565, 1253
	}
	s, err := experiments.Fig5a(steps, policyAt, withdrawAt)
	if err != nil {
		return err
	}
	fmt.Printf("Figure 5a: application-specific peering (policy@%ds, withdrawal@%ds)\n", policyAt, withdrawAt)
	printSeries(s, steps/20)
	return s.CheckFig5a(policyAt, withdrawAt)
}

func fig5b(full bool) error {
	steps, policyAt := 200, 80
	if full {
		steps, policyAt = 600, 246
	}
	s, err := experiments.Fig5b(steps, policyAt)
	if err != nil {
		return err
	}
	fmt.Printf("Figure 5b: wide-area load balance (policy@%ds)\n", policyAt)
	printSeries(s, steps/20)
	return s.CheckFig5b(policyAt)
}

func printSeries(s *experiments.Fig5Series, stride int) {
	if stride < 1 {
		stride = 1
	}
	fmt.Printf("%6s", "t(s)")
	for _, n := range s.Names {
		fmt.Printf(" %12s", n)
	}
	fmt.Println()
	first := s.Series[s.Names[0]]
	for t := 0; t < len(first); t += stride {
		fmt.Printf("%6d", t)
		for _, n := range s.Names {
			fmt.Printf(" %9.2f Mb", s.Series[n][t])
		}
		if ev, ok := s.Events[t]; ok {
			fmt.Printf("   <- %s", ev)
		}
		fmt.Println()
	}
}

func fig6(seed int64, full bool) error {
	participants := []int{100, 200, 300}
	steps := []int{1000, 2500, 5000, 7500, 10000}
	total := 10000
	if full {
		steps = []int{1000, 5000, 10000, 15000, 20000, 25000}
		total = 25000
	}
	pts := experiments.Fig6(participants, steps, total, seed)
	fmt.Println("Figure 6: prefix groups vs prefixes (expect sub-linear growth)")
	fmt.Printf("%14s %10s %10s\n", "participants", "prefixes", "groups")
	for _, p := range pts {
		fmt.Printf("%14d %10d %10d\n", p.Participants, p.Prefixes, p.Groups)
	}
	return nil
}

func fig78(seed int64, full, timing bool) error {
	participants := []int{100, 200, 300}
	groups := []int{200, 400, 600}
	if full {
		groups = []int{200, 400, 600, 800, 1000}
	}
	pts, err := experiments.Fig78(participants, groups, seed)
	if err != nil {
		return err
	}
	if timing {
		fmt.Println("Figure 8: initial compilation time vs prefix groups (expect superlinear)")
		fmt.Printf("%14s %10s %14s\n", "participants", "groups", "compile")
		for _, p := range pts {
			fmt.Printf("%14d %10d %14s\n",
				p.Participants, p.GroupsActual, p.CompileTime.Round(time.Millisecond))
		}
		return nil
	}
	fmt.Println("Figure 7: forwarding rules vs prefix groups (expect linear growth,")
	fmt.Println("slope increasing with participants)")
	fmt.Printf("%14s %10s %10s\n", "participants", "groups", "rules")
	for _, p := range pts {
		fmt.Printf("%14d %10d %10d\n", p.Participants, p.GroupsActual, p.Rules)
	}
	return nil
}

func fig9(seed int64, full bool) error {
	participants := []int{100, 200, 300}
	bursts := []int{0, 20, 40, 60, 80, 100}
	groups := 300
	if full {
		groups = 1000
	}
	pts, err := experiments.Fig9(participants, bursts, groups, seed)
	if err != nil {
		return err
	}
	fmt.Println("Figure 9: additional fast-path rules per BGP update burst (worst")
	fmt.Println("case: every update forces a fresh VNH; expect linear in burst size)")
	fmt.Printf("%14s %10s %18s\n", "participants", "burst", "additional rules")
	for _, p := range pts {
		fmt.Printf("%14d %10d %18d\n", p.Participants, p.BurstSize, p.AdditionalRules)
	}
	return nil
}

func fig10(seed int64, full bool) error {
	participants := []int{100, 200, 300}
	updates, groups := 300, 300
	if full {
		updates, groups = 1000, 1000
	}
	res, err := experiments.Fig10(participants, updates, groups, seed)
	if err != nil {
		return err
	}
	fmt.Println("Figure 10: time to process a single BGP update (fast path CDF;")
	fmt.Println("paper reports <100ms for most updates on the Python prototype)")
	fmt.Printf("%14s %10s %10s %10s %10s %10s\n", "participants", "P10", "P50", "P90", "P99", "max")
	for _, r := range res {
		fmt.Printf("%14d %10s %10s %10s %10s %10s\n", r.Participants,
			experiments.FormatDuration(r.Percentile(0.10)),
			experiments.FormatDuration(r.Percentile(0.50)),
			experiments.FormatDuration(r.Percentile(0.90)),
			experiments.FormatDuration(r.Percentile(0.99)),
			experiments.FormatDuration(r.Percentile(1.0)))
	}
	return nil
}
