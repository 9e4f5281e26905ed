// Command bgpgen synthesizes BGP update traces with the statistical
// shape of the paper's Table 1 / §4.3.2 analysis (bursty arrivals, heavy-
// tailed burst sizes, a small updated-prefix fraction) and writes them in
// the textual format of workload.WriteTrace, one line per update:
//
//	<offset-ms> <peer-as> announce <prefix> <as-path...>
//	<offset-ms> <peer-as> withdraw <prefix>
//
// The trace replays against an SDX controller with sdx-replay or any
// consumer of the textual format.
package main

import (
	"flag"
	"fmt"
	"os"

	"sdx/internal/workload"
)

func main() {
	participants := flag.Int("participants", 100, "IXP participants")
	prefixes := flag.Int("prefixes", 10000, "announced prefixes")
	updates := flag.Int("updates", 100000, "updates to generate")
	fraction := flag.Float64("updated-fraction", 0.12, "fraction of prefixes that see updates")
	withdraw := flag.Float64("withdraw-fraction", 0.2, "fraction of updates that are withdrawals")
	seed := flag.Int64("seed", 1, "generator seed")
	stats := flag.Bool("stats", false, "print Table 1-style statistics instead of the trace")
	churn := flag.Bool("churn", false, "sustained hot-prefix churn instead of Table 1 bursts")
	hotFraction := flag.Float64("hot-fraction", 0.01, "churn: fraction of prefixes forming the hot set")
	hotShare := flag.Float64("hot-share", 0.8, "churn: fraction of updates aimed at the hot set")
	profile := flag.String("profile", "", "full-table scale profile (ci, quarter, full); overrides -participants/-prefixes/-updates and implies -churn")
	flag.Parse()

	if *profile != "" {
		sp, ok := workload.LookupScaleProfile(*profile)
		if !ok {
			fmt.Fprintf(os.Stderr, "bgpgen: unknown profile %q\n", *profile)
			os.Exit(2)
		}
		*participants, *prefixes, *updates = sp.Participants, sp.Prefixes, sp.Updates
		*churn = true
	}

	x := workload.NewIXP(workload.DefaultTopology(*participants, *prefixes, *seed))
	var tr *workload.Trace
	if *churn {
		cfg := workload.DefaultChurn(*updates, *seed)
		cfg.HotFraction = *hotFraction
		cfg.HotShare = *hotShare
		cfg.WithdrawFraction = *withdraw
		tr = workload.GenerateChurn(x, cfg)
	} else {
		tr = workload.GenerateTrace(x, workload.TraceConfig{
			Seed: *seed, Updates: *updates,
			UpdatedFraction: *fraction, WithdrawFraction: *withdraw,
		})
	}

	if *stats {
		st := tr.Stats(*prefixes)
		fmt.Printf("updates            %d\n", st.Updates)
		fmt.Printf("prefixes updated   %d (%.2f%% of %d)\n", st.PrefixesUpdated, st.UpdatedFraction*100, *prefixes)
		fmt.Printf("bursts             %d (P75 size %d, max %d)\n", st.Bursts, st.BurstP75, st.MaxBurst)
		fmt.Printf("inter-arrival      P25 %v, median %v\n", st.InterArrivalP25, st.InterArrivalP50)
		fmt.Printf("trace duration     %v\n", st.Duration)
		return
	}

	if err := workload.WriteTrace(os.Stdout, tr); err != nil {
		fmt.Fprintf(os.Stderr, "bgpgen: %v\n", err)
		os.Exit(1)
	}
}
