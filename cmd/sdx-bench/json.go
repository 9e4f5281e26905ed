package main

import (
	"encoding/json"
	"fmt"
	"os"
	"runtime"
	"time"

	"sdx/internal/experiments"
)

// benchReport is the machine-readable benchmark baseline written by
// `sdx-bench -json` (schema sdx-bench/compile/v1). All durations are
// integer nanoseconds in fields suffixed _ns. Note `host.cpus`: compare
// like with like across baselines.
type benchReport struct {
	Schema      string      `json:"schema"`
	GeneratedAt time.Time   `json:"generatedAt"`
	Seed        int64       `json:"seed"`
	Full        bool        `json:"full"`
	Host        hostInfo    `json:"host"`
	Fig6        []fig6JSON  `json:"fig6"`
	Fig78       []fig78JSON `json:"fig78"`
	Fig9        []fig9JSON  `json:"fig9"`
	Fig10       []fig10JSON `json:"fig10"`
}

type hostInfo struct {
	GOOS       string `json:"goos"`
	GOARCH     string `json:"goarch"`
	CPUs       int    `json:"cpus"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GoVersion  string `json:"goversion"`
}

type fig6JSON struct {
	Participants int `json:"participants"`
	Prefixes     int `json:"prefixes"`
	Groups       int `json:"groups"`
}

type fig78JSON struct {
	Participants int   `json:"participants"`
	Groups       int   `json:"groups"`
	Rules        int   `json:"rules"`
	CompileNS    int64 `json:"compile_ns"`
}

type fig9JSON struct {
	Participants    int `json:"participants"`
	BurstSize       int `json:"burstSize"`
	AdditionalRules int `json:"additionalRules"`
}

type fig10JSON struct {
	Participants int   `json:"participants"`
	P10NS        int64 `json:"p10_ns"`
	P50NS        int64 `json:"p50_ns"`
	P90NS        int64 `json:"p90_ns"`
	P99NS        int64 `json:"p99_ns"`
	MaxNS        int64 `json:"max_ns"`
}

// writeJSONReport runs the compile-oriented experiments (Fig 6–10) and
// writes the baseline file.
func writeJSONReport(path string, seed int64, full bool) error {
	report := benchReport{
		Schema:      "sdx-bench/compile/v1",
		GeneratedAt: time.Now().UTC(),
		Seed:        seed,
		Full:        full,
		Host: hostInfo{
			GOOS:       runtime.GOOS,
			GOARCH:     runtime.GOARCH,
			CPUs:       runtime.NumCPU(),
			GOMAXPROCS: runtime.GOMAXPROCS(0),
			GoVersion:  runtime.Version(),
		},
	}

	participants := []int{100, 200, 300}
	fig6Steps, fig6Total := []int{1000, 2500, 5000, 7500, 10000}, 10000
	groupSteps := []int{200, 400, 600}
	burstSizes := []int{0, 20, 40, 60, 80, 100}
	fig9Groups, fig10Updates, fig10Groups := 300, 300, 300
	if full {
		fig6Steps, fig6Total = []int{1000, 5000, 10000, 15000, 20000, 25000}, 25000
		groupSteps = []int{200, 400, 600, 800, 1000}
		fig9Groups, fig10Updates, fig10Groups = 1000, 1000, 1000
	}

	for _, p := range experiments.Fig6(participants, fig6Steps, fig6Total, seed) {
		report.Fig6 = append(report.Fig6, fig6JSON(p))
	}

	fig78, err := experiments.Fig78(participants, groupSteps, seed)
	if err != nil {
		return err
	}
	for _, p := range fig78 {
		report.Fig78 = append(report.Fig78, fig78JSON{
			Participants: p.Participants,
			Groups:       p.GroupsActual,
			Rules:        p.Rules,
			CompileNS:    p.CompileTime.Nanoseconds(),
		})
	}

	fig9, err := experiments.Fig9(participants, burstSizes, fig9Groups, seed)
	if err != nil {
		return err
	}
	for _, p := range fig9 {
		report.Fig9 = append(report.Fig9, fig9JSON(p))
	}

	fig10, err := experiments.Fig10(participants, fig10Updates, fig10Groups, seed)
	if err != nil {
		return err
	}
	for _, r := range fig10 {
		report.Fig10 = append(report.Fig10, fig10JSON{
			Participants: r.Participants,
			P10NS:        r.Percentile(0.10).Nanoseconds(),
			P50NS:        r.Percentile(0.50).Nanoseconds(),
			P90NS:        r.Percentile(0.90).Nanoseconds(),
			P99NS:        r.Percentile(0.99).Nanoseconds(),
			MaxNS:        r.Percentile(1.0).Nanoseconds(),
		})
	}

	buf, err := json.MarshalIndent(&report, "", "  ")
	if err != nil {
		return err
	}
	buf = append(buf, '\n')
	if err := os.WriteFile(path, buf, 0o644); err != nil {
		return err
	}
	fmt.Printf("wrote %s (%d bytes, %d cpus)\n", path, len(buf), report.Host.CPUs)
	return nil
}
