// Command sdx-lint runs the SDX static-analysis suite (internal/lint) over
// the module and prints findings as "file:line: [analyzer] message" lines
// (or JSON with -json). With -tables it instead runs the classifier
// semantic verifier (internal/verify) over the standard compiletest
// workload corpus, checking every compiled flow table for equal-priority
// conflicts and shadowed rules.
//
// Usage:
//
//	go run ./cmd/sdx-lint ./...                    # whole module
//	go run ./cmd/sdx-lint internal/bgp             # specific package directories
//	go run ./cmd/sdx-lint -json ./...              # machine-readable output
//	go run ./cmd/sdx-lint -analyzers riblock ./... # subset of analyzers
//	go run ./cmd/sdx-lint -json -o report.json ./... # JSON report to a file
//	go run ./cmd/sdx-lint -tables -workloads 50    # verify compiled tables
//	go run ./cmd/sdx-lint -list                    # list analyzers
//
// Exit codes:
//
//	0  no findings
//	1  at least one finding (lint diagnostic or verifier conflict)
//	2  usage, load, or workload-build error
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"

	"sdx/internal/compiletest"
	"sdx/internal/lint"
	"sdx/internal/verify"
)

func main() {
	jsonOut := flag.Bool("json", false, "emit findings as a JSON array on stdout")
	outFile := flag.String("o", "", "also write the JSON report to this file")
	listFlag := flag.Bool("list", false, "list the analyzers and exit")
	analyzersFlag := flag.String("analyzers", "", "comma-separated subset of analyzers to run (default: all)")
	tablesFlag := flag.Bool("tables", false, "verify compiled flow tables over the compiletest corpus instead of linting source")
	workloads := flag.Int("workloads", compiletest.CorpusSize, "number of corpus workloads to verify with -tables")
	flag.Usage = func() {
		fmt.Fprintf(os.Stderr, "usage: sdx-lint [-json] [-o file] [-analyzers a,b] [./... | dir ...]\n")
		fmt.Fprintf(os.Stderr, "       sdx-lint -tables [-workloads n] [-json] [-o file]\n")
		fmt.Fprintf(os.Stderr, "       sdx-lint -list\n")
		fmt.Fprintf(os.Stderr, "exit codes: 0 no findings, 1 findings, 2 usage/load error\n")
		flag.PrintDefaults()
	}
	flag.Parse()

	if *listFlag {
		for _, a := range lint.Analyzers() {
			fmt.Printf("%-10s %s\n", a.Name, a.Doc)
		}
		return
	}

	if *tablesFlag {
		os.Exit(runTables(*workloads, *jsonOut, *outFile))
	}

	analyzers, err := selectAnalyzers(*analyzersFlag)
	if err != nil {
		fmt.Fprintf(os.Stderr, "sdx-lint: %v\n", err)
		os.Exit(2)
	}
	pkgs, err := load(flag.Args())
	if err != nil {
		fmt.Fprintf(os.Stderr, "sdx-lint: %v\n", err)
		os.Exit(2)
	}
	diags := lint.Run(pkgs, analyzers)
	if diags == nil {
		diags = []lint.Diagnostic{}
	}

	if *outFile != "" {
		if err := writeJSONFile(*outFile, diags); err != nil {
			fmt.Fprintf(os.Stderr, "sdx-lint: %v\n", err)
			os.Exit(2)
		}
	}
	if *jsonOut {
		if err := encodeJSON(os.Stdout, diags); err != nil {
			fmt.Fprintf(os.Stderr, "sdx-lint: %v\n", err)
			os.Exit(2)
		}
	} else {
		for _, d := range diags {
			fmt.Println(relativize(d))
		}
	}
	if len(diags) > 0 {
		if !*jsonOut {
			fmt.Fprintf(os.Stderr, "sdx-lint: %d finding(s)\n", len(diags))
		}
		os.Exit(1)
	}
}

// selectAnalyzers resolves the -analyzers flag: empty means the full
// suite, otherwise a comma-separated list of names from -list.
func selectAnalyzers(spec string) ([]*lint.Analyzer, error) {
	all := lint.Analyzers()
	if spec == "" {
		return all, nil
	}
	byName := make(map[string]*lint.Analyzer, len(all))
	names := make([]string, 0, len(all))
	for _, a := range all {
		byName[a.Name] = a
		names = append(names, a.Name)
	}
	var out []*lint.Analyzer
	for _, name := range strings.Split(spec, ",") {
		name = strings.TrimSpace(name)
		if name == "" {
			continue
		}
		a, ok := byName[name]
		if !ok {
			return nil, fmt.Errorf("unknown analyzer %q (have: %s)", name, strings.Join(names, ", "))
		}
		out = append(out, a)
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("-analyzers %q selects nothing", spec)
	}
	return out, nil
}

// tableFinding is one verifier finding tagged with its corpus case.
type tableFinding struct {
	Case int `json:"case"`
	verify.Finding
}

// tablesReport is the -tables JSON document.
type tablesReport struct {
	Workloads int            `json:"workloads"`
	Rules     int            `json:"rules"`
	Findings  []tableFinding `json:"findings"`
}

// runTables compiles each corpus workload (replaying its update bursts
// through the incremental path, as the differential suite does) and runs
// the semantic verifier over the installed table and classifier bands.
func runTables(n int, jsonOut bool, outFile string) int {
	report := tablesReport{Workloads: n, Findings: []tableFinding{}}
	for i := 0; i < n; i++ {
		w, bursts := compiletest.CorpusWorkload(i)
		in, err := compiletest.Build(w)
		if err != nil {
			fmt.Fprintf(os.Stderr, "sdx-lint: case %d: %v\n", i, err)
			return 2
		}
		in.Compile()
		if bursts > 0 {
			in.Replay(in.Trace(bursts*3, w.Seed+99))
		}
		rep := verify.Table(in.Ctrl.Switch().Table())
		if c := in.Ctrl.Compiled(); c != nil {
			bands := verify.Compiled(c)
			rep.Rules += bands.Rules
			rep.Findings = append(rep.Findings, bands.Findings...)
		}
		report.Rules += rep.Rules
		for _, f := range rep.Findings {
			report.Findings = append(report.Findings, tableFinding{Case: i, Finding: f})
			if !jsonOut {
				fmt.Printf("case %03d: %s\n", i, f.String())
			}
		}
	}
	if outFile != "" {
		if err := writeJSONFile(outFile, report); err != nil {
			fmt.Fprintf(os.Stderr, "sdx-lint: %v\n", err)
			return 2
		}
	}
	if jsonOut {
		if err := encodeJSON(os.Stdout, report); err != nil {
			fmt.Fprintf(os.Stderr, "sdx-lint: %v\n", err)
			return 2
		}
	} else {
		fmt.Fprintf(os.Stderr, "sdx-lint: %d workload(s), %d rule(s) verified, %d finding(s)\n",
			report.Workloads, report.Rules, len(report.Findings))
	}
	if len(report.Findings) > 0 {
		return 1
	}
	return 0
}

func encodeJSON(w io.Writer, v any) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(v)
}

func writeJSONFile(path string, v any) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := encodeJSON(f, v); err != nil {
		_ = f.Close()
		return err
	}
	return f.Close()
}

// load resolves the argument patterns to type-checked packages. "./..."
// (or no arguments) loads the whole module; anything else is taken as a
// package directory.
func load(args []string) ([]*lint.Package, error) {
	loader, err := lint.NewLoader(".")
	if err != nil {
		return nil, err
	}
	if len(args) == 0 {
		args = []string{"./..."}
	}
	var pkgs []*lint.Package
	for _, arg := range args {
		if arg == "./..." || arg == "..." {
			all, err := loader.LoadAll()
			if err != nil {
				return nil, err
			}
			pkgs = append(pkgs, all...)
			continue
		}
		dir := filepath.Clean(arg)
		abs, err := filepath.Abs(dir)
		if err != nil {
			return nil, err
		}
		rel, err := filepath.Rel(loader.ModuleRoot(), abs)
		if err != nil || strings.HasPrefix(rel, "..") {
			return nil, fmt.Errorf("%s is outside module %s", arg, loader.ModulePath())
		}
		path := loader.ModulePath()
		if rel != "." {
			path += "/" + filepath.ToSlash(rel)
		}
		pkg, err := loader.LoadDir(abs, path)
		if err != nil {
			return nil, err
		}
		pkgs = append(pkgs, pkg)
	}
	return pkgs, nil
}

// relativize shortens absolute file paths to module-relative ones for
// readable terminal output.
func relativize(d lint.Diagnostic) string {
	wd, err := os.Getwd()
	if err != nil {
		return d.String()
	}
	if rel, err := filepath.Rel(wd, d.File); err == nil && !strings.HasPrefix(rel, "..") {
		d.File = rel
	}
	return d.String()
}
