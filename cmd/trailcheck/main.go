// Trailcheck is the repo's invariant checker: a multichecker for the
// custom analyzers in internal/lint (virtualtime, determinism,
// errtaxonomy, nilguard, snapshotguard, sharedstate, probeguard). The
// last three — and the indirect halves of virtualtime and determinism —
// are whole-program: they link every package's summaries into one call
// graph, so run trailcheck over the full tree (./...) for real answers.
// It runs standalone:
//
//	go run ./cmd/trailcheck ./...             # plain, vet-style output
//	go run ./cmd/trailcheck -json ./...       # machine-readable findings
//	go run ./cmd/trailcheck -analyzers virtualtime ./internal/trail
//
// or as a vet tool, sharing go vet's caching and per-package scheduling.
// Vet's one-unit-at-a-time view truncates call-graph closures at package
// boundaries, so the closure-absence analyzers (snapshotguard, probeguard)
// are skipped in that mode; the standalone ./... run is the authoritative
// gate:
//
//	go build -o trailcheck ./cmd/trailcheck
//	go vet -vettool=$(pwd)/trailcheck ./...
//
// Exit status: 0 clean, 1 findings, 2 usage/load failure. Findings are
// suppressed in source with `//lint:allow <analyzer> <reason>`.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"strings"

	"tracklog/internal/lint"
)

// version is the fingerprint go vet uses as its cache key; bump it whenever
// analyzer behaviour changes so stale vet caches cannot hide new findings.
const version = "trailcheck version 7"

func main() {
	os.Exit(run())
}

func run() int {
	// go vet probes the tool's version (cache key) and its flag surface
	// before handing it compilation units.
	if len(os.Args) == 2 && strings.HasPrefix(os.Args[1], "-V") {
		fmt.Println(version)
		return 0
	}
	if len(os.Args) == 2 && os.Args[1] == "-flags" {
		fmt.Println("[]") // no vet-style flags are exposed through go vet
		return 0
	}

	jsonOut := flag.Bool("json", false, "emit machine-readable JSON diagnostics on stdout")
	names := flag.String("analyzers", "", "comma-separated subset of analyzers to run (default: all)")
	list := flag.Bool("list", false, "list available analyzers and exit")
	flag.Usage = func() {
		fmt.Fprintf(os.Stderr, "usage: trailcheck [-json] [-analyzers a,b] [packages]\n")
		fmt.Fprintf(os.Stderr, "       trailcheck <unit>.cfg    (go vet -vettool mode)\n\n")
		flag.PrintDefaults()
	}
	flag.Parse()

	analyzers := lint.All()
	if *names != "" {
		var err error
		if analyzers, err = lint.ByName(*names); err != nil {
			fmt.Fprintln(os.Stderr, "trailcheck:", err)
			return 2
		}
	}
	if *list {
		for _, a := range analyzers {
			fmt.Printf("%-12s %s\n", a.Name, a.Doc)
		}
		return 0
	}

	args := flag.Args()

	// Vet-tool mode: a single *.cfg argument describes one compilation unit.
	if len(args) == 1 && strings.HasSuffix(args[0], ".cfg") {
		n, err := lint.RunUnit(args[0], analyzers, os.Stdout)
		if err != nil {
			fmt.Fprintln(os.Stderr, "trailcheck:", err)
			return 1
		}
		if n > 0 {
			return 2 // unitchecker convention: nonzero + JSON on stdout
		}
		return 0
	}

	pkgs, err := lint.Load("", args...)
	if err != nil {
		fmt.Fprintln(os.Stderr, "trailcheck:", err)
		return 2
	}
	loadFailed := false
	for _, p := range pkgs {
		for _, terr := range p.TypeErrors {
			fmt.Fprintf(os.Stderr, "trailcheck: %s: %v\n", p.ImportPath, terr)
			loadFailed = true
		}
	}
	if loadFailed {
		return 2
	}

	diags, err := lint.Run(pkgs, analyzers)
	if err != nil {
		fmt.Fprintln(os.Stderr, "trailcheck:", err)
		return 2
	}

	if *jsonOut {
		type jsonDiag struct {
			File     string `json:"file"`
			Line     int    `json:"line"`
			Col      int    `json:"col"`
			Analyzer string `json:"analyzer"`
			Message  string `json:"message"`
		}
		out := make([]jsonDiag, 0, len(diags))
		for _, d := range diags {
			out = append(out, jsonDiag{
				File: d.Pos.Filename, Line: d.Pos.Line, Col: d.Pos.Column,
				Analyzer: d.Analyzer, Message: d.Message,
			})
		}
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(out); err != nil {
			fmt.Fprintln(os.Stderr, "trailcheck:", err)
			return 2
		}
	} else {
		for _, d := range diags {
			fmt.Fprintln(os.Stderr, d)
		}
	}
	if len(diags) > 0 {
		return 1
	}
	return 0
}
