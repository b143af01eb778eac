// Command repolint runs the repo's determinism/alloc static-analysis suite
// (internal/lint) over the module and exits nonzero on any unsuppressed
// finding. CI runs it before the test jobs, so the bit-identical contract
// — no wall-clock reads, no unseeded randomness, no order-dependent map
// ranges, fan-out only through internal/parallel, nil-guarded obs emission
// — is a checked property of the code, not a hope backed by seed sampling.
//
// Patterns mean what they mean to the go command (lint.LoadModule runs
// `go list` in the working directory), so ./... stops at a nested module's
// go.mod: the bench module is linted by a run inside it.
//
// Usage:
//
//	go run ./cmd/repolint ./...              # whole module (the CI invocation)
//	go -C bench run repro/cmd/repolint ./... # the bench module (also CI)
//	go run ./cmd/repolint ./internal/...     # one subtree
//	go run ./cmd/repolint -list              # registered checks
//
// Suppress a finding with a justified directive on (or directly above) the
// offending line:
//
//	e.wallStart = time.Now() //lint:allow wallclock Wall annotation only
//
// Unknown check names, missing justifications, and directives that
// suppress nothing are themselves findings.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"

	"repro/internal/lint"
)

func main() {
	list := flag.Bool("list", false, "print the registered checks and exit")
	flag.Parse()
	if *list {
		listChecks(os.Stdout)
		return
	}
	pkgs, err := lint.LoadModule(".", flag.Args()...)
	if err != nil {
		fmt.Fprintln(os.Stderr, "repolint:", err)
		os.Exit(2)
	}
	res := lint.Run(pkgs, lint.Analyzers())
	for _, d := range res.Diags {
		if !d.Suppressed {
			fmt.Println(d)
		}
	}
	fmt.Println(summary(res))
	if res.Findings > 0 {
		os.Exit(1)
	}
}

// listChecks prints one "name: doc" line per registered check — the output
// the registry keep-in-sync test holds against the README's check list.
func listChecks(w io.Writer) {
	for _, a := range lint.Analyzers() {
		fmt.Fprintf(w, "%s: %s\n", a.Name, a.Doc)
	}
}

// summary renders the one-line verdict, counting suppressions so a quiet
// run still shows how many documented exemptions are in force.
func summary(res *lint.Result) string {
	return fmt.Sprintf("repolint: %d findings, %d suppressed, %d packages",
		res.Findings, res.Suppressed, res.Packages)
}
