// premalint runs the repository's domain-invariant analyzers (package
// repro/internal/lint) over Go packages and exits non-zero on any
// unsuppressed finding. It is the CI tripwire for the conventions the
// reproduction's guarantees rest on: replay determinism, facade-only
// consumers, init-time registries, must-check errors, no-copy state
// structs, and no internal/ exports that only tests use.
//
// Usage:
//
//	premalint [-list] [-only analyzer[,analyzer]] [packages]
//
// Package arguments are directories; "dir/..." lints the whole tree
// under dir (skipping testdata, like the go tool). With no arguments
// it lints the enclosing module ("./...").
//
// Findings can be suppressed per line with
//
//	//premalint:ignore <analyzer> <reason>
//
// on the offending line or the line above; premalint -list shows the
// analyzer names the directive accepts.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"

	"repro/internal/lint" //premalint:ignore facadeimport the lint CLI is developer tooling over the analysis framework, not a simulation consumer
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// run is the testable entry point: it parses flags, loads the
// requested packages and prints findings, returning the process exit
// code (0 clean, 1 findings, 2 usage/load errors).
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("premalint", flag.ContinueOnError)
	fs.SetOutput(stderr)
	list := fs.Bool("list", false, "list the available analyzers and exit")
	only := fs.String("only", "", "comma-separated analyzer names to run (default: all)")
	if err := fs.Parse(args); err != nil {
		return 2
	}

	analyzers := lint.Analyzers()
	if *list {
		for _, a := range analyzers {
			fmt.Fprintf(stdout, "%-14s %s\n", a.Name, a.Doc)
		}
		return 0
	}
	if *only != "" {
		keep := map[string]bool{}
		for _, name := range strings.Split(*only, ",") {
			name = strings.TrimSpace(name)
			if name == "" {
				continue
			}
			found := false
			for _, a := range analyzers {
				if a.Name == name {
					found = true
					break
				}
			}
			if !found {
				fmt.Fprintf(stderr, "premalint: unknown analyzer %q (see -list)\n", name)
				return 2
			}
			keep[name] = true
		}
		var filtered []*lint.Analyzer
		for _, a := range analyzers {
			if keep[a.Name] {
				filtered = append(filtered, a)
			}
		}
		analyzers = filtered
	}

	targets := fs.Args()
	if len(targets) == 0 {
		targets = []string{"./..."}
	}

	cwd, err := os.Getwd()
	if err != nil {
		fmt.Fprintf(stderr, "premalint: %v\n", err)
		return 2
	}
	modRoot, err := lint.FindModuleRoot(cwd)
	if err != nil {
		fmt.Fprintf(stderr, "premalint: %v\n", err)
		return 2
	}
	loader, err := lint.NewLoader(modRoot)
	if err != nil {
		fmt.Fprintf(stderr, "premalint: %v\n", err)
		return 2
	}

	var pkgs []*lint.Package
	seen := map[string]bool{}
	add := func(loaded ...*lint.Package) {
		for _, p := range loaded {
			if !seen[p.Path] {
				seen[p.Path] = true
				pkgs = append(pkgs, p)
			}
		}
	}
	for _, target := range targets {
		dir, recursive := target, false
		if rest, ok := strings.CutSuffix(target, "/..."); ok {
			dir, recursive = rest, true
			if dir == "" || dir == "." {
				dir = modRoot
			}
		}
		if recursive {
			walked, err := loader.Walk(dir)
			if err != nil {
				fmt.Fprintf(stderr, "premalint: %s: %v\n", target, err)
				return 2
			}
			add(walked...)
			continue
		}
		p, err := loader.LoadDir(dir)
		if err != nil {
			fmt.Fprintf(stderr, "premalint: %s: %v\n", target, err)
			return 2
		}
		add(p)
	}

	findings := lint.Lint(pkgs, analyzers)
	for _, f := range findings {
		f.Pos.Filename = relPath(cwd, f.Pos.Filename)
		fmt.Fprintln(stdout, f)
	}
	if len(findings) > 0 {
		fmt.Fprintf(stderr, "premalint: %d finding(s)\n", len(findings))
		return 1
	}
	return 0
}

// relPath shortens absolute finding paths relative to the working
// directory when possible.
func relPath(base, path string) string {
	rel, err := filepath.Rel(base, path)
	if err != nil || strings.HasPrefix(rel, "..") {
		return path
	}
	return rel
}
