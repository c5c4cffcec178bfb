// Package lint is premalint's analysis framework: a stdlib-only
// (go/parser + go/ast + go/types) static-analysis pass that mechanically
// enforces the repository's domain invariants — determinism of the
// simulation paths, facade-only consumers, init-time-only registries,
// must-check error APIs, no-copy state structs, and an internal/ export
// surface that non-test code uses.
//
// The framework deliberately avoids golang.org/x/tools: a Loader walks
// the module, parses every non-test package and type-checks it with a
// recursive module-internal importer (standard-library imports resolve
// through importer.Default), and each Analyzer inspects the typed ASTs
// and reports Findings. Findings can be suppressed per line with a
//
//	//premalint:ignore <analyzer> <reason>
//
// directive on the offending line or the line directly above it; the
// reason is mandatory so every suppression documents why the invariant
// does not apply. See the "Static analysis" section of the README for
// the analyzer catalogue.
package lint

import (
	"fmt"
	"go/token"
	"sort"
)

// Finding is one rule violation at one source position.
type Finding struct {
	// Pos locates the violation (file, line, column).
	Pos token.Position
	// Analyzer names the rule that fired (see Analyzer.Name).
	Analyzer string
	// Message explains the violation and, where possible, the fix.
	Message string
}

// String renders the finding in the conventional file:line:col form
// consumed by editors and CI logs.
func (f Finding) String() string {
	return fmt.Sprintf("%s: [%s] %s", f.Pos, f.Analyzer, f.Message)
}

// Analyzer is one named invariant check. Run inspects a single
// type-checked package and returns every violation it finds;
// suppression directives are applied afterwards by Lint, so analyzers
// never need to know about them.
type Analyzer struct {
	// Name identifies the analyzer in findings, -only filters and
	// ignore directives. Lowercase, no spaces.
	Name string
	// Doc is the one-line invariant statement shown by premalint -list.
	Doc string
	// Run reports the violations in one package.
	Run func(p *Package) []Finding
}

// Analyzers returns the full premalint analyzer set, sorted by name.
func Analyzers() []*Analyzer {
	all := []*Analyzer{
		determinismAnalyzer,
		expGoldenAnalyzer,
		floatorderAnalyzer,
		facadeImportAnalyzer,
		registryOnceAnalyzer,
		errDropAnalyzer,
		stateCopyAnalyzer,
		testOnlyAnalyzer,
		timerInSimAnalyzer,
	}
	sort.Slice(all, func(i, j int) bool { return all[i].Name < all[j].Name })
	return all
}

// byName returns the analyzer with the given name from the full set, or
// nil if no such analyzer exists.
func byName(name string) *Analyzer {
	for _, a := range Analyzers() {
		if a.Name == name {
			return a
		}
	}
	return nil
}

// Lint runs the analyzers over the packages, applies the per-line
// ignore directives, and returns the surviving findings sorted by
// position. Malformed directives (missing analyzer or reason) and
// directives naming unknown analyzers are themselves reported, under
// the pseudo-analyzer name "premalint".
func Lint(pkgs []*Package, analyzers []*Analyzer) []Finding {
	var out []Finding
	for _, p := range pkgs {
		dirs := directivesFor(p)
		out = append(out, dirs.problems...)
		for _, a := range analyzers {
			for _, f := range a.Run(p) {
				if dirs.suppressed(f) {
					continue
				}
				out = append(out, f)
			}
		}
	}
	sort.Slice(out, func(i, j int) bool {
		a, b := out[i], out[j]
		if a.Pos.Filename != b.Pos.Filename {
			return a.Pos.Filename < b.Pos.Filename
		}
		if a.Pos.Line != b.Pos.Line {
			return a.Pos.Line < b.Pos.Line
		}
		if a.Pos.Column != b.Pos.Column {
			return a.Pos.Column < b.Pos.Column
		}
		return a.Analyzer < b.Analyzer
	})
	return out
}
