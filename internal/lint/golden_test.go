package lint

// golden_test.go is the analyzer test harness: each analyzer has a
// fixture package under testdata/src annotated in-source with
//
//	// want <analyzer>: <message substring>
//
// comments on the lines findings are expected on. The harness runs the
// analyzer (with suppression directives applied, so each fixture's
// suppressed case doubles as a directive test) and diffs the findings
// against the annotations in both directions: every want must be
// matched by a finding and every finding by a want.

import (
	"fmt"
	"path/filepath"
	"strings"
	"testing"
)

// want is one expected finding parsed from a fixture annotation.
type want struct {
	file     string
	line     int
	analyzer string
	substr   string
}

func TestGoldenFixtures(t *testing.T) {
	modRoot, err := FindModuleRoot(".")
	if err != nil {
		t.Fatal(err)
	}
	loader, err := NewLoader(modRoot)
	if err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		analyzer string
		dir      string
	}{
		{"determinism", "testdata/src/determinism"},
		{"expgolden", "testdata/src/expgolden"},
		{"floatorder", "testdata/src/floatorder"},
		{"facadeimport", "testdata/src/facade/cmd/app"},
		{"registryonce", "testdata/src/registryonce"},
		{"errdrop", "testdata/src/errdrop"},
		{"statecopy", "testdata/src/statecopy"},
		{"testonly", "testdata/src/testonly"},
		{"timerinsim", "testdata/src/timerinsim"},
	}
	for _, tc := range cases {
		t.Run(tc.analyzer, func(t *testing.T) {
			a := byName(tc.analyzer)
			if a == nil {
				t.Fatalf("no analyzer named %q", tc.analyzer)
			}
			pkg, err := loader.LoadDir(tc.dir)
			if err != nil {
				t.Fatal(err)
			}
			for _, terr := range pkg.TypeErrors {
				t.Errorf("fixture must type-check cleanly: %v", terr)
			}
			checkGolden(t, pkg, a)
		})
	}
}

func checkGolden(t *testing.T, pkg *Package, a *Analyzer) {
	t.Helper()
	wants := parseWants(t, pkg)
	findings := Lint([]*Package{pkg}, []*Analyzer{a})

	matched := make([]bool, len(wants))
	for _, f := range findings {
		ok := false
		for i, w := range wants {
			if w.file == f.Pos.Filename && w.line == f.Pos.Line &&
				w.analyzer == f.Analyzer && strings.Contains(f.Message, w.substr) {
				matched[i] = true
				ok = true
			}
		}
		if !ok {
			t.Errorf("unexpected finding: %s", f)
		}
	}
	for i, w := range wants {
		if !matched[i] {
			t.Errorf("%s:%d: missing [%s] finding containing %q",
				filepath.Base(w.file), w.line, w.analyzer, w.substr)
		}
	}
}

// parseWants extracts the `// want <analyzer>: <substring>` annotations
// from a fixture package's comments.
func parseWants(t *testing.T, pkg *Package) []want {
	t.Helper()
	var wants []want
	for _, f := range pkg.Files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				rest, ok := strings.CutPrefix(c.Text, "// want ")
				if !ok {
					continue
				}
				analyzer, substr, ok := strings.Cut(rest, ": ")
				if !ok {
					t.Fatalf("%s: malformed want comment %q", pkg.Fset.Position(c.Pos()), c.Text)
				}
				pos := pkg.Fset.Position(c.Pos())
				wants = append(wants, want{
					file:     pos.Filename,
					line:     pos.Line,
					analyzer: strings.TrimSpace(analyzer),
					substr:   strings.TrimSpace(substr),
				})
			}
		}
	}
	if len(wants) == 0 {
		t.Fatalf("fixture %s has no want annotations", pkg.Path)
	}
	return wants
}

// TestAnalyzersHaveDocs keeps the -list output useful: every analyzer
// carries a name and a one-line invariant statement.
func TestAnalyzersHaveDocs(t *testing.T) {
	seen := map[string]bool{}
	for _, a := range Analyzers() {
		if a.Name == "" || a.Doc == "" || a.Run == nil {
			t.Errorf("analyzer %+v incomplete", a)
		}
		if seen[a.Name] {
			t.Errorf("duplicate analyzer name %q", a.Name)
		}
		seen[a.Name] = true
	}
	if len(seen) < 6 {
		t.Errorf("expected at least 6 analyzers, have %d", len(seen))
	}
}

// TestLintOrdering pins the deterministic finding order the CLI and CI
// logs rely on.
func TestLintOrdering(t *testing.T) {
	modRoot, err := FindModuleRoot(".")
	if err != nil {
		t.Fatal(err)
	}
	loader, err := NewLoader(modRoot)
	if err != nil {
		t.Fatal(err)
	}
	pkg, err := loader.LoadDir("testdata/src/determinism")
	if err != nil {
		t.Fatal(err)
	}
	fs := Lint([]*Package{pkg}, Analyzers())
	for i := 1; i < len(fs); i++ {
		a, b := fs[i-1], fs[i]
		key := func(f Finding) string {
			return fmt.Sprintf("%s:%06d:%06d:%s", f.Pos.Filename, f.Pos.Line, f.Pos.Column, f.Analyzer)
		}
		if key(a) > key(b) {
			t.Errorf("findings out of order: %s before %s", a, b)
		}
	}
}
