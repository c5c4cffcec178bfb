package main

import (
	"bytes"
	"strings"
	"testing"
)

// TestListAnalyzers checks -list names every analyzer with its
// invariant, and exits zero without linting anything.
func TestListAnalyzers(t *testing.T) {
	var out, errb bytes.Buffer
	if code := run([]string{"-list"}, &out, &errb); code != 0 {
		t.Fatalf("-list exit = %d, stderr: %s", code, errb.String())
	}
	for _, name := range []string{"determinism", "errdrop", "facadeimport", "registryonce", "statecopy", "testonly", "timerinsim"} {
		if !strings.Contains(out.String(), name) {
			t.Errorf("-list output missing analyzer %q:\n%s", name, out.String())
		}
	}
}

// TestSeededViolation proves the tripwire trips: the seeded-violation
// fixture must produce a determinism finding and a non-zero exit.
func TestSeededViolation(t *testing.T) {
	var out, errb bytes.Buffer
	code := run([]string{"../../internal/lint/testdata/broken"}, &out, &errb)
	if code != 1 {
		t.Fatalf("exit = %d, want 1; stdout: %s stderr: %s", code, out.String(), errb.String())
	}
	if !strings.Contains(out.String(), "[determinism]") ||
		!strings.Contains(out.String(), "wall clock") {
		t.Errorf("expected a determinism wall-clock finding, got:\n%s", out.String())
	}
}

// TestOnlyFilter checks -only restricts the run: the broken fixture
// seeds no errdrop violation, so an errdrop-only run is clean.
func TestOnlyFilter(t *testing.T) {
	var out, errb bytes.Buffer
	if code := run([]string{"-only", "errdrop", "../../internal/lint/testdata/broken"}, &out, &errb); code != 0 {
		t.Fatalf("-only errdrop exit = %d; stdout: %s stderr: %s", code, out.String(), errb.String())
	}
	var out2, errb2 bytes.Buffer
	if code := run([]string{"-only", "determinism", "../../internal/lint/testdata/broken"}, &out2, &errb2); code != 1 {
		t.Fatalf("-only determinism exit = %d, want 1", code)
	}
}

// TestOnlyUnknownAnalyzer checks flag validation: naming a nonexistent
// analyzer is a usage error, not a silent no-op.
func TestOnlyUnknownAnalyzer(t *testing.T) {
	var out, errb bytes.Buffer
	if code := run([]string{"-only", "nosuch"}, &out, &errb); code != 2 {
		t.Fatalf("exit = %d, want 2", code)
	}
	if !strings.Contains(errb.String(), "unknown analyzer") {
		t.Errorf("stderr should name the unknown analyzer: %s", errb.String())
	}
}

// TestBadFlag checks flag-parse failures exit 2.
func TestBadFlag(t *testing.T) {
	var out, errb bytes.Buffer
	if code := run([]string{"-definitely-not-a-flag"}, &out, &errb); code != 2 {
		t.Fatalf("exit = %d, want 2", code)
	}
}

// TestRepoClean is the acceptance invariant: the repository itself
// lints clean (every real finding fixed or explicitly suppressed with
// a reason).
func TestRepoClean(t *testing.T) {
	var out, errb bytes.Buffer
	if code := run([]string{"./..."}, &out, &errb); code != 0 {
		t.Fatalf("premalint ./... exit = %d:\n%s%s", code, out.String(), errb.String())
	}
}
