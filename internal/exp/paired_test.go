package exp

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// pairedIDs are the experiments that run several configurations on one
// drawn workload; testdata holds their tables at seed 1 and Runs 2, as
// rendered before each harness drew its workload once instead of once
// per configuration.
var pairedIDs = []string{"autoscale", "batching", "cluster", "energy", "fig5", "fig6", "fig14", "loadcurve", "spill"}

// pairedSuite is a fresh seed-1 suite at the given worker count and
// run count.
func pairedSuite(t *testing.T, workers, runs int) *Suite {
	t.Helper()
	s, err := NewSuite()
	if err != nil {
		t.Fatal(err)
	}
	s.Seed, s.Runs, s.Workers = 1, runs, workers
	return s
}

// renderExperiment runs one experiment and concatenates its tables'
// text renderings.
func renderExperiment(t *testing.T, s *Suite, id string) string {
	t.Helper()
	e, err := ByID(id)
	if err != nil {
		t.Fatal(err)
	}
	tables, err := e.Run(s)
	if err != nil {
		t.Fatalf("%s: %v", id, err)
	}
	var b strings.Builder
	for _, tbl := range tables {
		b.WriteString(tbl.String())
	}
	return b.String()
}

// TestPairedExperimentsMatchGolden: drawing each workload once and
// handing the same records to every configuration leaves every paired
// experiment's tables byte-identical, sequentially and on two workers.
// In -short mode it runs autoscale, batching, energy, fig14 and spill at
// Runs 1 on one and on two workers and requires equal tables instead,
// which under -race checks the records the workers share.
func TestPairedExperimentsMatchGolden(t *testing.T) {
	if testing.Short() {
		seq, par := pairedSuite(t, 1, 1), pairedSuite(t, 2, 1)
		for _, id := range []string{"autoscale", "batching", "energy", "fig14", "spill"} {
			if want, got := renderExperiment(t, seq, id), renderExperiment(t, par, id); got != want {
				t.Errorf("%s: two workers diverge from one\n--- one worker\n%s--- two workers\n%s", id, want, got)
			}
		}
		return
	}
	for _, workers := range []int{1, 2} {
		s := pairedSuite(t, workers, 2)
		for _, id := range pairedIDs {
			want, err := os.ReadFile(filepath.Join("testdata", id+".golden"))
			if err != nil {
				t.Fatal(err)
			}
			if got := renderExperiment(t, s, id); got != string(want) {
				t.Errorf("workers=%d %s: tables diverge from testdata\n--- want\n%s--- got\n%s", workers, id, want, got)
			}
		}
	}
}
