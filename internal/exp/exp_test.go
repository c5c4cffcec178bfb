package exp

import (
	"runtime"
	"strconv"
	"strings"
	"testing"

	"repro/internal/workload"
)

// fastSuite returns a suite with a reduced run count so the integration
// tests stay quick while preserving the qualitative outcomes.
func fastSuite(t *testing.T) *Suite {
	t.Helper()
	s, err := NewSuite()
	if err != nil {
		t.Fatal(err)
	}
	s.Runs = 6
	return s
}

func TestTableRendering(t *testing.T) {
	tbl := &Table{
		ID: "x", Title: "demo",
		Headers: []string{"a", "b"},
		Note:    "note",
	}
	tbl.AddRow("1", "2")
	tbl.AddRow("longer", "cell,with\"comma")
	s := tbl.String()
	if !strings.Contains(s, "demo") || !strings.Contains(s, "longer") || !strings.Contains(s, "paper: note") {
		t.Errorf("table render incomplete:\n%s", s)
	}
	csv := tbl.CSV()
	if !strings.Contains(csv, `"cell,with""comma"`) {
		t.Errorf("CSV escaping wrong:\n%s", csv)
	}
	if !strings.HasPrefix(csv, "a,b\n") {
		t.Errorf("CSV header wrong:\n%s", csv)
	}
}

func TestRegistryCompleteness(t *testing.T) {
	// Every evaluation figure/table of the paper must have an entry.
	want := []string{
		"fig1", "fig2", "fig5", "fig6", "fig7", "fig9", "fig10",
		"fig11", "fig12", "fig13", "fig14", "fig15",
		"accuracy", "predictors", "oracle", "sensitivity",
		"threshold", "overhead", "determinism",
		"cluster", "killgranularity", "energy", "loadcurve", "spill", "batching",
	}
	ids := IDs()
	have := map[string]bool{}
	for _, id := range ids {
		have[id] = true
	}
	for _, w := range want {
		if !have[w] {
			t.Errorf("experiment %s not registered", w)
		}
	}
	if _, err := ByID("fig11"); err != nil {
		t.Error(err)
	}
	if _, err := ByID("nope"); err == nil {
		t.Error("unknown experiment should error")
	}
	if len(All()) != len(ids) {
		t.Error("All() inconsistent with IDs()")
	}
}

func TestSchedulerConfigConstructors(t *testing.T) {
	if NP("FCFS").Label != "NP-FCFS" || NP("FCFS").Preemptive {
		t.Error("NP constructor wrong")
	}
	if c := StaticCkpt("SJF"); c.Label != "Static-SJF" || !c.Preemptive || c.Selector != "static-checkpoint" {
		t.Error("StaticCkpt constructor wrong")
	}
	if c := DynamicCkpt("PREMA"); c.Selector != "dynamic-checkpoint" {
		t.Error("DynamicCkpt constructor wrong")
	}
	if c := StaticKill("HPF"); c.Selector != "static-kill" {
		t.Error("StaticKill constructor wrong")
	}
	if c := DynamicKill("HPF"); c.Selector != "dynamic-kill" {
		t.Error("DynamicKill constructor wrong")
	}
}

func TestRunMultiComparesIdenticalWorkloads(t *testing.T) {
	s := fastSuite(t)
	a, err := s.RunMulti(NP("FCFS"), workload.Spec{Tasks: 4}, 2)
	if err != nil {
		t.Fatal(err)
	}
	b, err := s.RunMulti(NP("FCFS"), workload.Spec{Tasks: 4}, 2)
	if err != nil {
		t.Fatal(err)
	}
	if a.Agg.ANTT != b.Agg.ANTT || a.Agg.STP != b.Agg.STP {
		t.Error("repeated identical configuration should reproduce exactly")
	}
	if len(a.NTTs) != 8 {
		t.Errorf("pooled %d NTTs, want 2 runs x 4", len(a.NTTs))
	}
}

// parse pulls a float out of a formatted cell like "7.81x" or "12.3".
func parse(t *testing.T, cell string) float64 {
	t.Helper()
	cell = strings.TrimSuffix(strings.TrimSpace(cell), "%")
	cell = strings.TrimSuffix(cell, "x")
	v, err := strconv.ParseFloat(cell, 64)
	if err != nil {
		t.Fatalf("cannot parse %q: %v", cell, err)
	}
	return v
}

func TestFig11Shape(t *testing.T) {
	s := fastSuite(t)
	tables, err := runFig11(s)
	if err != nil {
		t.Fatal(err)
	}
	tbl := tables[0]
	row := map[string][]string{}
	for _, r := range tbl.Rows {
		row[r[0]] = r
	}
	// SJF must deliver the best ANTT improvement among non-preemptive
	// policies, PREMA close behind, both clearly above FCFS.
	sjf := parse(t, row["NP-SJF"][4])
	prema := parse(t, row["NP-PREMA"][4])
	fcfs := parse(t, row["NP-FCFS"][4])
	if !(sjf > prema*0.9 && prema > 1.2 && fcfs == 1.0) {
		t.Errorf("fig11 ANTT ordering off: SJF %.2f PREMA %.2f FCFS %.2f", sjf, prema, fcfs)
	}
	// PREMA should reach a large fraction of SJF's ANTT improvement
	// (the paper reports 92%).
	if prema/sjf < 0.6 {
		t.Errorf("PREMA at %.0f%% of SJF's ANTT, paper reports ~92%%", prema/sjf*100)
	}
	// And PREMA should beat SJF on fairness.
	if parse(t, row["NP-PREMA"][5]) <= parse(t, row["NP-SJF"][5])*0.8 {
		t.Errorf("PREMA fairness should be competitive with or better than SJF")
	}
}

func TestFig12Headline(t *testing.T) {
	s := fastSuite(t)
	tables, err := runFig12(s)
	if err != nil {
		t.Fatal(err)
	}
	tbl := tables[0]
	row := map[string][]string{}
	for _, r := range tbl.Rows {
		row[r[0]] = r
	}
	dynPREMA := row["Dynamic-PREMA"]
	if dynPREMA == nil {
		t.Fatal("Dynamic-PREMA row missing")
	}
	antt := parse(t, dynPREMA[4])
	fair := parse(t, dynPREMA[5])
	stp := parse(t, dynPREMA[6])
	// Paper: 7.8x / 19.6x / 1.4x. The reproduction must show the same
	// direction and rough magnitude.
	if antt < 3 {
		t.Errorf("Dynamic-PREMA ANTT improvement %.2fx too low (paper ~7.8x)", antt)
	}
	if fair < 3 {
		t.Errorf("Dynamic-PREMA fairness improvement %.2fx too low (paper ~19.6x)", fair)
	}
	if stp < 1.15 {
		t.Errorf("Dynamic-PREMA STP improvement %.2fx too low (paper ~1.4x)", stp)
	}
	// Dynamic must beat static for PREMA on ANTT (Algorithm 3's point).
	if sa := parse(t, row["Static-PREMA"][4]); antt <= sa*0.95 {
		t.Errorf("dynamic (%.2fx) should outperform static (%.2fx) for PREMA", antt, sa)
	}
}

func TestFig13Monotone(t *testing.T) {
	s := fastSuite(t)
	tables, err := runFig13(s)
	if err != nil {
		t.Fatal(err)
	}
	tbl := tables[0]
	// Violation rates must decrease monotonically as targets loosen,
	// for every policy column.
	for col := 1; col < len(tbl.Headers); col++ {
		prev := 101.0
		for _, r := range tbl.Rows {
			v := parse(t, r[col])
			if v > prev+1e-9 {
				t.Errorf("%s: violation rate rose from %.1f to %.1f", tbl.Headers[col], prev, v)
			}
			prev = v
		}
	}
	// PREMA with dynamic preemption must beat NP-FCFS at the tight end.
	first := tbl.Rows[1] // target N=4
	fcfs := parse(t, first[1])
	prema := parse(t, first[len(first)-1])
	if prema >= fcfs {
		t.Errorf("Dynamic-PREMA SLA violations (%.1f%%) should undercut NP-FCFS (%.1f%%)", prema, fcfs)
	}
}

func TestFig5MechanismCharacteristics(t *testing.T) {
	s := fastSuite(t)
	tables, err := runFig5(s)
	if err != nil {
		t.Fatal(err)
	}
	lat, wait := tables[0], tables[1]
	avgLat := lat.Rows[len(lat.Rows)-1]
	avgWait := wait.Rows[len(wait.Rows)-1]
	kill, ckpt, drain := parse(t, avgLat[2]), parse(t, avgLat[3]), parse(t, avgLat[4])
	if kill != 0 || drain != 0 {
		t.Errorf("KILL/DRAIN preemption latency must be zero, got %v/%v", kill, drain)
	}
	if ckpt < 1 || ckpt > 80 {
		t.Errorf("CHECKPOINT latency %.1fus outside the paper's microseconds regime", ckpt)
	}
	wKill, wCkpt, wDrain := parse(t, avgWait[2]), parse(t, avgWait[3]), parse(t, avgWait[4])
	if wDrain < 10*wCkpt {
		t.Errorf("DRAIN wait (%.0fus) should dwarf CHECKPOINT wait (%.0fus)", wDrain, wCkpt)
	}
	if wKill > wCkpt {
		t.Errorf("KILL wait (%.0f) should not exceed CHECKPOINT wait (%.0f)", wKill, wCkpt)
	}
	if wDrain < 1000 {
		t.Errorf("DRAIN wait %.0fus; paper reports ~5.3ms average", wDrain)
	}
}

func TestAccuracyHeadline(t *testing.T) {
	s := fastSuite(t)
	tables, err := runAccuracy(s)
	if err != nil {
		t.Fatal(err)
	}
	tbl := tables[0]
	last := tbl.Rows[len(tbl.Rows)-1]
	if last[0] != "Overall" {
		t.Fatal("missing overall row")
	}
	overallErr := parse(t, last[1])
	if overallErr > 6 {
		t.Errorf("overall prediction error %.2f%%, paper reports ~1.6%%", overallErr)
	}
	corr := parse(t, last[5])
	if corr < 0.95 {
		t.Errorf("prediction correlation %.3f below the paper's ~0.98", corr)
	}
}

func TestFig1Direction(t *testing.T) {
	s := fastSuite(t)
	tables, err := runFig1(s)
	if err != nil {
		t.Fatal(err)
	}
	co := tables[0].Rows[3]
	if gain := parse(t, co[3]); gain <= 1.0 {
		t.Errorf("co-location should raise throughput, got %.2fx", gain)
	}
	if cost := parse(t, co[4]); cost <= 1.0 {
		t.Errorf("co-location should cost latency, got %.2fx", cost)
	}
}

// TestFig14Allocs: fig14 builds one slab of entries per (model, run)
// and refills it for each of its three schedulers. Its second run on a
// fresh suite at Runs 4, whose programs the first run compiled, allocates
// at most 2.2 MB; with a new entry and cursor per request per scheduler
// it allocated 3.30 MB. The first run also pays for compiling fig14's
// programs (about 0.7 MB), which this pin leaves out. Skipped in -short:
// under -race its two runs take half a minute.
func TestFig14Allocs(t *testing.T) {
	if testing.Short() {
		t.Skip("runs fig14 twice")
	}
	const ceiling = 2_200_000
	s, err := NewSuite()
	if err != nil {
		t.Fatal(err)
	}
	s.Runs = 4
	if _, err := runFig14(s); err != nil {
		t.Fatal(err)
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	if _, err := runFig14(s); err != nil {
		t.Fatal(err)
	}
	runtime.ReadMemStats(&after)
	got := after.TotalAlloc - before.TotalAlloc
	t.Logf("fig14 on a suite that has compiled its programs: %d bytes", got)
	if got > ceiling {
		t.Errorf("fig14 allocated %d bytes, want at most %d", got, ceiling)
	}
}

// TestDeterminismAllocs: the determinism experiment profiles its 300
// layer configurations (1000 samples each) into one kept buffer, so on a
// fresh suite it allocates at most 0.5 MB. With a fresh sample slice per
// layer it allocated 2.48 MB.
func TestDeterminismAllocs(t *testing.T) {
	const ceiling = 500_000
	s, err := NewSuite()
	if err != nil {
		t.Fatal(err)
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	if _, err := runDeterminism(s); err != nil {
		t.Fatal(err)
	}
	runtime.ReadMemStats(&after)
	got := after.TotalAlloc - before.TotalAlloc
	t.Logf("determinism on a fresh suite: %d bytes", got)
	if got > ceiling {
		t.Errorf("determinism allocated %d bytes, want at most %d", got, ceiling)
	}
}
