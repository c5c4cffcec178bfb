package exp

import (
	"os"
	"path/filepath"
	"slices"
	"testing"

	"repro/internal/workload"
)

// diskSuite builds a fast suite with a disk cache attached to dir.
func diskSuite(t *testing.T, dir string) *Suite {
	t.Helper()
	s := fastSuite(t)
	s.Runs = 3
	if err := s.AttachDiskCache(dir); err != nil {
		t.Fatal(err)
	}
	return s
}

// TestDiskCacheWarmRunIsByteIdentical is the persistence contract: a
// second suite attached to the same directory answers every engine run
// from disk — zero simulations — and reproduces bit-identical results.
func TestDiskCacheWarmRunIsByteIdentical(t *testing.T) {
	dir := t.TempDir()
	spec := workload.Spec{Tasks: 4}
	cfgs := []SchedulerConfig{NP("FCFS"), DynamicCkpt("PREMA"), StaticKill("SJF")}

	cold := diskSuite(t, dir)
	first, err := cold.RunConfigs(cfgs, spec, cold.Runs)
	if err != nil {
		t.Fatal(err)
	}
	if cold.Simulations() == 0 {
		t.Fatal("cold run did not simulate")
	}
	if err := cold.FlushDiskCache(); err != nil {
		t.Fatal(err)
	}

	warm := diskSuite(t, dir)
	second, err := warm.RunConfigs(cfgs, spec, warm.Runs)
	if err != nil {
		t.Fatal(err)
	}
	if got := warm.Simulations(); got != 0 {
		t.Errorf("warm run simulated %d times; every run should come from disk", got)
	}
	for i := range first {
		if fingerprint(first[i]) != fingerprint(second[i]) {
			t.Errorf("%s: warm result diverges from cold", cfgs[i].Label)
		}
	}
}

// TestDiskCacheIgnoresCorruptAndMismatched proves the fail-open policy:
// garbage bytes and fingerprint mismatches both start cold instead of
// erroring or poisoning results.
func TestDiskCacheIgnoresCorruptAndMismatched(t *testing.T) {
	dir := t.TempDir()
	spec := workload.Spec{Tasks: 3}

	s := diskSuite(t, dir)
	if _, err := s.RunMulti(NP("FCFS"), spec, s.Runs); err != nil {
		t.Fatal(err)
	}
	if err := s.FlushDiskCache(); err != nil {
		t.Fatal(err)
	}

	// Corrupt the file in place: the warm suite must start cold.
	if err := os.WriteFile(s.diskPath, []byte("not a gob stream"), 0o644); err != nil {
		t.Fatal(err)
	}
	corrupt := diskSuite(t, dir)
	if _, err := corrupt.RunMulti(NP("FCFS"), spec, corrupt.Runs); err != nil {
		t.Fatal(err)
	}
	if corrupt.Simulations() == 0 {
		t.Error("corrupt cache file was not ignored")
	}

	// A different NPU configuration maps to a different file; the
	// fingerprint partition keeps it cold and leaves the original file
	// alone.
	other := fastSuite(t)
	other.Runs = 3
	other.NPU.SW = 64
	other.NPU.SH = 64
	gen, err := workload.NewGenerator(other.NPU, other.ProfileSeed)
	if err != nil {
		t.Fatal(err)
	}
	other.Gen = gen
	if err := other.AttachDiskCache(dir); err != nil {
		t.Fatal(err)
	}
	if other.diskPath == s.diskPath {
		t.Error("different NPU configurations share a cache file")
	}
	if _, err := other.RunMulti(NP("FCFS"), spec, other.Runs); err != nil {
		t.Fatal(err)
	}
	if other.Simulations() == 0 {
		t.Error("mismatched configuration was answered from another configuration's cache")
	}
}

// TestDiskCachePrunesOtherVersions pins the directory's upkeep: attaching
// deletes every cache file of another format version, unversioned names
// of the first format included, and keeps the current version's files of
// other configurations and every file that is not a cache file; the warm
// run stays byte-identical.
func TestDiskCachePrunesOtherVersions(t *testing.T) {
	dir := t.TempDir()
	spec := workload.Spec{Tasks: 3}
	cfgs := []SchedulerConfig{NP("FCFS"), DynamicCkpt("PREMA")}

	other := fastSuite(t)
	other.NPU.SW, other.NPU.SH = 64, 64
	gen, err := workload.NewGenerator(other.NPU, other.ProfileSeed)
	if err != nil {
		t.Fatal(err)
	}
	other.Gen = gen
	if err := other.AttachDiskCache(dir); err != nil {
		t.Fatal(err)
	}
	if _, err := other.RunMulti(NP("FCFS"), spec, 1); err != nil {
		t.Fatal(err)
	}
	if err := other.FlushDiskCache(); err != nil {
		t.Fatal(err)
	}
	stale := []string{"prema-cache-0123456789abcdef.gob", "prema-cache-v1-0123456789abcdef.gob",
		"prema-cache-v2-0123456789abcdef.gob"}
	for _, name := range append(slices.Clone(stale), "notes.gob") {
		if err := os.WriteFile(filepath.Join(dir, name), []byte("x"), 0o644); err != nil {
			t.Fatal(err)
		}
	}

	cold := diskSuite(t, dir)
	first, err := cold.RunConfigs(cfgs, spec, cold.Runs)
	if err != nil {
		t.Fatal(err)
	}
	if err := cold.FlushDiskCache(); err != nil {
		t.Fatal(err)
	}
	names := func() []string {
		entries, err := os.ReadDir(dir)
		if err != nil {
			t.Fatal(err)
		}
		var out []string
		for _, e := range entries {
			out = append(out, e.Name())
		}
		return out
	}
	want := []string{filepath.Base(cold.diskPath), filepath.Base(other.diskPath), "notes.gob"}
	slices.Sort(want)
	if got := names(); !slices.Equal(got, want) {
		t.Errorf("cache directory holds %v, want %v", got, want)
	}

	warm := diskSuite(t, dir)
	second, err := warm.RunConfigs(cfgs, spec, warm.Runs)
	if err != nil {
		t.Fatal(err)
	}
	if got := warm.Simulations(); got != 0 {
		t.Errorf("warm run simulated %d times; every run should come from disk", got)
	}
	for i := range first {
		if fingerprint(first[i]) != fingerprint(second[i]) {
			t.Errorf("%s: warm result diverges from cold", cfgs[i].Label)
		}
	}
	if got := names(); !slices.Equal(got, want) {
		t.Errorf("after the warm run the cache directory holds %v, want %v", got, want)
	}
}

// TestDiskCacheRequiresCache pins the attach precondition.
func TestDiskCacheRequiresCache(t *testing.T) {
	s := fastSuite(t)
	s.Cache = nil
	if err := s.AttachDiskCache(t.TempDir()); err == nil {
		t.Error("attaching a disk cache to a cacheless suite should error")
	}
	// Flush without attach is a no-op.
	s2 := fastSuite(t)
	if err := s2.FlushDiskCache(); err != nil {
		t.Error("flush without attach should be a no-op:", err)
	}
}
