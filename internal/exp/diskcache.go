package exp

// diskcache.go persists the simulation-result cache across process
// lifetimes (the ROADMAP's on-disk persistence item): repeated premabench
// invocations share warm results the same way overlapping experiments
// share them within one process. The design constraints:
//
//   - Versioned: a cache file binds to a fingerprint of everything the
//     runKey does NOT capture — the disk format version, the NPU
//     configuration, and the generator's profile seed. A file whose
//     fingerprint mismatches is ignored wholesale; stale results can
//     never leak across configuration changes.
//   - Pruned: a file is named by its format version and a hash of its
//     fingerprint, and attaching deletes every cache file of another
//     format version (no build can read it again), so a directory shared
//     across versions holds one file per NPU configuration and profile
//     seed, not one per version that ever wrote to it.
//   - Fail-open: a missing, truncated, corrupt or concurrently rewritten
//     file is ignored (the run starts cold); persistence can slow a run
//     down, never poison it.
//   - Byte-identical: a warm run renders exactly the bytes a cold run
//     renders. Outcomes round-trip through an explicit snapshot encoding
//     (exact float bits via gob) of every field experiment reductions
//     consume.
//
// Reconstructed tasks carry no execution cursor (Exec is nil): cached
// outcomes are only ever aggregated (metrics averaging, task pooling,
// SLA/tail statistics), and no engine-cache consumer walks a completed
// task's program. Experiments that do need programs (the energy model)
// simulate outside the engine cache by construction.

import (
	"encoding/gob"
	"errors"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"strings"

	"repro/internal/metrics"
	"repro/internal/npu"
	"repro/internal/sched"
)

// diskFormatVersion invalidates every persisted cache when the snapshot
// schema or the outcome semantics change. Version 2 snapshots hold no
// preemption events. The version is part of the fingerprint and of the
// file name, so an older file is never opened (AttachDiskCache deletes
// it) and the run starts cold.
const diskFormatVersion = 2

// suiteFingerprint canonicalizes the suite-level cache version: format,
// NPU configuration (all scalar fields) and profile seed. Scheduler
// configuration and workload spec are per-entry (inside runKey) and so
// deliberately absent.
func suiteFingerprint(cfg npu.Config, profileSeed uint64) string {
	return fmt.Sprintf("v%d|npu=%#v|profile=%d", diskFormatVersion, cfg, profileSeed)
}

// diskKey mirrors runKey with exported fields for gob.
type diskKey struct {
	Policy     string
	Selector   string
	Preemptive bool
	SchedFP    string
	SpecFP     string
	Seed       uint64
	Run        int
}

// diskTask snapshots the completed-task fields experiment reductions
// consume. State is implicitly Finished; the execution cursor is not
// persisted (see the file comment).
type diskTask struct {
	ID       int
	Model    string
	Batch    int
	Priority sched.Priority

	Arrival         int64
	EstimatedCycles int64
	IsolatedCycles  int64

	Token  float64
	Waited int64

	Start         int64
	LastScheduled int64
	Completion    int64

	Preemptions      int
	CheckpointCycles int64
	WastedCycles     int64
	SavedBytes       int64
	PendingOverhead  int64
}

// diskOutcome snapshots one runOutcome.
type diskOutcome struct {
	Metrics metrics.Run
	Tasks   []diskTask
}

// diskFile is the persisted cache image.
type diskFile struct {
	Fingerprint string
	Entries     map[diskKey]diskOutcome
}

func snapshotTask(t *sched.Task) diskTask {
	return diskTask{
		ID: t.ID, Model: t.Model, Batch: t.Batch, Priority: t.Priority,
		Arrival: t.Arrival, EstimatedCycles: t.EstimatedCycles,
		IsolatedCycles: t.IsolatedCycles,
		Token:          t.Token, Waited: t.Waited,
		Start: t.Start, LastScheduled: t.LastScheduled, Completion: t.Completion,
		Preemptions:      t.Preemptions,
		CheckpointCycles: t.CheckpointCycles, WastedCycles: t.WastedCycles,
		SavedBytes: t.SavedBytes, PendingOverhead: t.PendingOverhead,
	}
}

func restoreTask(d diskTask) *sched.Task {
	return &sched.Task{
		ID: d.ID, Model: d.Model, Batch: d.Batch, Priority: d.Priority,
		Arrival: d.Arrival, EstimatedCycles: d.EstimatedCycles,
		IsolatedCycles: d.IsolatedCycles,
		Token:          d.Token, Waited: d.Waited,
		State: sched.Finished,
		Start: d.Start, LastScheduled: d.LastScheduled, Completion: d.Completion,
		Preemptions:      d.Preemptions,
		CheckpointCycles: d.CheckpointCycles, WastedCycles: d.WastedCycles,
		SavedBytes: d.SavedBytes, PendingOverhead: d.PendingOverhead,
	}
}

func snapshotOutcome(o runOutcome) diskOutcome {
	d := diskOutcome{Metrics: o.metrics}
	d.Tasks = make([]diskTask, len(o.tasks))
	for i, t := range o.tasks {
		d.Tasks[i] = snapshotTask(t)
	}
	return d
}

func restoreOutcome(d diskOutcome) runOutcome {
	o := runOutcome{metrics: d.Metrics}
	o.tasks = make([]*sched.Task, len(d.Tasks))
	for i, t := range d.Tasks {
		o.tasks[i] = restoreTask(t)
	}
	return o
}

func toDiskKey(k runKey) diskKey {
	return diskKey{Policy: k.policy, Selector: k.selector, Preemptive: k.preemptive,
		SchedFP: k.schedFP, SpecFP: k.specFP, Seed: k.seed, Run: k.run}
}

func fromDiskKey(k diskKey) runKey {
	return runKey{policy: k.Policy, selector: k.Selector, preemptive: k.Preemptive,
		schedFP: k.SchedFP, specFP: k.SpecFP, seed: k.Seed, run: k.Run}
}

// diskCachePrefix starts the name of every cache file of the current
// format version.
var diskCachePrefix = fmt.Sprintf("prema-cache-v%d-", diskFormatVersion)

// diskCachePath is the cache file location for a suite fingerprint: one
// file per fingerprint, so configuration changes warm separate files
// instead of invalidating each other.
func diskCachePath(dir, fingerprint string) string {
	var h uint64 = 1469598103934665603 // FNV-1a
	for i := 0; i < len(fingerprint); i++ {
		h ^= uint64(fingerprint[i])
		h *= 1099511628211
	}
	return filepath.Join(dir, fmt.Sprintf("%s%016x.gob", diskCachePrefix, h))
}

// pruneDiskCache deletes every cache file in dir that is not of the
// current format version, unversioned names of the first format
// included. Files of the current version stay, whatever configuration
// wrote them.
func pruneDiskCache(dir string) error {
	files, err := filepath.Glob(filepath.Join(dir, "prema-cache-*.gob"))
	if err != nil {
		return err
	}
	for _, f := range files {
		if strings.HasPrefix(filepath.Base(f), diskCachePrefix) {
			continue
		}
		if err := os.Remove(f); err != nil && !errors.Is(err, fs.ErrNotExist) {
			return err
		}
	}
	return nil
}

// AttachDiskCache deletes dir's cache files of other format versions
// (pruneDiskCache), loads persisted outcomes for this suite's
// fingerprint from dir into the suite's cache and remembers where
// FlushDiskCache should write back. The suite must have a cache
// (Cache != nil). Loading is fail-open: unreadable, corrupt or
// fingerprint-mismatched files are ignored and the run starts cold.
func (s *Suite) AttachDiskCache(dir string) error {
	if s.Cache == nil {
		return fmt.Errorf("exp: AttachDiskCache on a cacheless suite")
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	if err := pruneDiskCache(dir); err != nil {
		return err
	}
	fp := suiteFingerprint(s.NPU, s.ProfileSeed)
	s.diskPath = diskCachePath(dir, fp)
	s.diskFP = fp

	f, err := os.Open(s.diskPath)
	if err != nil {
		return nil // cold start
	}
	defer f.Close()
	var img diskFile
	if err := gob.NewDecoder(f).Decode(&img); err != nil {
		return nil // corrupt: ignore
	}
	if img.Fingerprint != fp {
		return nil // stale format or configuration: ignore
	}
	s.Cache.mu.Lock()
	for k, o := range img.Entries {
		key := fromDiskKey(k)
		if _, dup := s.Cache.entries[key]; !dup {
			s.Cache.entries[key] = restoreOutcome(o)
		}
	}
	s.Cache.mu.Unlock()
	return nil
}

// FlushDiskCache writes the suite's cache back to the attached location
// (atomically, via rename). A suite without an attached disk cache is a
// no-op.
func (s *Suite) FlushDiskCache() error {
	if s.diskPath == "" || s.Cache == nil {
		return nil
	}
	img := diskFile{Fingerprint: s.diskFP, Entries: map[diskKey]diskOutcome{}}
	s.Cache.mu.Lock()
	for k, o := range s.Cache.entries {
		img.Entries[toDiskKey(k)] = snapshotOutcome(o)
	}
	s.Cache.mu.Unlock()

	tmp, err := os.CreateTemp(filepath.Dir(s.diskPath), ".prema-cache-*")
	if err != nil {
		return err
	}
	defer os.Remove(tmp.Name())
	if err := gob.NewEncoder(tmp).Encode(&img); err != nil {
		tmp.Close()
		return err
	}
	if err := tmp.Close(); err != nil {
		return err
	}
	return os.Rename(tmp.Name(), s.diskPath)
}
