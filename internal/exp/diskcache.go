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
//     renders. An entry is the run's metrics.Run, gob-encoded as it is
//     (exact float bits), so a restored entry is the same value as a
//     fresh one.

import (
	"encoding/gob"
	"errors"
	"fmt"
	"io/fs"
	"maps"
	"os"
	"path/filepath"
	"strings"

	"repro/internal/metrics"
	"repro/internal/npu"
)

// diskFormatVersion invalidates every persisted cache when the file
// schema or the meaning of an entry changes. Version 3 files hold each
// run's metrics.Run keyed by runKey, and no scheduler entry. The version
// is part of the fingerprint and of the file name, so an older file is
// never opened (AttachDiskCache deletes it) and the run starts cold.
const diskFormatVersion = 3

// suiteFingerprint canonicalizes the suite-level cache version: format,
// NPU configuration (all scalar fields) and profile seed. Scheduler
// configuration and workload spec are per-entry (inside runKey) and so
// deliberately absent.
func suiteFingerprint(cfg npu.Config, profileSeed uint64) string {
	return fmt.Sprintf("v%d|npu=%#v|profile=%d", diskFormatVersion, cfg, profileSeed)
}

// diskFile is the persisted cache image.
type diskFile struct {
	Fingerprint string
	Entries     map[runKey]metrics.Run
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
// (pruneDiskCache), loads persisted run metrics for this suite's
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
	for k, m := range img.Entries {
		if _, dup := s.Cache.entries[k]; !dup {
			s.Cache.entries[k] = m
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
	s.Cache.mu.Lock()
	img := diskFile{Fingerprint: s.diskFP, Entries: maps.Clone(s.Cache.entries)}
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
