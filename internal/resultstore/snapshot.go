package resultstore

import (
	"cmp"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"slices"

	"vliwmt/internal/sim"
	"vliwmt/internal/sweep"
)

// Entry is one job's deterministic outcome inside a Snapshot: its
// content key, a human label, the job and the full
// simulation result. Wall-clock time is deliberately absent — a
// snapshot is a statement about simulator behaviour, and committing
// one (as a golden baseline) must be reproducible byte for byte.
type Entry struct {
	Key   string     `json:"key"`
	Label string     `json:"label,omitempty"`
	Job   sweep.Job  `json:"job"`
	Sim   sim.Result `json:"sim"`
}

// Snapshot is a diffable corpus of job results, sorted by key and
// label. It is the unit vliwdiff compares and the format of the
// committed golden baseline (testdata/golden): two snapshots of the
// same jobs taken at different commits diff clean exactly when the
// simulator's output is bit-identical across those commits.
type Snapshot struct {
	Schema  int     `json:"schema"`
	Entries []Entry `json:"entries"`
}

// sortEntries orders entries by key, then label: the canonical
// snapshot order. Jobs that share a key (3SSS and its tree expression
// under a shared seed) differ only in label, so the label tie-break
// keeps the bytes independent of the order the jobs were listed in.
func sortEntries(es []Entry) {
	slices.SortStableFunc(es, func(a, b Entry) int {
		return cmp.Or(cmp.Compare(a.Key, b.Key), cmp.Compare(a.Label, b.Label))
	})
}

// Snapshot reads every stored entry into a Snapshot. Unreadable or
// schema-mismatched entry files are skipped, consistent with Get
// treating them as misses.
func (s *Store) Snapshot() (Snapshot, error) {
	snap := Snapshot{Schema: SchemaVersion}
	err := s.walk(func(path string) error {
		key := filepath.Base(path)
		key = key[:len(key)-len(".json")]
		e, _, _, _, ok := readEntry[entryFile](path, key)
		if !ok {
			return nil
		}
		snap.Entries = append(snap.Entries, Entry{Key: e.Key, Label: e.Job.Describe(), Job: e.Job, Sim: e.Sim})
		return nil
	})
	sortEntries(snap.Entries)
	return snap, err
}

// SnapshotResults builds a Snapshot from a completed sweep, keyed like
// the store. Failed or unfinished jobs are rejected: a snapshot
// vouches for every entry it contains.
func SnapshotResults(results []sweep.Result) (Snapshot, error) {
	snap := Snapshot{Schema: SchemaVersion}
	for _, r := range results {
		if r.Err != nil {
			return Snapshot{}, fmt.Errorf("resultstore: snapshot: job %s failed: %w", r.Job.Describe(), r.Err)
		}
		if r.Res == nil {
			return Snapshot{}, fmt.Errorf("resultstore: snapshot: job %s has no result", r.Job.Describe())
		}
		key, err := Key(r.Job)
		if err != nil {
			return Snapshot{}, err
		}
		snap.Entries = append(snap.Entries, Entry{
			Key:   key,
			Label: r.Job.Describe(),
			Job:   r.Job,
			Sim:   *r.Res.Clone(),
		})
	}
	sortEntries(snap.Entries)
	return snap, nil
}

// WriteSnapshot writes the snapshot as deterministic, indented JSON.
// The same simulator state always produces the same bytes, which is
// what makes a committed baseline's `git diff` meaningful.
func WriteSnapshot(path string, snap Snapshot) error {
	sortEntries(snap.Entries)
	b, err := json.MarshalIndent(snap, "", "  ")
	if err != nil {
		return fmt.Errorf("resultstore: encode snapshot: %w", err)
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return fmt.Errorf("resultstore: write snapshot: %w", err)
	}
	if err := os.WriteFile(path, append(b, '\n'), 0o644); err != nil {
		return fmt.Errorf("resultstore: write snapshot: %w", err)
	}
	return nil
}

// ReadSnapshot loads a snapshot file. Unlike store reads, a corrupt or
// schema-mismatched snapshot is an error, not a miss: a baseline that
// cannot be trusted must fail the comparison loudly.
func ReadSnapshot(path string) (Snapshot, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return Snapshot{}, fmt.Errorf("resultstore: read snapshot: %w", err)
	}
	var snap Snapshot
	if err := json.Unmarshal(b, &snap); err != nil {
		return Snapshot{}, fmt.Errorf("resultstore: read snapshot %s: %w", path, err)
	}
	if snap.Schema != SchemaVersion {
		return Snapshot{}, fmt.Errorf("resultstore: snapshot %s has schema %d, this build speaks %d (regenerate the baseline)",
			path, snap.Schema, SchemaVersion)
	}
	sortEntries(snap.Entries)
	return snap, nil
}

// SnapshotFrom loads a snapshot from a path that is either a store
// directory or a snapshot JSON file — the two source kinds vliwdiff
// accepts interchangeably.
func SnapshotFrom(path string) (Snapshot, error) {
	info, err := os.Stat(path)
	if err != nil {
		return Snapshot{}, fmt.Errorf("resultstore: %w", err)
	}
	if info.IsDir() {
		return Open(path).Snapshot()
	}
	return ReadSnapshot(path)
}
