package vliwmt

import (
	"vliwmt/internal/resultstore"
)

// ResultSnapshot is a diffable corpus of deterministic job results,
// sorted by content key: the unit of comparison of the golden
// conformance harness. Snapshots come from three places — a completed
// sweep (SnapshotResults), a result store directory, or a snapshot
// JSON file (both via LoadSnapshot) — and two snapshots of the same
// jobs diff clean exactly when the simulator's output is bit-identical.
type ResultSnapshot = resultstore.Snapshot

// SnapshotEntry is one job inside a ResultSnapshot: its content key,
// label, wire-form job and full simulation Result.
type SnapshotEntry = resultstore.Entry

// ResultDiff is the comparison of two ResultSnapshots: how many jobs
// are bit-identical, and every divergence (changed metrics, or jobs
// present on one side only) in key, then label, order. See DiffSnapshots.
type ResultDiff = resultstore.Diff

// ResultEntryDiff is one diverging job of a ResultDiff.
type ResultEntryDiff = resultstore.EntryDiff

// MetricDelta is one metric that moved between two snapshots of the
// same job.
type MetricDelta = resultstore.FieldDelta

// JobKey returns the job's canonical content hash — the key the result
// store files it under. Two jobs share a key exactly when the
// determinism contract guarantees identical results: the scheme is
// reduced to its canonical tree (paper names, tree expressions and
// typed schemes all hash alike), labels are ignored, and machine,
// caches, memory model, budget, seed and the result-schema version are
// all hashed.
func JobKey(j SweepJob) (string, error) { return resultstore.Key(j) }

// SnapshotResults builds a snapshot from a completed sweep. Every job
// must have succeeded: a snapshot vouches for each entry it contains.
func SnapshotResults(results []SweepResult) (ResultSnapshot, error) {
	return resultstore.SnapshotResults(results)
}

// LoadSnapshot reads a snapshot from a result-store directory or a
// snapshot JSON file (as written by WriteSnapshot).
func LoadSnapshot(path string) (ResultSnapshot, error) {
	return resultstore.SnapshotFrom(path)
}

// WriteSnapshot writes the snapshot as deterministic JSON — the
// committed-baseline format of testdata/golden.
func WriteSnapshot(path string, s ResultSnapshot) error {
	return resultstore.WriteSnapshot(path, s)
}

// DiffSnapshots compares two snapshots by job content key (jobs that
// share a key pair by label first) and reports every divergence:
// per-metric deltas for jobs whose results changed, plus jobs present
// in only one snapshot. A Clean diff is the
// conformance harness's "this commit did not change simulator output".
func DiffSnapshots(old, new ResultSnapshot) ResultDiff {
	return resultstore.DiffSnapshots(old, new)
}
