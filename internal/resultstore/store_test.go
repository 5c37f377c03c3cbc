package resultstore

import (
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"

	"vliwmt/internal/cache"
	"vliwmt/internal/sim"
	"vliwmt/internal/sweep"
)

// fakeResult builds a fully populated simulation result; the store
// never interprets results, so tests don't need to run the simulator.
func fakeResult(n int64) *sim.Result {
	return &sim.Result{
		Cycles:    1000 + n,
		Instrs:    20_000,
		Ops:       30_000 + n,
		IPC:       float64(30_000+n) / float64(1000+n),
		MergeHist: []int64{1, 2, 3, 4, n},
		Threads: []sim.ThreadStats{
			{Name: "mcf", Instrs: 5000, Ops: 7500, ScheduledCycles: 900, ConflictCycles: 3, StallMem: 11, StallFetch: 2, StallBranch: 5},
		},
		ICache:      cache.Stats{Accesses: 100, Misses: 10, Writebacks: 1},
		DCache:      cache.Stats{Accesses: 200, Misses: 20, Writebacks: 2},
		IssueWidth:  16,
		EmptyCycles: 17,
	}
}

func mustPut(t *testing.T, s *Store, j sweep.Job, r *sim.Result, elapsed time.Duration) {
	t.Helper()
	if err := s.Put(j, r, elapsed); err != nil {
		t.Fatal(err)
	}
}

// entryPath locates the on-disk file of a job's entry.
func entryPath(t *testing.T, s *Store, j sweep.Job) string {
	t.Helper()
	return s.path(keyOf(t, j))
}

func TestStoreRoundTrip(t *testing.T) {
	s := Open(t.TempDir())
	j := baseJob()
	want := fakeResult(1)
	elapsed := 123456789 * time.Nanosecond

	if _, _, ok := s.Get(j); ok {
		t.Fatal("empty store claims a hit")
	}
	mustPut(t, s, j, want, elapsed)
	got, gotElapsed, ok := s.Get(j)
	if !ok {
		t.Fatal("stored entry not served back")
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("reloaded result drifted:\n got %+v\nwant %+v", got, want)
	}
	if gotElapsed != elapsed {
		t.Errorf("elapsed replayed as %v, want bit-exact %v", gotElapsed, elapsed)
	}

	// Removing the shard tree clears the store; the next Put recreates
	// it.
	if err := os.RemoveAll(filepath.Join(s.Dir(), "jobs")); err != nil {
		t.Fatal(err)
	}
	if _, _, ok := s.Get(j); ok {
		t.Error("cleared store still serves entries")
	}
	mustPut(t, s, j, want, elapsed)
	if _, _, ok := s.Get(j); !ok {
		t.Error("Put after clearing does not serve again")
	}
}

// TestStoreCorruptionIsAMiss checks the store's safety property: a
// damaged entry — truncated mid-write-tear, overwritten with garbage,
// written under a different schema version, or filed under the wrong
// key — is silently re-simulated, never served.
func TestStoreCorruptionIsAMiss(t *testing.T) {
	corruptions := map[string]func(path string) error{
		"truncated": func(path string) error {
			b, err := os.ReadFile(path)
			if err != nil {
				return err
			}
			return os.WriteFile(path, b[:len(b)/2], 0o644)
		},
		"garbage": func(path string) error {
			return os.WriteFile(path, []byte("\x00\xffnot json at all"), 0o644)
		},
		"empty": func(path string) error {
			return os.WriteFile(path, nil, 0o644)
		},
		"schema mismatch": func(path string) error {
			b, err := os.ReadFile(path)
			if err != nil {
				return err
			}
			doctored := strings.Replace(string(b),
				fmt.Sprintf(`"schema": %d`, SchemaVersion),
				fmt.Sprintf(`"schema": %d`, SchemaVersion+1), 1)
			if doctored == string(b) {
				return fmt.Errorf("schema line not found in %s", path)
			}
			return os.WriteFile(path, []byte(doctored), 0o644)
		},
		"wrong filename": func(path string) error {
			other := filepath.Join(filepath.Dir(path), strings.Repeat("ab", 32)+".json")
			return os.Rename(path, other)
		},
	}
	for name, corrupt := range corruptions {
		t.Run(name, func(t *testing.T) {
			s := Open(t.TempDir())
			j := baseJob()
			mustPut(t, s, j, fakeResult(1), time.Second)
			path := entryPath(t, s, j)
			if err := corrupt(path); err != nil {
				t.Fatal(err)
			}
			if _, _, ok := s.Get(j); ok {
				t.Fatal("corrupt entry was served")
			}
			// And the store heals: a fresh Put over the damage serves again.
			if name != "wrong filename" {
				mustPut(t, s, j, fakeResult(1), time.Second)
				if _, _, ok := s.Get(j); !ok {
					t.Fatal("re-put after corruption still misses")
				}
			}
		})
	}

	// The wrong-filename case must also not poison snapshots.
	s := Open(t.TempDir())
	j := baseJob()
	mustPut(t, s, j, fakeResult(1), time.Second)
	path := entryPath(t, s, j)
	if err := os.Rename(path, filepath.Join(filepath.Dir(path), strings.Repeat("cd", 32)+".json")); err != nil {
		t.Fatal(err)
	}
	snap, err := s.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	if len(snap.Entries) != 0 {
		t.Errorf("snapshot includes a mis-filed entry: %+v", snap.Entries)
	}
}

// TestStoreConcurrentWriters hammers one directory from many
// goroutines — repeated writers of the same keys racing readers —
// asserting (under -race in CI) that nothing tears: every Get
// either misses or returns a complete, correct entry.
func TestStoreConcurrentWriters(t *testing.T) {
	s := Open(t.TempDir())
	jobs := make([]sweep.Job, 8)
	for i := range jobs {
		jobs[i] = baseJob()
		jobs[i].Seed = uint64(i + 1)
	}

	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for round := 0; round < 20; round++ {
				j := jobs[(w+round)%len(jobs)]
				if err := s.Put(j, fakeResult(int64(j.Seed)), time.Duration(j.Seed)); err != nil {
					t.Errorf("put: %v", err)
					return
				}
				if res, _, ok := s.Get(j); ok {
					if want := fakeResult(int64(j.Seed)); !reflect.DeepEqual(res, want) {
						t.Errorf("torn or mixed-up read: got %+v, want %+v", res, want)
						return
					}
				}
			}
		}(w)
	}
	wg.Wait()

	// After the dust settles every job can be stored and served.
	for _, j := range jobs {
		mustPut(t, s, j, fakeResult(int64(j.Seed)), time.Duration(j.Seed))
		if _, _, ok := s.Get(j); !ok {
			t.Errorf("job seed=%d not served after concurrent phase", j.Seed)
		}
	}
}

// TestZeroStore checks the disabled store: everything is a no-op miss.
func TestZeroStore(t *testing.T) {
	s := Open("")
	j := baseJob()
	if err := s.Put(j, fakeResult(1), time.Second); err != nil {
		t.Fatal(err)
	}
	if _, _, ok := s.Get(j); ok {
		t.Error("disabled store claims a hit")
	}
}

// TestSnapshotAndDiff exercises the conformance path end to end on
// synthetic data: snapshot a store, perturb one entry, and check the
// diff pinpoints exactly the changed metrics plus one-sided entries.
func TestSnapshotAndDiff(t *testing.T) {
	s := Open(t.TempDir())
	a, b, c := baseJob(), baseJob(), baseJob()
	b.Seed, c.Seed = 2, 3
	mustPut(t, s, a, fakeResult(1), time.Second)
	mustPut(t, s, b, fakeResult(2), time.Second)
	mustPut(t, s, c, fakeResult(3), time.Second)

	old, err := s.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	if len(old.Entries) != 3 {
		t.Fatalf("snapshot has %d entries, want 3", len(old.Entries))
	}
	if d := DiffSnapshots(old, old); !d.Clean() || d.Identical != 3 {
		t.Fatalf("self-diff not clean: %+v", d)
	}

	// Perturb one entry's cycles and IPC, drop another, add a new one.
	perturbed := fakeResult(1)
	perturbed.Cycles += 5
	perturbed.IPC = float64(perturbed.Ops) / float64(perturbed.Cycles)
	mustPut(t, s, a, perturbed, time.Second)
	cPath := entryPath(t, s, c)
	if err := os.Remove(cPath); err != nil {
		t.Fatal(err)
	}
	d := baseJob()
	d.Seed = 4
	mustPut(t, s, d, fakeResult(4), time.Second)

	cur, err := s.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	diff := DiffSnapshots(old, cur)
	if diff.Clean() || diff.Identical != 1 {
		t.Fatalf("diff = %+v, want 1 identical and 3 divergences", diff)
	}
	changed, onlyOld, onlyNew := diff.Counts()
	if changed != 1 || onlyOld != 1 || onlyNew != 1 {
		t.Fatalf("counts = %d changed, %d only-old, %d only-new; want 1 each", changed, onlyOld, onlyNew)
	}
	for _, e := range diff.Entries {
		if e.Status != StatusChanged {
			continue
		}
		fields := map[string]bool{}
		for _, f := range e.Fields {
			fields[f.Field] = true
		}
		if !fields["cycles"] || !fields["ipc"] || len(fields) != 2 {
			t.Errorf("changed entry reports fields %v, want exactly cycles and ipc", e.Fields)
		}
	}

	// The rendered form names the moved metric.
	var sb strings.Builder
	diff.WriteText(&sb, "old", "new")
	if out := sb.String(); !strings.Contains(out, "cycles") || !strings.Contains(out, "1 identical, 1 changed") {
		t.Errorf("rendered diff missing expectations:\n%s", out)
	}
}

// TestWriteSnapshotIgnoresJobOrder: a snapshot's bytes depend on its
// jobs, not on the order they were listed in, even when two jobs share
// a key (3SSS and its own tree expression under a shared seed).
func TestWriteSnapshotIgnoresJobOrder(t *testing.T) {
	g := sweep.Grid{Schemes: []string{"3SSS", "S(S(S(T0,T1),T2),T3)"}, Mixes: []string{"LLHH"},
		InstrLimit: 5_000, Seed: 3, SharedSeed: true}
	jobs, err := g.Jobs()
	if err != nil {
		t.Fatal(err)
	}
	if keyOf(t, jobs[0]) != keyOf(t, jobs[1]) {
		t.Fatal("the two spellings of 3SSS no longer share a key")
	}
	write := func(order ...int) []byte {
		var results []sweep.Result
		for _, i := range order {
			results = append(results, sweep.Result{Job: jobs[i], Res: fakeResult(1)})
		}
		snap, err := SnapshotResults(results)
		if err != nil {
			t.Fatal(err)
		}
		path := filepath.Join(t.TempDir(), "snap.json")
		if err := WriteSnapshot(path, snap); err != nil {
			t.Fatal(err)
		}
		b, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		return b
	}
	if a, b := write(0, 1), write(1, 0); string(a) != string(b) {
		t.Errorf("snapshot bytes depend on job order:\n%s\nvs\n%s", a, b)
	}
}
