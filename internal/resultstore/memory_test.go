package resultstore

import (
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
	"time"

	"vliwmt/internal/sim"
	"vliwmt/internal/telemetry"
)

// counterDelta returns a function reporting how far a process-wide
// counter has moved since the call.
func counterDelta() func(name string) int64 {
	before := telemetry.Default().Snapshot()
	return func(name string) int64 {
		return telemetry.Default().Snapshot().Counter(name) - before.Counter(name)
	}
}

// TestStoreMemoryHitReadsNothing: the second Get of an unchanged entry
// is served from the handle's decoded copy, reading no bytes off disk,
// and returns exactly what the first (disk) hit returned.
func TestStoreMemoryHitReadsNothing(t *testing.T) {
	s := Open(t.TempDir())
	j := baseJob()
	want := fakeResult(1)
	mustPut(t, s, j, want, 42*time.Millisecond)

	delta := counterDelta()
	first, _, ok := s.Get(j)
	if !ok {
		t.Fatal("stored entry not served back")
	}
	read := delta("store_bytes_read_total")
	if read <= 0 {
		t.Fatalf("first hit read %d bytes, want the entry off disk", read)
	}
	second, elapsed, ok := s.Get(j)
	if !ok {
		t.Fatal("second Get missed")
	}
	if d := delta("store_bytes_read_total"); d != read {
		t.Errorf("second hit read %d more bytes, want 0", d-read)
	}
	if d := delta("store_memory_hits_total"); d != 1 {
		t.Errorf("store_memory_hits_total moved by %d, want 1", d)
	}
	if d := delta("store_hits_total"); d != 2 {
		t.Errorf("store_hits_total moved by %d, want 2 (memory hits are hits)", d)
	}
	if !reflect.DeepEqual(second, want) || !reflect.DeepEqual(first, want) {
		t.Errorf("memory hit drifted:\n got %+v\nwant %+v", second, want)
	}
	if elapsed != 42*time.Millisecond {
		t.Errorf("memory hit replayed elapsed %v, want 42ms", elapsed)
	}
	if d := delta("store_misses_total"); d != 0 {
		t.Errorf("store_misses_total moved by %d, want 0", d)
	}
}

// TestStoreMemoryCopyIsPrivate: a caller mutating a returned result —
// scalars and both slices — changes neither the decoded copy nor what
// the next hit returns.
func TestStoreMemoryCopyIsPrivate(t *testing.T) {
	s := Open(t.TempDir())
	j := baseJob()
	mustPut(t, s, j, fakeResult(1), time.Second)
	for i := 0; i < 3; i++ {
		got, _, ok := s.Get(j)
		if !ok {
			t.Fatalf("Get %d missed", i)
		}
		if !reflect.DeepEqual(got, fakeResult(1)) {
			t.Fatalf("Get %d returned a result changed by an earlier caller:\n%+v", i, got)
		}
		got.Cycles = -1
		got.MergeHist[0] = -1
		got.Threads[0].Instrs = -1
		got.Threads = append(got.Threads, got.Threads[0])
	}
}

// TestStoreMemoryRevalidates: every change to an entry's file after it
// was decoded — an in-place rewrite, a Put of new content, a deletion,
// removing the whole shard tree (how a store is cleared) — makes the
// next Get a miss or the new content, never the decoded copy.
func TestStoreMemoryRevalidates(t *testing.T) {
	rewritten := fakeResult(1)
	rewritten.Cycles = 1009
	cases := map[string]struct {
		change  func(t *testing.T, s *Store, path string)
		want    *sim.Result // nil: a miss
		failure bool        // the miss counts as a read failure
	}{
		"garbage rewrite in place": {
			change: func(t *testing.T, s *Store, path string) {
				if err := os.WriteFile(path, []byte("\x00\xffnot json"), 0o644); err != nil {
					t.Fatal(err)
				}
			},
			failure: true,
		},
		"same-size rewrite in place": {
			// Same inode, same size; only the modification time tells.
			change: func(t *testing.T, s *Store, path string) {
				b, err := os.ReadFile(path)
				if err != nil {
					t.Fatal(err)
				}
				doctored := strings.Replace(string(b), `"cycles": 1001`, `"cycles": 1009`, 1)
				if doctored == string(b) {
					t.Fatal("cycles line not found")
				}
				if err := os.WriteFile(path, []byte(doctored), 0o644); err != nil {
					t.Fatal(err)
				}
				old := time.Now().Add(-time.Hour)
				if err := os.Chtimes(path, old, old); err != nil {
					t.Fatal(err)
				}
			},
			want: rewritten,
		},
		"put of new content": {
			change: func(t *testing.T, s *Store, path string) {
				mustPut(t, s, baseJob(), fakeResult(2), time.Second)
			},
			want: fakeResult(2),
		},
		"deleted": {
			change: func(t *testing.T, s *Store, path string) {
				if err := os.Remove(path); err != nil {
					t.Fatal(err)
				}
			},
		},
		"shard tree removed": {
			change: func(t *testing.T, s *Store, path string) {
				if err := os.RemoveAll(filepath.Join(s.Dir(), "jobs")); err != nil {
					t.Fatal(err)
				}
			},
		},
	}
	for name, c := range cases {
		t.Run(name, func(t *testing.T) {
			s := Open(t.TempDir())
			j := baseJob()
			mustPut(t, s, j, fakeResult(1), time.Second)
			delta := counterDelta()
			for i := 0; i < 2; i++ {
				if _, _, ok := s.Get(j); !ok {
					t.Fatal("stored entry not served back")
				}
			}
			if d := delta("store_memory_hits_total"); d != 1 {
				t.Fatalf("entry not served from memory before the change (%d memory hits)", d)
			}
			c.change(t, s, entryPath(t, s, j))

			delta = counterDelta()
			got, _, ok := s.Get(j)
			if d := delta("store_memory_hits_total"); d != 0 {
				t.Errorf("changed entry served from memory")
			}
			if ok != (c.want != nil) {
				t.Fatalf("Get hit=%v, want %v", ok, c.want != nil)
			}
			if ok && !reflect.DeepEqual(got, c.want) {
				t.Errorf("served\n%+v\nwant the new content\n%+v", got, c.want)
			}
			if d := delta("store_read_failures_total"); (d == 1) != c.failure {
				t.Errorf("store_read_failures_total moved by %d, want failure=%v", d, c.failure)
			}
		})
	}
}

// TestStoreMemoryCap: the decoded copies of one handle never exceed
// memCap; adding past the cap resets the map.
func TestStoreMemoryCap(t *testing.T) {
	dir := t.TempDir()
	s := Open(dir)
	info, err := os.Stat(dir)
	if err != nil {
		t.Fatal(err)
	}
	res := fakeResult(1)
	for i := 0; i <= memCap; i++ {
		s.remember(fmt.Sprintf("%064x", i), res, 0, info)
		if n := len(s.mem); n > memCap {
			t.Fatalf("%d entries held after %d inserts, cap %d", n, i+1, memCap)
		}
	}
	if n := len(s.mem); n != 1 {
		t.Errorf("%d entries after filling past the cap, want the reset map's 1", n)
	}
	// Re-adding a held key at the cap replaces it without a reset.
	s.mem = nil
	for i := 0; i < memCap; i++ {
		s.remember(fmt.Sprintf("%064x", i), res, 0, info)
	}
	s.remember(fmt.Sprintf("%064x", 0), res, 0, info)
	if n := len(s.mem); n != memCap {
		t.Errorf("re-adding a held key at the cap left %d entries, want %d", n, memCap)
	}
}
