package resultstore

import (
	"encoding/json"
	"os"
	"path/filepath"
	"reflect"
	"testing"
	"time"
)

// FuzzStoreEntry writes arbitrary bytes as the entry file of a job and
// probes it. Get must not panic, and must either miss, counting a read
// failure, or serve exactly what decoding the bytes yields when they
// carry this build's schema and the job's key. Snapshot must not panic
// on the same file. The seeds are a real entry and its truncations.
func FuzzStoreEntry(f *testing.F) {
	seed := Open(f.TempDir())
	j := baseJob()
	if err := seed.Put(j, fakeResult(1), time.Second); err != nil {
		f.Fatal(err)
	}
	key, err := Key(j)
	if err != nil {
		f.Fatal(err)
	}
	entry, err := os.ReadFile(seed.path(key))
	if err != nil {
		f.Fatal(err)
	}
	f.Add(entry)
	for _, n := range []int{0, 1, len(entry) / 4, len(entry) / 2, len(entry) - 2} {
		f.Add(entry[:n])
	}

	f.Fuzz(func(t *testing.T, b []byte) {
		// A fresh handle per input: the file is rewritten in place, and
		// the test is about decoding bytes, not revalidating a copy.
		dir := t.TempDir()
		s := Open(dir)
		path := s.path(key)
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, b, 0o644); err != nil {
			t.Fatal(err)
		}

		var want hitEntry
		valid := json.Unmarshal(b, &want) == nil && want.valid(key)
		delta := counterDelta()
		got, elapsed, ok := s.Get(j)
		switch {
		case ok != valid:
			t.Fatalf("Get hit=%v, but the bytes decode valid=%v", ok, valid)
		case ok:
			if !reflect.DeepEqual(got, &want.Sim) {
				t.Fatalf("Get served\n%+v\nbut the bytes decode to\n%+v", got, &want.Sim)
			}
			if elapsed != time.Duration(want.ElapsedNS) {
				t.Fatalf("Get replayed elapsed %v, the bytes hold %v", elapsed, time.Duration(want.ElapsedNS))
			}
		default:
			if d := delta("store_read_failures_total"); d != 1 {
				t.Fatalf("unusable entry counted %d read failures, want 1", d)
			}
		}
		if _, err := s.Snapshot(); err != nil {
			t.Fatalf("Snapshot: %v", err)
		}
	})
}
