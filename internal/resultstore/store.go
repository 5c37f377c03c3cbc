package resultstore

import (
	"encoding/json"
	"fmt"
	"io"
	"io/fs"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"time"

	"vliwmt/internal/sim"
	"vliwmt/internal/sweep"
)

// Store is a content-addressed result cache rooted at a directory.
// Entries live under jobs/<k[:2]>/<k>.json (sharded by the first hash
// byte so no single directory grows into the millions), each written
// atomically via a temp file + rename, so concurrent writers — other
// goroutines, other processes, a server restarting mid-sweep — never
// expose a torn entry to a reader.
//
// Every read failure is a miss: a missing file, a truncated or corrupt
// document, a SchemaVersion mismatch, a key that does not match the
// filename. The store can therefore only ever cost a re-simulation,
// never return a wrong answer. A Store handle is safe for concurrent
// use; the zero Store (empty Dir) stores nothing and never hits. The
// entries are the files under jobs/, and removing that tree clears the
// store, also under a live handle: every recall re-stats its file, and
// the next Put recreates the tree.
//
// A handle also keeps the entries its Gets have decoded, each with the
// identity of the file it was decoded from. A later Get of the same
// key stats the file and, while the identity still matches, serves
// the decoded copy without reading the file again; any change to the
// file sends the probe back to disk. See recall.
type Store struct {
	dir string

	memMu sync.Mutex
	mem   map[string]memEntry // by store key; nil until the first hit
}

// memCap bounds a handle's decoded entries (about 2 KB each, so at
// most ~8 MB). A full map is reset rather than evicted from: the
// entries are a shortcut past a decode, and the next Get of any of
// them re-reads its file and adds it back.
const memCap = 4096

// memEntry is one decoded entry and the identity of the file it came
// from: the fstat of the open file Get read, compared with a later
// stat of the path by os.SameFile, size and modification time.
type memEntry struct {
	res     *sim.Result
	elapsed time.Duration
	file    os.FileInfo
}

// current reports whether fi still describes the file the entry was
// decoded from. Put replaces an entry by renaming a new file over it
// and removing the shard tree unlinks it, so both change the file's
// identity; an in-place rewrite changes its size or its modification
// time.
func (m memEntry) current(fi os.FileInfo) bool {
	return os.SameFile(m.file, fi) && fi.Size() == m.file.Size() && fi.ModTime().Equal(m.file.ModTime())
}

// Open returns a Store rooted at dir. The directory is created on
// first Put, not here, so pointing a read path at a never-written
// location is not an error. An empty dir yields a disabled store.
func Open(dir string) *Store { return &Store{dir: dir} }

// Dir returns the store's root directory ("" for a disabled store).
func (s *Store) Dir() string { return s.dir }

// entryHeader opens every entry document: the schema version and the
// key, stored redundantly with the filename so a renamed or
// hand-copied file is detected.
type entryHeader struct {
	Schema int    `json:"schema"`
	Key    string `json:"key"`
}

// valid reports whether the entry speaks this build's schema and, when
// wantKey is set, belongs under that key.
func (h entryHeader) valid(wantKey string) bool {
	return h.Schema == SchemaVersion && (wantKey == "" || h.Key == wantKey)
}

// entryFile is the on-disk document of one stored job result. The job
// is stored in its JSON form so an entry is self-describing: vliwdiff
// labels deltas from it without the grid that produced it.
type entryFile struct {
	entryHeader
	Job sweep.Job  `json:"job"`
	Sim sim.Result `json:"sim"`
	// ElapsedNS is integer nanoseconds (not the wire format's float
	// seconds) so the replayed duration is bit-exact: a warm sweep
	// reports precisely the elapsed values the cold sweep did.
	ElapsedNS int64 `json:"elapsed_ns"`
}

// hitEntry is the part of an entry file a store hit decodes. The job
// echo is left out: the key already proves the entry belongs to the
// job asked for, and building the echo's strings and slices is most
// of a hit's decode cost.
type hitEntry struct {
	entryHeader
	Sim       sim.Result `json:"sim"`
	ElapsedNS int64      `json:"elapsed_ns"`
}

func (s *Store) path(key string) string {
	return filepath.Join(s.dir, "jobs", key[:2], key+".json")
}

// readEntry loads and validates one entry file into E — the full
// entryFile, or the lean hitEntry of a store hit; any failure is
// (zero, false). The file is read through one open handle, and info is
// that handle's fstat: the identity of exactly the bytes decoded. The
// returned size is the bytes read off disk (nonzero even for entries
// that then fail validation) and the failed flag distinguishes "file
// existed but was unusable" — torn, corrupt, schema- or key-mismatched
// — from a plain absence.
func readEntry[E interface{ valid(string) bool }](path, wantKey string) (e E, info os.FileInfo, size int, failed, ok bool) {
	var zero E
	f, err := os.Open(path)
	if err != nil {
		return zero, nil, 0, !os.IsNotExist(err), false
	}
	defer f.Close()
	if info, err = f.Stat(); err != nil {
		return zero, nil, 0, true, false
	}
	b := make([]byte, info.Size())
	n, err := io.ReadFull(f, b)
	if err != nil {
		return zero, nil, n, true, false
	}
	if err := json.Unmarshal(b, &e); err != nil || !e.valid(wantKey) {
		return zero, nil, n, true, false
	}
	return e, info, n, false, true
}

// Get returns the stored result for the job, with the wall-clock time
// the original simulation took (replayed so a warm sweep reports the
// same elapsed column as the cold one). A hit decodes only the entry's
// header, result and time: the stored job echo is skipped, not read
// back (Snapshot and vliwdiff read the full entry). A repeat hit on
// this handle whose file is unchanged is served from the decoded copy
// (see recall). Any failure — unkeyable job, missing, torn, corrupt or
// schema-mismatched entry — is a miss; the unusable-entry cases
// additionally count as read failures on the store_read_failures_total
// instrument, so a corrupted store shows up on a scrape instead of
// masquerading as a cold one.
//
//vliw:hotpath
func (s *Store) Get(j sweep.Job) (*sim.Result, time.Duration, bool) {
	if s == nil || s.dir == "" {
		return nil, 0, false
	}
	//vliwvet:allow detpure probe latency is telemetry, not simulation state
	start := time.Now()
	defer observeProbe(start)
	key, err := Key(j)
	if err != nil {
		metMisses.Inc()
		return nil, 0, false
	}
	path := s.path(key)
	if res, elapsed, ok := s.recall(key, path); ok {
		metHits.Inc()
		metMemoryHits.Inc()
		return res, elapsed, true
	}
	e, info, size, failed, ok := readEntry[hitEntry](path, key)
	metBytesRead.Add(int64(size))
	if !ok {
		if failed {
			metReadFailures.Inc()
		}
		metMisses.Inc()
		return nil, 0, false
	}
	res := &e.Sim
	elapsed := time.Duration(e.ElapsedNS)
	s.remember(key, res, elapsed, info)
	metHits.Inc()
	return res, elapsed, true
}

// recall serves key from the handle's decoded entries when the file
// at path is still the one the entry was decoded from, as a copy the
// caller may modify. A missing, replaced or rewritten file is no
// recall: the stale entry is dropped and Get reads the file as if it
// had never been decoded, so every disk-path contract (corruption is a
// miss and counts as a read failure, a new entry is served as written)
// holds unchanged.
func (s *Store) recall(key, path string) (*sim.Result, time.Duration, bool) {
	s.memMu.Lock()
	m, ok := s.mem[key]
	s.memMu.Unlock()
	if !ok {
		return nil, 0, false
	}
	if fi, err := os.Stat(path); err != nil || !m.current(fi) {
		s.memMu.Lock()
		delete(s.mem, key)
		s.memMu.Unlock()
		return nil, 0, false
	}
	return m.res.Clone(), m.elapsed, true
}

// remember keeps a decoded entry for recall. Only Get calls it: an
// entry joins the memory after its bytes have been read back and
// validated, so a sweep that only writes grows no memory, and the
// first hit of a fresh handle always checks the file on disk. The
// entry keeps its own copy of res's slices.
func (s *Store) remember(key string, res *sim.Result, elapsed time.Duration, file os.FileInfo) {
	m := memEntry{res: res.Clone(), elapsed: elapsed, file: file}
	s.memMu.Lock()
	defer s.memMu.Unlock()
	if _, ok := s.mem[key]; !ok && len(s.mem) >= memCap {
		clear(s.mem)
	}
	if s.mem == nil {
		s.mem = make(map[string]memEntry)
	}
	s.mem[key] = m
}

// Put persists one completed job result. The write is atomic (temp
// file in the final directory + rename), so a concurrent Get on the
// same key sees either the old entry or the new one, never a torn
// file; concurrent Puts of the same key are idempotent (identical
// content under the determinism contract) and last-rename-wins.
func (s *Store) Put(j sweep.Job, res *sim.Result, elapsed time.Duration) error {
	if s == nil || s.dir == "" || res == nil {
		return nil
	}
	key, err := Key(j)
	if err != nil {
		return err
	}
	// The entry shares res's slices: it is encoded here and dropped.
	e := entryFile{
		entryHeader: entryHeader{Schema: SchemaVersion, Key: key},
		Job:         j,
		Sim:         *res,
		ElapsedNS:   elapsed.Nanoseconds(),
	}
	b, err := json.MarshalIndent(e, "", "  ")
	if err != nil {
		return fmt.Errorf("resultstore: encode %s: %w", key, err)
	}
	b = append(b, '\n')
	if err := writeEntry(s.path(key), key, b); err != nil {
		return fmt.Errorf("resultstore: %w", err)
	}
	metPuts.Inc()
	metBytesWritten.Add(int64(len(b)))
	metEntryBytes.Observe(float64(len(b)))
	return nil
}

// writeEntry atomically places b at path: a temp file in the final
// directory, then a rename over the old entry.
func writeEntry(path, key string, b []byte) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	tmp, err := os.CreateTemp(filepath.Dir(path), "."+key+".tmp")
	if err != nil {
		return err
	}
	if _, err := tmp.Write(b); err != nil {
		tmp.Close()
		os.Remove(tmp.Name())
		return err
	}
	if err := tmp.Close(); err != nil {
		os.Remove(tmp.Name())
		return err
	}
	if err := os.Rename(tmp.Name(), path); err != nil {
		os.Remove(tmp.Name())
		return err
	}
	return nil
}

// entryFileName reports whether a walked directory entry looks like a
// stored result (and not a shard directory or an in-flight temp file).
func entryFileName(d fs.DirEntry) bool {
	return !d.IsDir() && strings.HasSuffix(d.Name(), ".json") && !strings.HasPrefix(d.Name(), ".")
}

// walk visits every entry file path in deterministic (lexical key)
// order. A missing store is an empty store.
func (s *Store) walk(fn func(path string) error) error {
	if s == nil || s.dir == "" {
		return nil
	}
	root := filepath.Join(s.dir, "jobs")
	var paths []string
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			if os.IsNotExist(err) {
				return nil
			}
			return err
		}
		if entryFileName(d) {
			paths = append(paths, path)
		}
		return nil
	})
	if err != nil {
		return fmt.Errorf("resultstore: walk: %w", err)
	}
	sort.Strings(paths)
	for _, p := range paths {
		if err := fn(p); err != nil {
			return err
		}
	}
	return nil
}
