package api

import (
	"bytes"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
	"time"

	"vliwmt/internal/cache"
	"vliwmt/internal/isa"
	"vliwmt/internal/merge"
	"vliwmt/internal/sim"
	"vliwmt/internal/sweep"
)

var update = flag.Bool("update", false, "rewrite golden files")

// fixtures returns one fully populated value of every wire type; every
// field is non-zero so a dropped or mis-tagged field breaks a test.
func fixtureJob() sweep.Job {
	asym, err := merge.Resolve("S(C(T0,T1,T2),T3)")
	if err != nil {
		panic(err)
	}
	return sweep.Job{
		Label:           "LLHH/2SC3",
		Scheme:          "2SC3",
		Merge:           asym.WithName("asym4"),
		Benchmarks:      []string{"mcf", "dijkstra", "colorspace", "fft"},
		Contexts:        4,
		Machine:         isa.Default(),
		ICache:          cache.DefaultConfig(),
		DCache:          cache.DefaultConfig(),
		PerfectMemory:   true,
		InstrLimit:      300_000,
		TimesliceCycles: 3_000,
		Seed:            0xdeadbeefcafe0001,
	}
}

func fixtureGrid() sweep.Grid {
	return sweep.Grid{
		Schemes:         []string{"2SC3", "3SSS"},
		Mixes:           []string{"LLHH", "HHHH"},
		Machine:         isa.Default(),
		ICache:          cache.DefaultConfig(),
		DCache:          cache.DefaultConfig(),
		InstrLimit:      20_000,
		TimesliceCycles: 500,
		Seed:            7,
		SharedSeed:      true,
	}
}

func fixtureResult() Result {
	return Result{
		Index: 3,
		Job:   fixtureJob(),
		Sim: &sim.Result{
			Cycles:    123_456,
			Instrs:    300_000,
			Ops:       911_222,
			IPC:       7.380952380952381,
			MergeHist: []int64{10, 20, 30, 40, 50},
			Threads: []sim.ThreadStats{
				{Name: "mcf", Instrs: 100, Ops: 321, ScheduledCycles: 999, ConflictCycles: 5, StallMem: 7, StallFetch: 3, StallBranch: 11},
				{Name: "fft", Instrs: 200, Ops: 654, ScheduledCycles: 888, ConflictCycles: 6, StallMem: 8, StallFetch: 4, StallBranch: 12},
			},
			ICache:      cache.Stats{Accesses: 1000, Misses: 10, Writebacks: 1},
			DCache:      cache.Stats{Accesses: 2000, Misses: 20, Writebacks: 2},
			IssueWidth:  16,
			EmptyCycles: 42,
			TimedOut:    true,
		},
		ElapsedSec: 1.25,
	}
}

// TestFixturesSetEveryField backs the fixtures' claim that every field
// is non-zero: a zero or empty leaf in the job, result, machine, cache
// or grid fixtures fails here, so a new field has to enter the
// fixtures and, through them, the golden files. The envelope fields of
// Result (Err, Cached) are left out: populating them would change
// committed golden bytes.
func TestFixturesSetEveryField(t *testing.T) {
	for _, c := range []struct {
		name string
		v    any
	}{
		{"job", fixtureJob()},
		{"result.Sim", fixtureResult().Sim},
		{"grid", fixtureGrid()},
	} {
		for _, path := range zeroLeaves(c.name, reflect.ValueOf(c.v)) {
			t.Errorf("fixture field %s is zero; set it so the golden files pin it", path)
		}
	}
}

// zeroLeaves lists the paths of v's zero leaves, nil pointers and empty
// slices. A merge.Scheme is a leaf: its fields are unexported, and its
// IsZero says whether it is set.
func zeroLeaves(path string, v reflect.Value) []string {
	if s, ok := v.Interface().(merge.Scheme); ok {
		if s.IsZero() {
			return []string{path}
		}
		return nil
	}
	var out []string
	switch v.Kind() {
	case reflect.Pointer:
		if v.IsNil() {
			return []string{path}
		}
		return zeroLeaves(path, v.Elem())
	case reflect.Struct:
		for i := range v.NumField() {
			out = append(out, zeroLeaves(path+"."+v.Type().Field(i).Name, v.Field(i))...)
		}
	case reflect.Slice:
		if v.Len() == 0 {
			return []string{path}
		}
		for i := range v.Len() {
			out = append(out, zeroLeaves(fmt.Sprintf("%s[%d]", path, i), v.Index(i))...)
		}
	default:
		if v.IsZero() {
			return []string{path}
		}
	}
	return out
}

func fixtureRequest() SweepRequest {
	g := fixtureGrid()
	return SweepRequest{Version: Version, Grid: &g, Workers: 8}
}

func fixtureHealth() Health {
	return Health{Version: Version, Service: "vliwserve", GoVersion: "go1.24.0", Revision: "0123abc",
		ActiveSweeps: 2, UptimeSec: 12.5}
}

// TestRoundTrips checks decode(encode(x)) == x for every exported
// config and result type of the wire format.
func TestRoundTrips(t *testing.T) {
	g := fixtureGrid()
	cases := []struct {
		name string
		in   any
		out  any
	}{
		{"Machine", isa.Default(), &isa.Machine{}},
		{"CacheConfig", cache.DefaultConfig(), &cache.Config{}},
		{"Job", fixtureJob(), &sweep.Job{}},
		{"Grid", fixtureGrid(), &sweep.Grid{}},
		{"Result", fixtureResult(), &Result{}},
		{"SweepRequest", fixtureRequest(), &SweepRequest{}},
		{"SweepStatus", SweepStatus{Version: Version, ID: "s000001", State: StateDone,
			Done: 4, Total: 4, Results: []Result{fixtureResult()}, Error: "job 2 failed"}, &SweepStatus{}},
		{"Event", Event{Done: 2, Total: 4, Result: func() *Result { r := fixtureResult(); return &r }()}, &Event{}},
		{"zero Grid", sweep.Grid{}, &sweep.Grid{}},
		{"zero Job", sweep.Job{}, &sweep.Job{}},
		{"grid request", SweepRequest{Version: Version, Grid: &g}, &SweepRequest{}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			b, err := json.Marshal(tc.in)
			if err != nil {
				t.Fatal(err)
			}
			if err := json.Unmarshal(b, tc.out); err != nil {
				t.Fatal(err)
			}
			got := reflect.ValueOf(tc.out).Elem().Interface()
			if !reflect.DeepEqual(got, tc.in) {
				t.Errorf("round trip mismatch:\n got %#v\nwant %#v", got, tc.in)
			}
		})
	}
}

// TestConversionsAreLossless checks that internal -> wire -> internal
// result conversion preserves every field.
func TestConversionsAreLossless(t *testing.T) {
	j := fixtureJob()
	// A full sweep.Result with a live sim.Result survives the wire with
	// every deterministic field; Err collapses to its message by design.
	sr := sweep.Result{
		Index:   2,
		Job:     j,
		Res:     fixtureResult().Sim,
		Err:     errors.New("boom"),
		Elapsed: 1500 * time.Millisecond,
	}
	b, err := json.Marshal(ResultFrom(sr))
	if err != nil {
		t.Fatal(err)
	}
	var wire Result
	if err := json.Unmarshal(b, &wire); err != nil {
		t.Fatal(err)
	}
	got := wire.Sweep()
	if !reflect.DeepEqual(got.Res, sr.Res) {
		t.Errorf("sim result: %+v != %+v", got.Res, sr.Res)
	}
	if got.Err == nil || got.Err.Error() != "boom" {
		t.Errorf("err: %v", got.Err)
	}
	if got.Index != sr.Index || !reflect.DeepEqual(got.Job, sr.Job) || got.Elapsed != sr.Elapsed {
		t.Errorf("envelope fields drifted: %+v", got)
	}
	// Elapsed times cross the wire as float seconds; these are times
	// that truncating the seconds back to nanoseconds loses one of.
	for _, d := range []time.Duration{15_839, 126_705, 1_013_633} {
		if got := ResultFrom(sweep.Result{Elapsed: d}).Sweep().Elapsed; got != d {
			t.Errorf("elapsed %d ns crosses the wire as %d ns", d, got)
		}
	}
}

// TestGridDefaultingMatchesInProcess checks the wire format's core
// defaulting contract: a sparse document expands to exactly the job
// set of the equivalent in-process Grid.
func TestGridDefaultingMatchesInProcess(t *testing.T) {
	for _, doc := range []string{
		`{}`,
		`{"schemes":["2SC3","C4"],"mixes":["LLHH"]}`,
		`{"instr_limit":20000,"seed":9,"shared_seed":true}`,
	} {
		var g sweep.Grid
		if err := json.Unmarshal([]byte(doc), &g); err != nil {
			t.Fatalf("%s: %v", doc, err)
		}
		want, err := g.Jobs()
		if err != nil {
			t.Fatalf("%s: %v", doc, err)
		}
		// Build the same sweep.Grid directly and compare expansions.
		direct := sweep.Grid{Schemes: g.Schemes, Mixes: g.Mixes, InstrLimit: g.InstrLimit,
			TimesliceCycles: g.TimesliceCycles, Seed: g.Seed, SharedSeed: g.SharedSeed}
		got, err := direct.Jobs()
		if err != nil {
			t.Fatalf("%s: %v", doc, err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Errorf("%s: wire and in-process expansion differ", doc)
		}
		for _, j := range want[:1] {
			if j.Machine.Clusters == 0 || j.ICache.Size == 0 || j.InstrLimit == 0 || j.TimesliceCycles == 0 || j.Seed == 0 {
				t.Errorf("%s: defaults not applied: %+v", doc, j)
			}
		}
	}
}

// TestGolden pins the wire format: encoding the fixtures must produce
// the checked-in golden bytes, and decoding the golden bytes must
// produce the fixtures. Run `make golden` after an
// intentional format change.
func TestGolden(t *testing.T) {
	cases := []struct {
		file string
		v    any
		dec  func([]byte) (any, error)
	}{
		{"machine.golden.json", isa.Default(), func(b []byte) (any, error) {
			var v isa.Machine
			return v, json.Unmarshal(b, &v)
		}},
		{"job.golden.json", fixtureJob(), func(b []byte) (any, error) {
			var v sweep.Job
			return v, json.Unmarshal(b, &v)
		}},
		{"grid.golden.json", fixtureGrid(), func(b []byte) (any, error) {
			var v sweep.Grid
			return v, json.Unmarshal(b, &v)
		}},
		{"result.golden.json", fixtureResult(), func(b []byte) (any, error) {
			var v Result
			return v, json.Unmarshal(b, &v)
		}},
		{"request.golden.json", fixtureRequest(), func(b []byte) (any, error) {
			var v SweepRequest
			return v, json.Unmarshal(b, &v)
		}},
		{"health.golden.json", fixtureHealth(), func(b []byte) (any, error) {
			var v Health
			return v, json.Unmarshal(b, &v)
		}},
	}
	for _, tc := range cases {
		t.Run(tc.file, func(t *testing.T) {
			path := filepath.Join("testdata", tc.file)
			got, err := json.MarshalIndent(tc.v, "", "  ")
			if err != nil {
				t.Fatal(err)
			}
			got = append(got, '\n')
			if *update {
				if err := os.MkdirAll("testdata", 0o755); err != nil {
					t.Fatal(err)
				}
				if err := os.WriteFile(path, got, 0o644); err != nil {
					t.Fatal(err)
				}
			}
			want, err := os.ReadFile(path)
			if err != nil {
				t.Fatalf("%v (run `make golden` to create golden files)", err)
			}
			if !bytes.Equal(got, want) {
				t.Errorf("wire format drifted from golden file %s:\n got: %s\nwant: %s", tc.file, got, want)
			}
			back, err := tc.dec(want)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(back, tc.v) {
				t.Errorf("decoding golden %s does not reproduce the fixture:\n got %#v\nwant %#v", tc.file, back, tc.v)
			}
		})
	}
}

// decodeJob decodes one job document the way the server reads the jobs
// of a request.
func decodeJob(doc string) (sweep.Job, error) {
	var j sweep.Job
	err := json.Unmarshal([]byte(doc), &j)
	return j, err
}

// TestJobMergeDecode pins how a job's "merge" member decodes: null is
// no scheme, as an absent member is, while an empty or malformed spec
// is an error.
func TestJobMergeDecode(t *testing.T) {
	j, err := decodeJob(`{"scheme":"2SC3","merge":null,"benchmarks":["mcf"]}`)
	if err != nil {
		t.Fatalf("merge null: %v", err)
	}
	if !j.Merge.IsZero() {
		t.Errorf("merge null decoded to scheme %s", j.Merge.Name())
	}
	for _, doc := range []string{
		`{"merge":{},"benchmarks":["mcf"]}`,
		`{"merge":{"tree":"S(T0"},"benchmarks":["mcf"]}`,
	} {
		if _, err := decodeJob(doc); err == nil {
			t.Errorf("%s: accepted", doc)
		}
	}
}

// TestV1BackCompat pins backwards compatibility: a checked-in wire
// version 1 document (written by the previous release) must still
// decode, expanding to the same jobs as its version-2 equivalent. The
// document carries the retired "tag" member, which decoding ignores.
func TestV1BackCompat(t *testing.T) {
	b, err := os.ReadFile(filepath.Join("testdata", "request.v1.golden.json"))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Contains(b, []byte(`"tag"`)) {
		t.Fatal("the version 1 document no longer carries the retired \"tag\" member")
	}
	req, err := DecodeSweepRequest(bytes.NewReader(b))
	if err != nil {
		t.Fatalf("version 1 request rejected: %v", err)
	}
	if req.Version != 1 || req.Grid == nil {
		t.Fatalf("unexpected decode: %+v", req)
	}
	v1Jobs, err := req.Grid.Jobs()
	if err != nil {
		t.Fatal(err)
	}
	v2Jobs, err := fixtureGrid().Jobs()
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(v1Jobs, v2Jobs) {
		t.Error("version 1 document expands differently from its version 2 equivalent")
	}
}

// TestExpandOrder pins the one rule for a request carrying both a grid
// and explicit jobs: the grid's jobs run first, then the explicit ones
// in document order. A grid that does not expand is an error.
func TestExpandOrder(t *testing.T) {
	g := fixtureGrid()
	gridJobs, err := g.Jobs()
	if err != nil {
		t.Fatal(err)
	}
	extra := []sweep.Job{fixtureJob(), fixtureJob()}
	extra[1].Label = "second/explicit"
	got, err := SweepRequest{Grid: &g, Jobs: extra}.Expand()
	if err != nil {
		t.Fatal(err)
	}
	if want := append(append([]sweep.Job(nil), gridJobs...), extra...); !reflect.DeepEqual(got, want) {
		t.Errorf("Expand gave %d jobs, want the %d grid jobs then the %d explicit ones:\n%+v",
			len(got), len(gridJobs), len(extra), got)
	}
	if got, err := (SweepRequest{Jobs: extra}).Expand(); err != nil || !reflect.DeepEqual(got, extra) {
		t.Errorf("jobs-only Expand = %+v, %v; want the jobs verbatim", got, err)
	}
	if _, err := (SweepRequest{Grid: &sweep.Grid{Schemes: []string{"bogus!"}}}).Expand(); err == nil {
		t.Error("a grid with an unknown scheme expanded")
	}
}

// TestOldAttributionFieldsIgnored pins decoding of version 3 documents
// whose results carry the "worker" and "shard" attribution older
// servers wrote: such a status document or event decodes to the same
// sweep result as the document without them, and re-encodes to the
// fieldless bytes.
func TestOldAttributionFieldsIgnored(t *testing.T) {
	// withAttribution splices the old fields into every result object,
	// which is where elapsed_sec appears.
	withAttribution := func(t *testing.T, plain []byte, results int) []byte {
		t.Helper()
		key := []byte(`"elapsed_sec":`)
		if n := bytes.Count(plain, key); n != results {
			t.Fatalf("%d elapsed_sec keys, want %d:\n%s", n, results, plain)
		}
		return bytes.ReplaceAll(plain, key, append([]byte(`"worker":"h:1","shard":2,`), key...))
	}
	want := fixtureResult().Sweep()

	t.Run("status", func(t *testing.T) {
		var plain bytes.Buffer
		st := SweepStatus{Version: Version, ID: "s000001", State: StateDone, Done: 1, Total: 1, Results: []Result{fixtureResult()}}
		if err := json.NewEncoder(&plain).Encode(st); err != nil {
			t.Fatal(err)
		}
		old := withAttribution(t, plain.Bytes(), 1)
		got, err := DecodeSweepStatus(bytes.NewReader(old))
		if err != nil {
			t.Fatalf("old status rejected: %v", err)
		}
		if len(got.Results) != 1 || !reflect.DeepEqual(got.Results[0].Sweep(), want) {
			t.Errorf("old status decodes to %+v, want %+v", got.Results, want)
		}
		var again bytes.Buffer
		if err := json.NewEncoder(&again).Encode(got); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(again.Bytes(), plain.Bytes()) {
			t.Errorf("old status re-encodes to\n%s\nwant\n%s", again.Bytes(), plain.Bytes())
		}
	})

	t.Run("event", func(t *testing.T) {
		r := fixtureResult()
		plain, err := json.Marshal(Event{Done: 4, Total: 9, Result: &r})
		if err != nil {
			t.Fatal(err)
		}
		old := withAttribution(t, plain, 1)
		var got Event
		if err := json.NewDecoder(bytes.NewReader(old)).Decode(&got); err != nil {
			t.Fatalf("old event rejected: %v", err)
		}
		if got.Result == nil || !reflect.DeepEqual(got.Result.Sweep(), want) {
			t.Errorf("old event decodes to %+v, want %+v", got.Result, want)
		}
		again, err := json.Marshal(got)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(again, plain) {
			t.Errorf("old event re-encodes to\n%s\nwant\n%s", again, plain)
		}
	})
}

// TestRemovedCountMembersIgnored pins decoding of version 3 documents
// from servers that still sent the count members removed within
// version 3: a status with "cache_hits", "errors" and "summary", and a
// health document with a "store" block. Each decodes to what the same
// document without them decodes to, and re-encodes to the bytes
// without them.
func TestRemovedCountMembersIgnored(t *testing.T) {
	t.Run("status", func(t *testing.T) {
		cached := fixtureResult()
		cached.Cached = true
		failed := fixtureResult()
		failed.Index, failed.Sim, failed.Err = 4, nil, "job 4 failed"
		st := SweepStatus{Version: Version, ID: "s000001", State: StateFailed, Done: 2, Total: 2,
			Results: []Result{cached, failed}, Error: "job 4 failed"}
		plain, err := json.Marshal(st)
		if err != nil {
			t.Fatal(err)
		}
		old := bytes.Replace(plain, []byte(`"total":2,`), []byte(oldStatusCounts), 1)
		if bytes.Equal(old, plain) {
			t.Fatalf("no total member to splice the counts after:\n%s", plain)
		}
		got, err := DecodeSweepStatus(bytes.NewReader(old))
		if err != nil {
			t.Fatalf("old status rejected: %v", err)
		}
		if !reflect.DeepEqual(got, st) {
			t.Errorf("old status decodes to\n%+v\nwant\n%+v", got, st)
		}
		again, err := json.Marshal(got)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(again, plain) {
			t.Errorf("old status re-encodes to\n%s\nwant\n%s", again, plain)
		}
	})

	t.Run("health", func(t *testing.T) {
		old := `{"version":3,"service":"vliwserve","go_version":"go1.24.0","revision":"0123abc",` +
			`"active_sweeps":2,"uptime_sec":12.5,"store":{"hits":7,"misses":3,"puts":3}}`
		got, err := DecodeHealth(strings.NewReader(old))
		if err != nil {
			t.Fatalf("old health document rejected: %v", err)
		}
		if want := fixtureHealth(); got != want {
			t.Errorf("old health document decodes to %+v, want %+v", got, want)
		}
		again, err := json.MarshalIndent(got, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		golden, err := os.ReadFile(filepath.Join("testdata", "health.golden.json"))
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(append(again, '\n'), golden) {
			t.Errorf("old health document re-encodes to\n%s\nwant the golden\n%s", again, golden)
		}
	})
}

// oldStatusCounts is the "total" member of a two-job status followed
// by the count members a server wrote before they were removed within
// version 3, spelled as that server spelled them.
const oldStatusCounts = `"total":2,"cache_hits":1,"errors":1,"summary":{"jobs":2,"errors":1,"cache_hits":1,` +
	`"cache_hit_ratio":0.5,"wall_sec":1.5,"p50_sec":1.25,"p99_sec":1.25,"jobs_per_sec":1.3333333333333333},`

func TestVersionChecking(t *testing.T) {
	if err := CheckVersion(0); err != nil {
		t.Errorf("version 0 (pre-versioning) rejected: %v", err)
	}
	if err := CheckVersion(Version); err != nil {
		t.Errorf("current version rejected: %v", err)
	}
	if err := CheckVersion(Version + 1); err == nil {
		t.Error("future version accepted")
	}
	if _, err := DecodeSweepRequest(strings.NewReader(`{"version":99,"grid":{}}`)); err == nil {
		t.Error("future-versioned request accepted")
	}
	if _, err := DecodeSweepRequest(strings.NewReader(`{"version":1}`)); err == nil {
		t.Error("request without grid or jobs accepted")
	}
	if _, err := DecodeSweepRequest(strings.NewReader(`{"version":1,"grid":{}}`)); err != nil {
		t.Errorf("minimal grid request rejected: %v", err)
	}
}
