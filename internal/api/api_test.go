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
func fixtureJob() Job {
	return Job{
		Label:           "LLHH/2SC3",
		Scheme:          "2SC3",
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
// is non-zero: a zero or empty leaf in the result, machine, cache or
// grid fixtures fails here, so a new field has to enter the fixtures
// and, through them, the golden files. The envelope fields of Job and
// Result (Merge, Cached, Worker, ...) are left out: populating them
// would change committed golden bytes.
func TestFixturesSetEveryField(t *testing.T) {
	j := fixtureJob()
	for _, c := range []struct {
		name string
		v    any
	}{
		{"result.Sim", fixtureResult().Sim},
		{"job.Machine", j.Machine},
		{"job.ICache", j.ICache},
		{"job.DCache", j.DCache},
		{"grid", fixtureGrid()},
	} {
		for _, path := range zeroLeaves(c.name, reflect.ValueOf(c.v)) {
			t.Errorf("fixture field %s is zero; set it so the golden files pin it", path)
		}
	}
}

// zeroLeaves lists the paths of v's zero leaves, nil pointers and empty
// slices.
func zeroLeaves(path string, v reflect.Value) []string {
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
	return SweepRequest{Version: Version, Grid: &g, Workers: 8, Tag: "nightly"}
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
		{"Job", fixtureJob(), &Job{}},
		{"Grid", fixtureGrid(), &sweep.Grid{}},
		{"Result", fixtureResult(), &Result{}},
		{"SweepRequest", fixtureRequest(), &SweepRequest{}},
		{"SweepStatus", SweepStatus{Version: Version, ID: "s000001", State: StateDone,
			Done: 4, Total: 4, Results: []Result{fixtureResult()}, Error: "job 2 failed"}, &SweepStatus{}},
		{"Event", Event{Done: 2, Total: 4, Result: func() *Result { r := fixtureResult(); return &r }()}, &Event{}},
		{"zero Grid", sweep.Grid{}, &sweep.Grid{}},
		{"zero Job", Job{}, &Job{}},
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

// TestConversionsAreLossless checks that wire -> internal -> wire and
// internal -> wire -> internal conversions preserve every field.
func TestConversionsAreLossless(t *testing.T) {
	j, err := fixtureJob().Sweep()
	if err != nil {
		t.Fatal(err)
	}
	if got, err := JobFrom(j).Sweep(); err != nil || !reflect.DeepEqual(got, j) {
		t.Errorf("job: %+v != %+v (%v)", got, j, err)
	}

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
// produce the fixtures. Run `go test ./internal/api -update` after an
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
			var v Job
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
				t.Fatalf("%v (run `go test ./internal/api -update` to create golden files)", err)
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

// TestSchemeSpecRoundTrip checks the version-2 SchemeSpec DTO: typed
// schemes (paper, baseline, custom tree) survive the wire with their
// names and exact merge trees.
func TestSchemeSpecRoundTrip(t *testing.T) {
	paper, err := merge.Resolve("2SC3")
	if err != nil {
		t.Fatal(err)
	}
	custom, err := merge.Resolve("S(C(T0,T1,T2),T3)")
	if err != nil {
		t.Fatal(err)
	}
	imt, err := merge.Resolve("IMT")
	if err != nil {
		t.Fatal(err)
	}
	for _, s := range []merge.Scheme{paper, custom.WithName("asym4"), imt} {
		sp := SchemeSpecFrom(s)
		if sp == nil {
			t.Fatalf("SchemeSpecFrom(%s) = nil", s.Name())
		}
		b, err := json.Marshal(sp)
		if err != nil {
			t.Fatal(err)
		}
		var back SchemeSpec
		if err := json.Unmarshal(b, &back); err != nil {
			t.Fatal(err)
		}
		got, err := back.Scheme()
		if err != nil {
			t.Fatalf("%s: %v", s.Name(), err)
		}
		if got.Name() != s.Name() || got.String() != s.String() {
			t.Errorf("scheme %s round-tripped to %s (%s)", s.Name(), got.Name(), got.String())
		}
	}
	if SchemeSpecFrom(merge.Scheme{}) != nil {
		t.Error("zero scheme should convert to a nil spec")
	}
	if _, err := (SchemeSpec{}).Scheme(); err == nil {
		t.Error("empty spec accepted")
	}
	if _, err := (SchemeSpec{Tree: "S(T0"}).Scheme(); err == nil {
		t.Error("malformed tree spec accepted")
	}
}

// TestJobInlinesRegisteredScheme checks that JobFrom attaches the tree
// of a registry-resolved scheme name, so a remote server needs no
// matching registration, and that Job.Sweep rebuilds the typed scheme.
func TestJobInlinesRegisteredScheme(t *testing.T) {
	tree, err := merge.ParseTreeExpr("S(C(T0,T1,T2),T3)")
	if err != nil {
		t.Fatal(err)
	}
	sch, err := merge.FromTree(tree)
	if err != nil {
		t.Fatal(err)
	}
	if err := merge.Register("apitest4", sch); err != nil {
		t.Fatal(err)
	}
	defer merge.Unregister("apitest4")

	j := fixtureJob()
	j.Scheme = "apitest4"
	wire := JobFrom(mustSweepJob(t, j))
	if wire.Merge == nil || wire.Merge.Tree != "S(C(T0,T1,T2),T3)" {
		t.Fatalf("registered scheme not inlined: %+v", wire.Merge)
	}
	back, err := wire.Sweep()
	if err != nil {
		t.Fatal(err)
	}
	if back.Merge.IsZero() || back.Merge.String() != "S(C(T0,T1,T2),T3)" {
		t.Errorf("typed scheme lost on decode: %+v", back.Merge)
	}
	if back.EffectiveContexts() != 4 {
		t.Errorf("EffectiveContexts = %d, want 4", back.EffectiveContexts())
	}
}

func mustSweepJob(t *testing.T, j Job) sweep.Job {
	t.Helper()
	sj, err := j.Sweep()
	if err != nil {
		t.Fatal(err)
	}
	return sj
}

// TestV1BackCompat pins backwards compatibility: a checked-in wire
// version 1 document (written by the previous release) must still
// decode, expanding to the same jobs as its version-2 equivalent.
func TestV1BackCompat(t *testing.T) {
	b, err := os.ReadFile(filepath.Join("testdata", "request.v1.golden.json"))
	if err != nil {
		t.Fatal(err)
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
