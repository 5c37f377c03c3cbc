package vliwmt_test

import (
	"context"
	"net/http/httptest"
	"reflect"
	"testing"

	"vliwmt"
	"vliwmt/internal/server"
)

// TestTypedAndNamedPathsBitIdentical is the API-redesign acceptance
// criterion: every paper scheme plus the IMT/BMT baselines must
// produce bit-identical Results whether the merge control is named
// via Config.Scheme or passed as a typed Scheme via Config.Merge.
func TestTypedAndNamedPathsBitIdentical(t *testing.T) {
	names := append(vliwmt.Schemes(), "IMT", "BMT")
	for _, name := range names {
		sch, err := vliwmt.ParseScheme(name)
		if err != nil {
			t.Fatalf("ParseScheme(%s): %v", name, err)
		}
		cfg := vliwmt.DefaultConfig()
		cfg.Contexts = sch.Ports()
		cfg.InstrLimit = 5_000
		cfg.TimesliceCycles = 1_000
		cfg.Scheme = name

		named, err := vliwmt.RunMix(cfg, "LLHH")
		if err != nil {
			t.Fatalf("%s named run: %v", name, err)
		}
		cfg.Scheme = ""
		cfg.Merge = sch
		typed, err := vliwmt.RunMix(cfg, "LLHH")
		if err != nil {
			t.Fatalf("%s typed run: %v", name, err)
		}
		if !reflect.DeepEqual(named, typed) {
			t.Errorf("%s: named and typed runs differ:\nnamed %+v\ntyped %+v", name, named, typed)
		}
	}
}

// TestSchemeConstructors checks that the typed constructors build the
// same trees the paper names denote.
func TestSchemeConstructors(t *testing.T) {
	cases := []struct {
		name string
		got  func() (vliwmt.Scheme, error)
	}{
		{"3SCC", func() (vliwmt.Scheme, error) {
			return vliwmt.CascadeScheme(vliwmt.OpMerge, vliwmt.ClusterMerge, vliwmt.ClusterMerge)
		}},
		{"2CS", func() (vliwmt.Scheme, error) {
			return vliwmt.BalancedScheme(vliwmt.ClusterMerge, vliwmt.OpMerge)
		}},
		{"C4", func() (vliwmt.Scheme, error) { return vliwmt.ParallelCSMT(4) }},
	}
	for _, tc := range cases {
		built, err := tc.got()
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		parsed, err := vliwmt.ParseScheme(tc.name)
		if err != nil {
			t.Fatalf("ParseScheme(%s): %v", tc.name, err)
		}
		if built.Name() != tc.name || built.String() != parsed.String() {
			t.Errorf("%s: constructor built %s (%s), parse gives %s", tc.name, built.Name(), built, parsed)
		}
	}

	// Node-level builder: ports derive from leaves, names default to
	// the canonical rendering, and invalid trees fail eagerly.
	sch, err := vliwmt.NewScheme("", vliwmt.ParallelClusterNode(
		vliwmt.OpNode(vliwmt.Thread(0), vliwmt.Thread(1)),
		vliwmt.OpNode(vliwmt.Thread(2), vliwmt.Thread(3)),
		vliwmt.Thread(4)))
	if err != nil {
		t.Fatal(err)
	}
	if sch.Ports() != 5 || sch.Name() != "C3(S(T0,T1),S(T2,T3),T4)" {
		t.Errorf("built %s over %d ports", sch.Name(), sch.Ports())
	}
	if _, err := vliwmt.NewScheme("bad", vliwmt.Thread(0)); err == nil {
		t.Error("leaf root accepted")
	}
	if _, err := vliwmt.NewScheme("bad", vliwmt.OpNode(vliwmt.Thread(0), vliwmt.Thread(2))); err == nil {
		t.Error("port gap accepted")
	}
	if _, err := vliwmt.SchemeCostFor(vliwmt.DefaultMachine(), sch); err != nil {
		t.Errorf("SchemeCostFor on a custom tree: %v", err)
	}
}

// TestUnknownSchemesFailEagerly pins that unknown scheme names fail at
// validation time with a clear error, not default to a 4-thread
// machine.
func TestUnknownSchemesFailEagerly(t *testing.T) {
	if _, err := vliwmt.ParseScheme("NOPE"); err == nil {
		t.Error("ParseScheme accepted an unknown name")
	}
	grid := vliwmt.Grid{Schemes: []string{"NOPE"}, Mixes: []string{"LLHH"}, InstrLimit: 1000}
	if _, err := vliwmt.Sweep(context.Background(), grid, nil); err == nil {
		t.Error("Sweep accepted a grid with an unknown scheme")
	}
}

// TestCustomSchemeRemoteMatchesInProcess is the service acceptance
// criterion: a custom registered tree submitted through Client to a
// vliwserve instance returns results identical to the in-process run
// modulo wall-clock fields.
func TestCustomSchemeRemoteMatchesInProcess(t *testing.T) {
	sch, err := vliwmt.NewScheme("e2ecustom",
		vliwmt.OpNode(
			vliwmt.ClusterNode(vliwmt.Thread(0), vliwmt.Thread(1), vliwmt.Thread(2)),
			vliwmt.Thread(3)))
	if err != nil {
		t.Fatal(err)
	}
	if err := vliwmt.RegisterScheme("e2ecustom", sch); err != nil {
		t.Fatal(err)
	}
	defer vliwmt.UnregisterScheme("e2ecustom")

	grid := vliwmt.Grid{
		Schemes:    []string{"e2ecustom", "2SC3"},
		Mixes:      []string{"LLHH"},
		InstrLimit: 20_000,
		Seed:       3,
	}
	local, err := vliwmt.Sweep(context.Background(), grid, nil)
	if err != nil {
		t.Fatal(err)
	}

	srv := server.New(server.Options{Workers: 2})
	defer srv.Close()
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	compare := func(t *testing.T, remote []vliwmt.SweepResult) {
		t.Helper()
		if len(remote) != len(local) {
			t.Fatalf("remote returned %d results, local %d", len(remote), len(local))
		}
		for i := range local {
			l, r := local[i], remote[i]
			if l.Err != nil || r.Err != nil {
				t.Fatalf("job %d errs: local %v, remote %v", i, l.Err, r.Err)
			}
			if !reflect.DeepEqual(l.Res, r.Res) {
				t.Errorf("job %d: remote result differs from in-process:\nlocal  %+v\nremote %+v", i, l.Res, r.Res)
			}
			if l.Job.Label != r.Job.Label || l.Job.Seed != r.Job.Seed {
				t.Errorf("job %d: envelope drifted: local %s/%d, remote %s/%d",
					i, l.Job.Label, l.Job.Seed, r.Job.Label, r.Job.Seed)
			}
		}
	}

	// Grid path: the client notices the registry-resolved name and
	// expands the grid client-side, inlining the tree.
	remote, err := vliwmt.NewClient(ts.URL).Sweep(context.Background(), grid, nil)
	if err != nil {
		t.Fatal(err)
	}
	compare(t, remote)

	// Jobs path with nothing registered anywhere: the typed Merge
	// field alone must carry the tree across the wire. The httptest
	// server shares this process's registry, so unregistering first
	// proves the spec is self-contained.
	jobs, err := grid.Jobs()
	if err != nil {
		t.Fatal(err)
	}
	vliwmt.UnregisterScheme("e2ecustom")
	for i := range jobs {
		if jobs[i].Scheme == "e2ecustom" {
			jobs[i].Merge = sch
		}
	}
	remote, err = vliwmt.NewClient(ts.URL).SweepJobs(context.Background(), jobs, nil)
	if err != nil {
		t.Fatal(err)
	}
	compare(t, remote)
}
