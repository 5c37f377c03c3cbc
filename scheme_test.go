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
// criterion: a custom tree submitted through Client to a vliwserve
// instance returns results identical to the in-process run modulo
// wall-clock fields, whether it travels as a grid's tree expression or
// as a job's typed Merge scheme.
func TestCustomSchemeRemoteMatchesInProcess(t *testing.T) {
	const custom = "S(C(T0,T1,T2),T3)"
	grid := vliwmt.Grid{
		Schemes:    []string{custom, "2SC3"},
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

	// Grid path: the expression is the scheme's name on both ends.
	remote, err := vliwmt.NewClient(ts.URL).Sweep(context.Background(), grid, nil)
	if err != nil {
		t.Fatal(err)
	}
	compare(t, remote)

	// Jobs path: the typed Merge field alone carries the tree and its
	// label across the wire.
	sch, err := vliwmt.ParseScheme(custom)
	if err != nil {
		t.Fatal(err)
	}
	sch = sch.WithName("e2ecustom")
	jobs, err := grid.Jobs()
	if err != nil {
		t.Fatal(err)
	}
	for i := range jobs {
		if jobs[i].Scheme == custom {
			jobs[i].Scheme, jobs[i].Merge = "", sch
		}
	}
	remote, err = vliwmt.NewClient(ts.URL).SweepJobs(context.Background(), jobs, nil)
	if err != nil {
		t.Fatal(err)
	}
	compare(t, remote)
	for i, r := range remote {
		if want := jobs[i].Merge; r.Job.Merge.Name() != want.Name() || r.Job.Merge.String() != want.String() {
			t.Errorf("job %d: merge scheme %s (%s) came back as %s (%s)",
				i, want.Name(), want, r.Job.Merge.Name(), r.Job.Merge)
		}
	}
}
