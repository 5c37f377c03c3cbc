package resultstore

import (
	"fmt"
	"reflect"
	"slices"
	"strings"
	"testing"

	"vliwmt/internal/sim"
	"vliwmt/internal/sweep"
)

// TestDiffNamesEveryField perturbs each leaf of a populated result in
// turn: DiffSnapshots must report exactly one delta, named by the
// leaf's json path, so a new result field is diffed (and named) with
// no edit to the differ. A change in slice length must report the
// slice's "(len)" delta instead of its elements.
func TestDiffNamesEveryField(t *testing.T) {
	base := fakeResult(5)
	base.TimedOut = true
	base.Threads = append(base.Threads, sim.ThreadStats{Name: "fft", Instrs: 6000, Ops: 9100,
		ScheduledCycles: 800, ConflictCycles: 4, StallMem: 12, StallFetch: 3, StallBranch: 6})

	diff := func(mutated *sim.Result) []FieldDelta {
		old := Snapshot{Entries: []Entry{{Key: "k", Sim: *base}}}
		new := Snapshot{Entries: []Entry{{Key: "k", Sim: *mutated}}}
		d := DiffSnapshots(old, new)
		if len(d.Entries) != 1 || d.Entries[0].Status != StatusChanged {
			t.Fatalf("perturbed result diffs as %+v, want one changed entry", d)
		}
		return d.Entries[0].Fields
	}

	var names []string
	for k := 0; ; k++ {
		c, skip := base.Clone(), k
		name, ok := perturbLeaf(reflect.ValueOf(c).Elem(), "", &skip)
		if !ok {
			break
		}
		names = append(names, name)
		fields := diff(c)
		if len(fields) != 1 || fields[0].Field != name {
			t.Errorf("perturbing %s reports %+v, want one delta named %s", name, fields, name)
		}
	}
	for _, want := range []string{"cycles", "ipc", "merge_hist[4]", "threads[1].stall_mem",
		"threads[0].name", "icache.misses", "dcache.writebacks", "empty_cycles", "timed_out"} {
		if !slices.Contains(names, want) {
			t.Errorf("no leaf named %s among %v", want, names)
		}
	}

	c := base.Clone()
	c.MergeHist = append(c.MergeHist, 9)
	if fields := diff(c); len(fields) != 1 || fields[0].Field != "merge_hist(len)" || fields[0].Old != "5" || fields[0].New != "6" {
		t.Errorf("longer merge_hist reports %+v, want merge_hist(len) 5 -> 6", fields)
	}
	c = base.Clone()
	c.Threads = c.Threads[:1]
	if fields := diff(c); len(fields) != 1 || fields[0].Field != "threads(len)" {
		t.Errorf("dropped thread reports %+v, want threads(len)", fields)
	}
}

// perturbLeaf changes the *k-th leaf under v (counting down *k) and
// returns its json path; ok is false once v has fewer leaves.
func perturbLeaf(v reflect.Value, path string, k *int) (string, bool) {
	switch v.Kind() {
	case reflect.Struct:
		for i := range v.NumField() {
			name, _, _ := strings.Cut(v.Type().Field(i).Tag.Get("json"), ",")
			if path != "" {
				name = path + "." + name
			}
			if p, ok := perturbLeaf(v.Field(i), name, k); ok {
				return p, true
			}
		}
		return "", false
	case reflect.Slice:
		for i := range v.Len() {
			if p, ok := perturbLeaf(v.Index(i), fmt.Sprintf("%s[%d]", path, i), k); ok {
				return p, true
			}
		}
		return "", false
	}
	if *k > 0 {
		*k--
		return "", false
	}
	switch v.Kind() {
	case reflect.Int, reflect.Int64:
		v.SetInt(v.Int() + 1)
	case reflect.Float64:
		v.SetFloat(v.Float() * 2)
	case reflect.Bool:
		v.SetBool(!v.Bool())
	case reflect.String:
		v.SetString(v.String() + "x")
	default:
		panic("perturbLeaf: unhandled kind " + v.Kind().String())
	}
	return path, true
}

// TestSnapshotResultsCopies: a snapshot shares no slice with the live
// results it was taken from.
func TestSnapshotResultsCopies(t *testing.T) {
	res := fakeResult(1)
	snap, err := SnapshotResults([]sweep.Result{{Job: baseJob(), Res: res}})
	if err != nil {
		t.Fatal(err)
	}
	want := res.Clone()
	res.MergeHist[0]++
	res.Threads[0].StallMem++
	if got := &snap.Entries[0].Sim; !reflect.DeepEqual(got, want) {
		t.Errorf("snapshot entry followed a mutation of its source:\n got %+v\nwant %+v", got, want)
	}
}
