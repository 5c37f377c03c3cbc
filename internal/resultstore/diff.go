package resultstore

import (
	"cmp"
	"fmt"
	"io"
	"reflect"
	"slices"
	"strconv"
	"strings"

	"vliwmt/internal/sim"
)

// FieldDelta is one metric that differs between two snapshots of the
// same job: the field's wire name and both rendered values.
type FieldDelta struct {
	Field string `json:"field"`
	Old   string `json:"old"`
	New   string `json:"new"`
}

// EntryStatus classifies one diverging snapshot entry.
type EntryStatus string

const (
	// StatusChanged: the job is in both snapshots with different results.
	StatusChanged EntryStatus = "changed"
	// StatusOnlyOld: the job is only in the old snapshot.
	StatusOnlyOld EntryStatus = "only-old"
	// StatusOnlyNew: the job is only in the new snapshot.
	StatusOnlyNew EntryStatus = "only-new"
)

// EntryDiff is one diverging entry: which job, how it diverged, and —
// for changed entries — every metric that moved.
type EntryDiff struct {
	Key    string       `json:"key"`
	Label  string       `json:"label,omitempty"`
	Status EntryStatus  `json:"status"`
	Fields []FieldDelta `json:"fields,omitempty"`
}

// Diff is the comparison of two snapshots, keyed by job content hash.
// Identical is the count of jobs whose results are bit-identical;
// Entries lists every divergence in key, then label, order.
type Diff struct {
	Identical int         `json:"identical"`
	Entries   []EntryDiff `json:"entries,omitempty"`
}

// Clean reports whether the two snapshots agree on every shared job
// and cover the same job set.
func (d Diff) Clean() bool { return len(d.Entries) == 0 }

// Counts returns how many entries changed, are only in the old
// snapshot, and are only in the new one.
func (d Diff) Counts() (changed, onlyOld, onlyNew int) {
	for _, e := range d.Entries {
		switch e.Status {
		case StatusChanged:
			changed++
		case StatusOnlyOld:
			onlyOld++
		case StatusOnlyNew:
			onlyNew++
		}
	}
	return
}

// DiffSnapshots compares two snapshots entry by entry. Jobs are
// matched by content key — which already encodes the whole
// configuration — so only results are compared; a changed entry lists
// every diverging metric. Jobs that share a key (a paper name and its
// own tree expression under one seed) are paired by (key, label) first;
// entries left over are then paired by key alone, so a relabelled job
// still matches its old self. Entries present on one side only are
// reported too: a baseline that silently lost coverage is as much a
// regression as one that changed numbers.
func DiffSnapshots(old, new Snapshot) Diff {
	byLabel := make(map[[2]string][]int, len(old.Entries))
	byKey := make(map[string][]int, len(old.Entries))
	for i, e := range old.Entries {
		id := [2]string{e.Key, e.Label}
		byLabel[id] = append(byLabel[id], i)
		byKey[e.Key] = append(byKey[e.Key], i)
	}
	used := make([]bool, len(old.Entries))
	take := func(candidates []int) int {
		for _, i := range candidates {
			if !used[i] {
				used[i] = true
				return i
			}
		}
		return -1
	}
	pair := make([]int, len(new.Entries))
	for j, ne := range new.Entries {
		pair[j] = take(byLabel[[2]string{ne.Key, ne.Label}])
	}
	for j, ne := range new.Entries {
		if pair[j] < 0 {
			pair[j] = take(byKey[ne.Key])
		}
	}

	var d Diff
	for j, ne := range new.Entries {
		if pair[j] < 0 {
			d.Entries = append(d.Entries, EntryDiff{Key: ne.Key, Label: ne.Label, Status: StatusOnlyNew})
			continue
		}
		if fields := simDeltas(old.Entries[pair[j]].Sim, ne.Sim); len(fields) > 0 {
			d.Entries = append(d.Entries, EntryDiff{Key: ne.Key, Label: ne.Label, Status: StatusChanged, Fields: fields})
		} else {
			d.Identical++
		}
	}
	for i, oe := range old.Entries {
		if !used[i] {
			d.Entries = append(d.Entries, EntryDiff{Key: oe.Key, Label: oe.Label, Status: StatusOnlyOld})
		}
	}
	slices.SortStableFunc(d.Entries, func(a, b EntryDiff) int {
		return cmp.Or(cmp.Compare(a.Key, b.Key), cmp.Compare(a.Label, b.Label))
	})
	return d
}

// simDeltas lists every diverging leaf of two results in the result's
// field order, each named by its json path: "ipc", "icache.misses",
// "merge_hist[2]", "threads[1].stall_mem". A slice whose lengths differ
// reports one "merge_hist(len)" or "threads(len)" delta instead of its
// elements. The walk reaches every field, so "no deltas" is exactly
// "bit-identical result", and a new field is diffed without an edit
// here.
func simDeltas(a, b sim.Result) []FieldDelta {
	var out []FieldDelta
	walkDeltas(&out, "", reflect.ValueOf(a), reflect.ValueOf(b))
	return out
}

func walkDeltas(out *[]FieldDelta, path string, a, b reflect.Value) {
	switch a.Kind() {
	case reflect.Struct:
		for i := range a.NumField() {
			name, _, _ := strings.Cut(a.Type().Field(i).Tag.Get("json"), ",")
			if path != "" {
				name = path + "." + name
			}
			walkDeltas(out, name, a.Field(i), b.Field(i))
		}
	case reflect.Slice:
		if a.Len() != b.Len() {
			*out = append(*out, FieldDelta{path + "(len)", strconv.Itoa(a.Len()), strconv.Itoa(b.Len())})
			return
		}
		for i := range a.Len() {
			walkDeltas(out, fmt.Sprintf("%s[%d]", path, i), a.Index(i), b.Index(i))
		}
	default:
		if !a.Equal(b) {
			*out = append(*out, FieldDelta{path, render(a), render(b)})
		}
	}
}

// render formats one leaf value: floats in their shortest exact form.
func render(v reflect.Value) string {
	if v.Kind() == reflect.Float64 {
		return strconv.FormatFloat(v.Float(), 'g', -1, 64)
	}
	return fmt.Sprint(v.Interface())
}

// WriteText renders the diff for humans: every divergence with its
// per-metric deltas, then a one-line summary. oldName and newName
// label the two sides (e.g. the paths vliwdiff was given).
func (d Diff) WriteText(w io.Writer, oldName, newName string) {
	for _, e := range d.Entries {
		label := e.Label
		if label == "" {
			label = e.Key
		}
		switch e.Status {
		case StatusOnlyOld:
			fmt.Fprintf(w, "- %s (%s): only in %s\n", label, short(e.Key), oldName)
		case StatusOnlyNew:
			fmt.Fprintf(w, "+ %s (%s): only in %s\n", label, short(e.Key), newName)
		case StatusChanged:
			fmt.Fprintf(w, "~ %s (%s):\n", label, short(e.Key))
			for _, f := range e.Fields {
				fmt.Fprintf(w, "    %-24s %s -> %s\n", f.Field, f.Old, f.New)
			}
		}
	}
	changed, onlyOld, onlyNew := d.Counts()
	fmt.Fprintf(w, "%d identical, %d changed, %d only in %s, %d only in %s\n",
		d.Identical, changed, onlyOld, oldName, onlyNew, newName)
}

func short(key string) string {
	if len(key) > 12 {
		return key[:12]
	}
	return key
}
