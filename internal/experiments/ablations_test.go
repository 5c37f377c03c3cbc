package experiments

import (
	"slices"
	"testing"

	"vliwmt/internal/workload"
)

// TestAblationsShape pins the ablation rows' shape: one row per
// comparison, every mix (or every kernel, for unroll) measured, and the
// directions the rows claim. Priority rotation loses on MMMM, so only
// its nine-mix average is asserted positive.
func TestAblationsShape(t *testing.T) {
	rows, err := Ablations(DefaultOptions().Scale(20_000))
	if err != nil {
		t.Fatal(err)
	}
	var mixes, kernels []string
	for _, m := range workload.Mixes() {
		mixes = append(mixes, m.Name)
	}
	for _, b := range workload.Benchmarks() {
		kernels = append(kernels, b.Name)
	}
	want := []struct {
		name   string
		inputs []string
	}{
		{"3CCC rotating vs fixed priority", mixes},
		{"2SC3 vs IMT", mixes},
		{"2SC3 vs BMT", mixes},
		{"unroll 4 vs 1 (IPCp)", kernels},
	}
	if len(rows) != len(want) {
		t.Fatalf("got %d rows, want %d", len(rows), len(want))
	}
	for i, w := range want {
		r := rows[i]
		if r.Name != w.name || !slices.Equal(r.Inputs, w.inputs) || len(r.GainPc) != len(w.inputs) {
			t.Fatalf("row %d = %q over %v (%d gains), want %q over %v", i, r.Name, r.Inputs, len(r.GainPc), w.name, w.inputs)
		}
	}
	if avg := rows[0].Average(); avg <= 0 {
		t.Errorf("rotation gain averages %.1f%% over the nine mixes, want positive", avg)
	}
	for _, r := range rows[1:3] {
		for i, g := range r.GainPc {
			if g <= 0 {
				t.Errorf("%s on %s: %.1f%%, want merged issue ahead", r.Name, r.Inputs[i], g)
			}
		}
	}
	for i, g := range rows[3].GainPc {
		if g < 0 {
			t.Errorf("unroll 4 vs 1 on %s: %.1f%%, want no loss", rows[3].Inputs[i], g)
		}
	}
}
