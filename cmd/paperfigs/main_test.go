package main

import (
	"bytes"
	"path/filepath"
	"regexp"
	"slices"
	"strings"
	"testing"

	"vliwmt/internal/golden"
)

// wallClock matches the one line of output that is not deterministic:
// the wall-clock time a timed section prints after itself.
var wallClock = regexp.MustCompile(`^\[(.+): [0-9]+\.[0-9]{2}s wall clock at [0-9]+ workers\]$`)

// TestGolden runs paperfigs in-process and compares its output with
// testdata/<name>.golden. The test drops each timed section's
// wall-clock line, and checks that it dropped exactly one per timed
// section, in order, so the mask cannot hide any other output.
func TestGolden(t *testing.T) {
	cases := []struct {
		name  string
		args  []string
		timed []string
	}{
		{"all", []string{"-all", "-instrs", "20000"}, []string{
			"Table 1", "Figure 4", "Figure 6", "Figure 10 sweep (16 schemes x 9 mixes)",
			"Extension: 8 threads", "Ablations"}},
		{"fig5-fig9", []string{"-fig5", "-fig9"}, nil},
		{"none", nil, nil},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			var out bytes.Buffer
			if err := run(tc.args, &out); err != nil {
				t.Fatal(err)
			}
			var kept []string
			var timed []string
			for _, line := range strings.SplitAfter(out.String(), "\n") {
				if m := wallClock.FindStringSubmatch(strings.TrimSuffix(line, "\n")); m != nil {
					timed = append(timed, m[1])
					continue
				}
				kept = append(kept, line)
			}
			if !slices.Equal(timed, tc.timed) {
				t.Errorf("dropped wall-clock lines for %q, want one for each of %q", timed, tc.timed)
			}
			golden.Check(t, filepath.Join("testdata", tc.name+".golden"), []byte(strings.Join(kept, "")))
		})
	}
}
