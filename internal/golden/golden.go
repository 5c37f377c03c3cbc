// Package golden compares a command's output in tests with a golden
// file under the command's testdata directory. Run the tests with
// -update (make golden) to rewrite the files after an intentional
// output change, then review the diff before committing.
package golden

import (
	"flag"
	"os"
	"strings"
	"testing"
)

var update = flag.Bool("update", false, "rewrite the golden files under testdata")

// Check compares got with the golden file at path and reports the first
// line that differs; under -update it writes got to path instead.
func Check(t testing.TB, path string, got []byte) {
	t.Helper()
	if *update {
		if err := os.WriteFile(path, got, 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if string(got) == string(want) {
		return
	}
	g, w := strings.SplitAfter(string(got), "\n"), strings.SplitAfter(string(want), "\n")
	i := 0
	for i < len(g) && i < len(w) && g[i] == w[i] {
		i++
	}
	g, w = append(g, ""), append(w, "") // the shorter output reads "" past its end
	t.Errorf("output differs from %s at line %d:\n got: %q\nwant: %q", path, i+1, g[i], w[i])
}
