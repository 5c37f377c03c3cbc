package main

import (
	"bytes"
	"path/filepath"
	"testing"

	"vliwmt/internal/golden"
)

// TestGolden runs vliwasm in-process and compares its output with
// testdata/<name>.golden.
func TestGolden(t *testing.T) {
	cases := []struct {
		name string
		args []string
	}{
		{"idct", []string{"-bench", "idct"}},
		{"mcf-stats", []string{"-bench", "mcf", "-stats"}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			var out bytes.Buffer
			if err := run(tc.args, &out); err != nil {
				t.Fatal(err)
			}
			golden.Check(t, filepath.Join("testdata", tc.name+".golden"), out.Bytes())
		})
	}
}
