package main

import (
	"bytes"
	"path/filepath"
	"strings"
	"testing"

	"vliwmt/internal/golden"
)

// TestGolden runs vliwsim in-process and compares its output with
// testdata/<name>.golden. Each case's header must also name the merge
// control that ran: none at one context, and the gate-level cost of a
// merge tree.
func TestGolden(t *testing.T) {
	cases := []struct {
		name   string
		args   []string
		header string
	}{
		{"single-context", []string{"-mix", "LLHH", "-contexts", "1", "-instrs", "20000"},
			", no merging, 1 context\n"},
		{"imt", []string{"-mix", "LLHH", "-scheme", "IMT", "-instrs", "20000"},
			", scheme IMT, 4 contexts\ncycles "},
		{"tree", []string{"-mix", "LLHH", "-scheme", "S(C(T0,T1,T2),T3)", "-instrs", "20000"},
			"\nmerge control: S(C(T0,T1,T2),T3), 3132 transistors, 25 gate delays\n"},
		{"bench-perfect", []string{"-bench", "mcf,x264", "-scheme", "1S", "-perfect", "-instrs", "20000"},
			", scheme 1S, 2 contexts\nmerge control: S(T0,T1), 2148 transistors, 12 gate delays\n"},
		{"list", []string{"-list"}, "Schemes (Figure 9 order):\n"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			var out bytes.Buffer
			if err := run(tc.args, &out); err != nil {
				t.Fatal(err)
			}
			if !strings.Contains(out.String(), tc.header) {
				t.Errorf("output lacks %q", tc.header)
			}
			golden.Check(t, filepath.Join("testdata", tc.name+".golden"), out.Bytes())
		})
	}
}
