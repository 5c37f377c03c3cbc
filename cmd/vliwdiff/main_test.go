package main

import (
	"bytes"
	"errors"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"

	"vliwmt/internal/golden"
)

var (
	corpus    = filepath.Join("..", "..", "testdata", "golden", "corpus.json")
	generated = filepath.Join("..", "..", "testdata", "golden", "generated.json")
)

// TestMain runs the command's main instead of the tests when
// TestExitCodes starts the test binary as vliwdiff.
func TestMain(m *testing.M) {
	if os.Getenv("VLIWDIFF_RUN_MAIN") == "1" {
		main()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// TestGolden runs vliwdiff in-process and compares its report with
// testdata/<name>.golden.
func TestGolden(t *testing.T) {
	cases := []struct {
		name string
		args []string
		err  error
	}{
		{"identical", []string{corpus, corpus}, nil},
		{"diverged", []string{corpus, generated}, errDiverged},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			var out bytes.Buffer
			if err := run(tc.args, &out); !errors.Is(err, tc.err) {
				t.Fatalf("run = %v, want %v", err, tc.err)
			}
			golden.Check(t, filepath.Join("testdata", tc.name+".golden"), out.Bytes())
		})
	}
}

// TestExitCodes pins the command's exit status: 0 when the snapshots
// are identical, 1 with the per-job report when they diverge, 2 with
// the usage text for a command line without two snapshots.
func TestExitCodes(t *testing.T) {
	cases := []struct {
		name           string
		args           []string
		code           int
		stdout, stderr string
	}{
		{"identical", []string{corpus, corpus}, 0, " identical, 0 changed, ", ""},
		{"diverged", []string{corpus, generated}, 1, "LLHH/2SC3/real", ""},
		{"one-argument", []string{corpus}, 2, "", "usage: vliwdiff OLD NEW"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			cmd := exec.Command(os.Args[0], tc.args...)
			cmd.Env = append(os.Environ(), "VLIWDIFF_RUN_MAIN=1")
			var stdout, stderr bytes.Buffer
			cmd.Stdout, cmd.Stderr = &stdout, &stderr
			code := 0
			if err := cmd.Run(); err != nil {
				var exit *exec.ExitError
				if !errors.As(err, &exit) {
					t.Fatal(err)
				}
				code = exit.ExitCode()
			}
			if code != tc.code {
				t.Errorf("exit status %d, want %d (stderr %q)", code, tc.code, stderr.String())
			}
			if !strings.Contains(stdout.String(), tc.stdout) || !strings.Contains(stderr.String(), tc.stderr) {
				t.Errorf("stdout %q, stderr %q: want %q and %q in them", stdout.String(), stderr.String(), tc.stdout, tc.stderr)
			}
		})
	}
}
