package main

import (
	"strings"
	"testing"
)

// TestRunExitCodes pins the command's exits, in-process: a flag it does not
// have is a usage error (2); an unknown -kind or -butterfly and a -p entry
// that is not a number fail the run (1) — each names its cause on stderr and
// writes nothing to stdout, even when an earlier -p entry rendered — and a
// good run exits 0 with the schedule on stdout.
func TestRunExitCodes(t *testing.T) {
	cases := []struct {
		name   string
		args   []string
		code   int
		stdout string
		stderr string
	}{
		{"unknown flag", []string{"-no-such-flag"}, 2, "", "Usage of binetree:"},
		{"unknown -kind", []string{"-kind", "trinomial"}, 1, "", `binetree: unknown tree kind "trinomial"`},
		{"unknown -butterfly", []string{"-butterfly", "moth"}, 1, "", `binetree: unknown butterfly kind "moth"`},
		{"non-numeric -p entry", []string{"-p", "8,many"}, 1, "", `binetree: bad rank count "many"`},
		{"bine-dh over 8 ranks", []string{"-p", "8", "-kind", "bine-dh"}, 0,
			"step 2 (max modular distance 1): 0→1  3→2  4→5  7→6\n", ""},
	}
	for _, tc := range cases {
		var stdout, stderr strings.Builder
		code := run(tc.args, &stdout, &stderr)
		if code != tc.code || !strings.Contains(stderr.String(), tc.stderr) {
			t.Errorf("%s: exit %d (want %d), stderr %q (want it to mention %q)", tc.name, code, tc.code, stderr.String(), tc.stderr)
		}
		if (tc.stdout == "") != (stdout.Len() == 0) || !strings.Contains(stdout.String(), tc.stdout) {
			t.Errorf("%s: stdout %q, want it to contain %q", tc.name, stdout.String(), tc.stdout)
		}
	}
}
