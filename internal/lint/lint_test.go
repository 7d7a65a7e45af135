package lint

import (
	"encoding/json"
	"strings"
	"testing"
)

func TestWriteTextFormat(t *testing.T) {
	var sb strings.Builder
	WriteText(&sb, []Finding{{Rule: "goarg", File: "internal/x/x.go", Line: 12, Col: 3, Message: "boom"}})
	if got, want := sb.String(), "internal/x/x.go:12: [goarg] boom\n"; got != want {
		t.Fatalf("got %q, want %q", got, want)
	}
}

func TestWriteJSONShape(t *testing.T) {
	var sb strings.Builder
	if err := WriteJSON(&sb, nil); err != nil {
		t.Fatal(err)
	}
	if got := strings.TrimSpace(sb.String()); got != "[]" {
		t.Fatalf("empty findings encode as %q, want []", got)
	}

	sb.Reset()
	in := []Finding{{Rule: "ctxflow", File: "a.go", Line: 7, Col: 2, Message: "m"}}
	if err := WriteJSON(&sb, in); err != nil {
		t.Fatal(err)
	}
	var decoded []map[string]any
	if err := json.Unmarshal([]byte(sb.String()), &decoded); err != nil {
		t.Fatal(err)
	}
	if len(decoded) != 1 {
		t.Fatalf("decoded %d findings, want 1", len(decoded))
	}
	for _, key := range []string{"rule", "file", "line", "col", "message"} {
		if _, ok := decoded[0][key]; !ok {
			t.Errorf("JSON finding missing key %q: %v", key, decoded[0])
		}
	}
}

func TestPathSegments(t *testing.T) {
	cases := []struct {
		path string
		segs []string
		want bool
	}{
		{"binetrees/internal/harness", []string{"internal", "harness"}, true},
		{"binetrees/internal/lint/testdata/src/ctxflow/internal/harness", []string{"internal", "harness"}, true},
		{"binetrees/internal/harnessfoo", []string{"internal", "harness"}, false},
		{"binetrees/internal/obs", []string{"internal", "harness"}, false},
		{"internal/harness", []string{"internal", "harness"}, true},
	}
	for _, c := range cases {
		if got := pathSegments(c.path, c.segs...); got != c.want {
			t.Errorf("pathSegments(%q, %v) = %v, want %v", c.path, c.segs, got, c.want)
		}
	}
}

// TestMainExitCodes pins the CLI contract in-process: 0 on a clean package,
// 1 on findings (text and JSON modes), 2 on usage errors, and -rules
// restricting the suite.
func TestMainExitCodes(t *testing.T) {
	runMain := func(args ...string) (int, string, string) {
		var out, errb strings.Builder
		code := Main(args, &out, &errb)
		return code, out.String(), errb.String()
	}

	if code, out, errb := runMain("testdata/src/clean"); code != ExitClean || out != "" {
		t.Errorf("clean package: code=%d out=%q err=%q, want exit 0 and no output", code, out, errb)
	}

	code, out, _ := runMain("testdata/src/goarg")
	if code != ExitFindings {
		t.Fatalf("goarg package: code=%d, want %d", code, ExitFindings)
	}
	if !strings.Contains(out, "[goarg]") || !strings.Contains(out, "goarg.go:") {
		t.Errorf("text findings missing rule tag or file:line: %q", out)
	}

	code, out, _ = runMain("-json", "testdata/src/goarg")
	if code != ExitFindings {
		t.Fatalf("-json: code=%d, want %d", code, ExitFindings)
	}
	var findings []Finding
	if err := json.Unmarshal([]byte(out), &findings); err != nil {
		t.Fatalf("-json output does not parse: %v\n%s", err, out)
	}
	if len(findings) == 0 || findings[0].Rule != "goarg" {
		t.Errorf("-json findings: %+v", findings)
	}

	// Restricting to a rule the package does not violate exits clean.
	if code, out, _ := runMain("-rules", "ctxflow", "testdata/src/goarg"); code != ExitClean || out != "" {
		t.Errorf("-rules ctxflow on goarg package: code=%d out=%q, want clean", code, out)
	}

	// An unknown rule refuses and names every known rule, so the caller can
	// see the typo without a second invocation.
	code, _, errb := runMain("-rules", "nonesuch", "testdata/src/clean")
	if code != ExitError || !strings.Contains(errb, "unknown rule") {
		t.Errorf("unknown rule: code=%d err=%q, want exit 2", code, errb)
	}
	if !strings.Contains(errb, "known rules:") {
		t.Errorf("unknown-rule error does not list known rules: %q", errb)
	}
	for _, a := range Analyzers() {
		if !strings.Contains(errb, a.Name) {
			t.Errorf("unknown-rule error missing rule %q: %q", a.Name, errb)
		}
	}

	// metricname is gone (obs.Registry refuses a second registration of a
	// series itself): asking for it is the same usage error, and it is no
	// longer among the known rules.
	code, _, errb = runMain("-rules", "metricname", "testdata/src/clean")
	if _, known, _ := strings.Cut(errb, "known rules:"); code != ExitError ||
		known != " goarg, ctxflow, detrange)\n" {
		t.Errorf("-rules metricname: code=%d err=%q, want exit 2 listing exactly goarg, ctxflow, detrange", code, errb)
	}
}
