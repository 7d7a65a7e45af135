package lint

import (
	"bytes"
	"go/format"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// fixFixtureSrc violates detrange (map range appending to a rendered slice
// without a sort) and atomicmix (a field accessed atomically on one path and
// bare on four others: store, compound add, increment, read).
const fixFixtureSrc = `package fixme

import "sync/atomic"

type counters struct {
	hits uint64
}

func (c *counters) bump() {
	atomic.AddUint64(&c.hits, 1)
}

func (c *counters) bad(n uint64) uint64 {
	c.hits = n
	c.hits += 2
	c.hits++
	return c.hits
}

func render(m map[string]string) []string {
	var keys []string
	for k := range m {
		keys = append(keys, k)
	}
	return keys
}
`

// writeFixModule materializes a throwaway module around fixFixtureSrc.
func writeFixModule(t *testing.T) (dir, file string) {
	t.Helper()
	dir = t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, "go.mod"), []byte("module fixme\n\ngo 1.24\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	file = filepath.Join(dir, "fixme.go")
	if err := os.WriteFile(file, []byte(fixFixtureSrc), 0o644); err != nil {
		t.Fatal(err)
	}
	return dir, file
}

// loadAndRun runs the fixable analyzers over the temp module with a fresh
// loader (fresh object space, positions valid against the file on disk).
func loadAndRun(t *testing.T, dir string) (*Loader, []Finding) {
	t.Helper()
	ldr, err := NewLoader(dir)
	if err != nil {
		t.Fatal(err)
	}
	pkgs, err := ldr.LoadAll()
	if err != nil {
		t.Fatal(err)
	}
	return ldr, Run(ldr, pkgs, []*Analyzer{DetRange, AtomicMix})
}

// TestApplyFixesIdempotent pins the -fix contract: one application removes
// every fixable finding, the result is gofmt-clean, and a second -fix run is
// a byte-identical no-op.
func TestApplyFixesIdempotent(t *testing.T) {
	dir, file := writeFixModule(t)

	ldr, findings := loadAndRun(t, dir)
	// 1 detrange + 4 atomicmix findings, all carrying fixes.
	if len(findings) != 5 {
		t.Fatalf("got %d findings, want 5: %+v", len(findings), findings)
	}

	// A dry -fix -diff run produces a patch and leaves the file alone.
	var patch bytes.Buffer
	if _, err := ApplyFixes(ldr, findings, false, &patch); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(patch.String(), "--- a/fixme.go") || !strings.Contains(patch.String(), "atomic.StoreUint64(&c.hits, n)") {
		t.Errorf("diff output missing expected content:\n%s", patch.String())
	}
	if cur, _ := os.ReadFile(file); string(cur) != fixFixtureSrc {
		t.Fatal("-fix -diff modified the file")
	}

	applied, err := ApplyFixes(ldr, findings, true, nil)
	if err != nil {
		t.Fatal(err)
	}
	if applied != 5 {
		t.Errorf("applied %d fixes, want 5", applied)
	}
	for _, f := range findings {
		if !f.Fixed {
			t.Errorf("finding not marked fixed: %+v", f)
		}
	}

	once, err := os.ReadFile(file)
	if err != nil {
		t.Fatal(err)
	}
	if formatted, err := format.Source(once); err != nil || !bytes.Equal(formatted, once) {
		t.Errorf("fixed file is not gofmt-clean (err=%v):\n%s", err, once)
	}
	for _, want := range []string{
		"atomic.StoreUint64(&c.hits, n)",
		"atomic.AddUint64(&c.hits, 2)",
		"atomic.AddUint64(&c.hits, 1)",
		"return atomic.LoadUint64(&c.hits)",
		"sort.Strings(keys)",
		`"sort"`,
	} {
		if !bytes.Contains(once, []byte(want)) {
			t.Errorf("fixed file missing %q:\n%s", want, once)
		}
	}

	// Second run: the fixes removed their findings, so nothing applies and
	// the bytes do not move.
	ldr2, findings2 := loadAndRun(t, dir)
	if len(findings2) != 0 {
		t.Errorf("findings survived -fix: %+v", findings2)
	}
	if applied, err := ApplyFixes(ldr2, findings2, true, nil); err != nil || applied != 0 {
		t.Errorf("second ApplyFixes = (%d, %v), want (0, nil)", applied, err)
	}
	twice, err := os.ReadFile(file)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(once, twice) {
		t.Error("-fix applied twice is not byte-identical to once")
	}
}

// TestMainFixDiff drives the CLI end to end the way the CI gate does:
// -fix -diff prints a pure patch on stdout (findings on stderr), -fix writes
// the tree clean, and a final -fix -diff on the fixed tree is empty.
func TestMainFixDiff(t *testing.T) {
	dir, file := writeFixModule(t)
	t.Chdir(dir)

	runMain := func(args ...string) (int, string, string) {
		var out, errb strings.Builder
		code := Main(args, &out, &errb)
		return code, out.String(), errb.String()
	}

	code, out, errb := runMain("-fix", "-diff", "./...")
	if code != ExitFindings {
		t.Fatalf("-fix -diff on violating tree: code=%d err=%q, want %d", code, errb, ExitFindings)
	}
	if !strings.HasPrefix(out, "--- a/fixme.go") {
		t.Errorf("stdout is not a pure patch:\n%s", out)
	}
	if !strings.Contains(errb, "[detrange]") || !strings.Contains(errb, "[atomicmix]") {
		t.Errorf("findings did not go to stderr: %q", errb)
	}
	if cur, _ := os.ReadFile(file); string(cur) != fixFixtureSrc {
		t.Fatal("-fix -diff modified the file")
	}

	if code, out, errb := runMain("-fix", "./..."); code != ExitFindings || !strings.Contains(out, "(fixed)") {
		t.Fatalf("-fix: code=%d out=%q err=%q, want findings marked (fixed)", code, out, errb)
	}

	if code, out, errb := runMain("./..."); code != ExitClean {
		t.Fatalf("fixed tree not clean: code=%d out=%q err=%q", code, out, errb)
	}
	if code, out, _ := runMain("-fix", "-diff", "./..."); code != ExitClean || out != "" {
		t.Errorf("-fix -diff on fixed tree: code=%d out=%q, want clean and empty", code, out)
	}
}
