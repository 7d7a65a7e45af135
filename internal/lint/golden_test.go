package lint

import (
	"fmt"
	"path/filepath"
	"regexp"
	"strconv"
	"strings"
	"sync"
	"testing"
)

// The golden harness: each analyzer runs over a testdata/src package whose
// files carry trailing "// want `regexp`" comments on every line that must
// produce a finding. The test fails on any unexpected finding and on any
// want comment no finding matched — the analysistest contract, hand-rolled
// on the stdlib.

var (
	goldenOnce sync.Once
	goldenLdr  *Loader
	goldenErr  error
)

// sharedLoader returns one Loader for all golden tests, so the expensive
// source-importer stdlib checks run once per test binary.
func sharedLoader(t *testing.T) *Loader {
	t.Helper()
	goldenOnce.Do(func() {
		goldenLdr, goldenErr = NewLoader(".")
	})
	if goldenErr != nil {
		t.Fatal(goldenErr)
	}
	return goldenLdr
}

func loadGolden(t *testing.T, dirs ...string) (*Loader, []*Package) {
	t.Helper()
	ldr := sharedLoader(t)
	pkgs := make([]*Package, len(dirs))
	for i, dir := range dirs {
		p, err := ldr.LoadDir(dir)
		if err != nil {
			t.Fatal(err)
		}
		pkgs[i] = p
	}
	return ldr, pkgs
}

type wantEntry struct {
	re      *regexp.Regexp
	matched bool
}

// collectWants parses the "// want" comments of every file, keyed by
// module-relative file:line (the coordinates findings carry).
func collectWants(t *testing.T, ldr *Loader, pkgs []*Package) map[string][]*wantEntry {
	t.Helper()
	wants := map[string][]*wantEntry{}
	for _, pkg := range pkgs {
		for _, f := range pkg.Files {
			for _, cg := range f.Comments {
				for _, c := range cg.List {
					text := strings.TrimSpace(strings.TrimPrefix(c.Text, "//"))
					rest, ok := strings.CutPrefix(text, "want ")
					if !ok {
						continue
					}
					rest = strings.TrimSpace(rest)
					var pattern string
					switch {
					case strings.HasPrefix(rest, "`"):
						end := strings.Index(rest[1:], "`")
						if end < 0 {
							t.Fatalf("%s: unterminated want pattern", ldr.Fset.Position(c.Pos()))
						}
						pattern = rest[1 : 1+end]
					case strings.HasPrefix(rest, `"`):
						var err error
						pattern, err = strconv.Unquote(rest)
						if err != nil {
							t.Fatalf("%s: bad want pattern: %v", ldr.Fset.Position(c.Pos()), err)
						}
					default:
						continue // prose mentioning "want", not a pattern
					}
					re, err := regexp.Compile(pattern)
					if err != nil {
						t.Fatalf("%s: bad want regexp: %v", ldr.Fset.Position(c.Pos()), err)
					}
					pos := ldr.Fset.Position(c.Pos())
					key := goldenKey(ldr, pos.Filename, pos.Line)
					wants[key] = append(wants[key], &wantEntry{re: re})
				}
			}
		}
	}
	return wants
}

func goldenKey(ldr *Loader, filename string, line int) string {
	if rel, err := filepath.Rel(ldr.ModRoot, filename); err == nil && !strings.HasPrefix(rel, "..") {
		filename = filepath.ToSlash(rel)
	}
	return fmt.Sprintf("%s:%d", filename, line)
}

// runGolden runs one analyzer over the given testdata package dirs and
// matches its findings against the want comments.
func runGolden(t *testing.T, a *Analyzer, dirs ...string) {
	t.Helper()
	ldr, pkgs := loadGolden(t, dirs...)
	findings := Run(ldr, pkgs, []*Analyzer{a})
	matchGolden(t, findings, collectWants(t, ldr, pkgs))
}

func matchGolden(t *testing.T, findings []Finding, wants map[string][]*wantEntry) {
	t.Helper()
	for _, f := range findings {
		key := fmt.Sprintf("%s:%d", f.File, f.Line)
		matched := false
		for _, w := range wants[key] {
			if !w.matched && w.re.MatchString(f.Message) {
				w.matched = true
				matched = true
				break
			}
		}
		if !matched {
			t.Errorf("unexpected finding at %s: [%s] %s", key, f.Rule, f.Message)
		}
	}
	for key, entries := range wants {
		for _, w := range entries {
			if !w.matched {
				t.Errorf("missing finding at %s: want match for %q", key, w.re)
			}
		}
	}
}

func TestGoArgGolden(t *testing.T) {
	runGolden(t, GoArg, "testdata/src/goarg")
}

func TestCtxFlowGolden(t *testing.T) {
	// The harness package is inside the rule's target set; outside is not —
	// its context.Background() must produce no finding.
	runGolden(t, CtxFlow, "testdata/src/ctxflow/internal/harness", "testdata/src/ctxflow/outside")
}

func TestDetRangeGolden(t *testing.T) {
	runGolden(t, DetRange, "testdata/src/detrange")
}

// TestCleanPackageNoFindings pins the other half of the goldens: a
// conforming package produces no findings under the full suite.
func TestCleanPackageNoFindings(t *testing.T) {
	ldr, pkgs := loadGolden(t, "testdata/src/clean")
	for _, f := range Run(ldr, pkgs, Analyzers()) {
		t.Errorf("finding on clean package: %s", f)
	}
}

// markerLine locates a "marker:<name>" comment in a loaded package.
func markerLine(t *testing.T, ldr *Loader, pkg *Package, marker string) int {
	t.Helper()
	for _, f := range pkg.Files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				if strings.Contains(c.Text, "marker:"+marker) {
					return ldr.Fset.Position(c.Pos()).Line
				}
			}
		}
	}
	t.Fatalf("marker %q not found", marker)
	return 0
}

// TestSuppression pins the //binelint:ignore machinery on the suppress
// golden package: matching directives (standalone-above and trailing forms)
// silence findings, a directive for a different rule does not, malformed
// directives (no reason) and unused directives are reported.
func TestSuppression(t *testing.T) {
	ldr, pkgs := loadGolden(t, "testdata/src/suppress")
	pkg := pkgs[0]
	findings := Run(ldr, pkgs, []*Analyzer{GoArg})

	at := func(rule string, line int) *Finding {
		for i := range findings {
			if findings[i].Rule == rule && findings[i].Line == line {
				return &findings[i]
			}
		}
		return nil
	}

	if f := at("goarg", markerLine(t, ldr, pkg, "suppressed-above")); f != nil {
		t.Errorf("standalone directive did not suppress: %+v", *f)
	}
	if f := at("goarg", markerLine(t, ldr, pkg, "suppressed-trailing")); f != nil {
		t.Errorf("trailing directive did not suppress: %+v", *f)
	}
	if at("goarg", markerLine(t, ldr, pkg, "unsuppressed")) == nil {
		t.Error("directive for a different rule suppressed a goarg finding")
	}
	malformed := at("binelint", markerLine(t, ldr, pkg, "malformed-above")-1)
	if malformed == nil || !strings.Contains(malformed.Message, "malformed ignore directive") {
		t.Errorf("missing malformed-directive finding, got %+v", malformed)
	}
	for _, marker := range []string{"wrong-rule", "unused-directive"} {
		f := at("binelint", markerLine(t, ldr, pkg, marker))
		if f == nil || !strings.Contains(f.Message, "unused ignore directive") {
			t.Errorf("missing unused-directive finding at %s, got %+v", marker, f)
		}
	}
	// Exactly the asserted findings and no more: 1 goarg + 3 binelint.
	if len(findings) != 4 {
		t.Errorf("got %d findings, want 4: %+v", len(findings), findings)
	}
}
