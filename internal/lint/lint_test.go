package lint

import "testing"

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

// TestModuleClean is binelint: the whole module (the ./... set, bench/
// included) must produce no finding under the full suite, so the three
// invariants hold in tier-1 `go test ./...`. Fix a violation, or suppress it
// inline with //binelint:ignore <rule> <reason>.
func TestModuleClean(t *testing.T) {
	ldr := sharedLoader(t)
	pkgs, err := ldr.LoadAll()
	if err != nil {
		t.Fatal(err)
	}
	seen := map[string]bool{}
	for _, p := range pkgs {
		if seen[p.Path] {
			t.Errorf("LoadAll returned %s more than once", p.Path)
		}
		seen[p.Path] = true
	}
	for _, path := range []string{ldr.Module + "/internal/harness", ldr.Module + "/bench"} {
		if !seen[path] {
			t.Errorf("LoadAll did not reach %s", path)
		}
	}
	for _, f := range Run(ldr, pkgs, Analyzers()) {
		t.Error(f)
	}
}
