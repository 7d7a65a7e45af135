package lint

import (
	"go/types"
	"testing"
)

// factsFixture loads the fact-layer driver-test package and builds its fact
// layer.
func factsFixture(t *testing.T) (*Package, *Facts) {
	t.Helper()
	_, pkgs := loadGolden(t, "testdata/src/facts")
	return pkgs[0], NewFacts(pkgs)
}

// sitesOf returns the fixture's call sites of the named package-level
// function.
func sitesOf(t *testing.T, pkg *Package, facts *Facts, name string) []CallSite {
	t.Helper()
	fn, _ := pkg.Pkg.Scope().Lookup(name).(*types.Func)
	if fn == nil {
		t.Fatalf("function %s not found in %s", name, pkg.Path)
	}
	return facts.SitesMatching(func(f *types.Func) bool { return f == fn })
}

// TestCallSites pins which syntactic positions the site index covers: a
// direct call in a function body, a call inside a func literal, a method
// call, and a call in a package-level initializer are all sites; mentioning
// a function as a value is not.
func TestCallSites(t *testing.T) {
	pkg, facts := factsFixture(t)
	for name, want := range map[string]int{
		"B":    1, // A calls B directly
		"C":    2, // B calls C; UsesLiteral calls it from a func literal
		"seed": 1, // package-level initializer
		"A":    0, // never called
	} {
		if got := len(sitesOf(t, pkg, facts, name)); got != want {
			t.Errorf("%s has %d call sites, want %d", name, got, want)
		}
	}
	methods := facts.SitesMatching(func(f *types.Func) bool { return f.Name() == "M" })
	if len(methods) != 1 {
		t.Errorf("S.M has %d call sites, want 1 (the method value in UsesMethodValue is not a call)", len(methods))
	}
}

func TestStringConstResolver(t *testing.T) {
	pkg, facts := factsFixture(t)
	sites := sitesOf(t, pkg, facts, "sink")
	if len(sites) != 1 {
		t.Fatalf("sink has %d call sites, want 1", len(sites))
	}
	args := sites[0].Call.Args
	if len(args) != 4 {
		t.Fatalf("sink call has %d args, want 4", len(args))
	}
	cases := []struct {
		name string
		want string
		ok   bool
	}{
		{"const via concatenation", "golden_name", true},
		{"var with constant initializer", "golden_name", true},
		{"var reassigned elsewhere", "", false},
		{"inline concatenation", "golden_suffix", true},
	}
	for i, c := range cases {
		got, ok := facts.StringConst(pkg, args[i])
		if ok != c.ok || got != c.want {
			t.Errorf("%s: StringConst = (%q, %v), want (%q, %v)", c.name, got, ok, c.want, c.ok)
		}
	}
}
