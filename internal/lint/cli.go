package lint

import (
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"
)

// Exit codes for Main. Findings and hard errors are distinct so CI can tell
// "the tree violates an invariant" from "binelint itself could not run".
const (
	ExitClean    = 0
	ExitFindings = 1
	ExitError    = 2
)

// Main is the binelint entry point, factored for in-process testing of flag
// handling and exit codes. args are the command-line arguments after the
// program name.
func Main(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("binelint", flag.ContinueOnError)
	fs.SetOutput(stderr)
	jsonOut := fs.Bool("json", false, "emit findings as a JSON array instead of file:line text")
	rules := fs.String("rules", "", "comma-separated subset of rules to run (default: all)")
	fs.Usage = func() {
		fmt.Fprintf(stderr, "usage: binelint [-json] [-rules rule,...] [./... | dir ...]\n\nrules:\n")
		for _, a := range Analyzers() {
			fmt.Fprintf(stderr, "  %-12s %s\n", a.Name, a.Doc)
		}
		fs.PrintDefaults()
	}
	if err := fs.Parse(args); err != nil {
		return ExitError
	}

	analyzers := Analyzers()
	if *rules != "" {
		byName := map[string]*Analyzer{}
		known := make([]string, 0, len(analyzers))
		for _, a := range analyzers {
			byName[a.Name] = a
			known = append(known, a.Name)
		}
		analyzers = nil
		for _, name := range strings.Split(*rules, ",") {
			a := byName[strings.TrimSpace(name)]
			if a == nil {
				// A typo must not silently narrow the run: name the known
				// rules and refuse.
				fmt.Fprintf(stderr, "binelint: unknown rule %q (known rules: %s)\n", name, strings.Join(known, ", "))
				return ExitError
			}
			analyzers = append(analyzers, a)
		}
	}

	wd, err := os.Getwd()
	if err != nil {
		fmt.Fprintf(stderr, "binelint: %v\n", err)
		return ExitError
	}
	ldr, err := NewLoader(wd)
	if err != nil {
		fmt.Fprintf(stderr, "binelint: %v\n", err)
		return ExitError
	}

	targets := fs.Args()
	if len(targets) == 0 {
		targets = []string{"./..."}
	}
	var pkgs []*Package
	seen := map[string]bool{}
	add := func(ps []*Package) {
		for _, p := range ps {
			if !seen[p.Path] {
				seen[p.Path] = true
				pkgs = append(pkgs, p)
			}
		}
	}
	for _, t := range targets {
		if t == "./..." || t == "..." {
			all, err := ldr.LoadAll()
			if err != nil {
				fmt.Fprintf(stderr, "binelint: %v\n", err)
				return ExitError
			}
			add(all)
			continue
		}
		dir := t
		if !filepath.IsAbs(dir) {
			dir = filepath.Join(wd, dir)
		}
		pkg, err := ldr.LoadDir(dir)
		if err != nil {
			fmt.Fprintf(stderr, "binelint: %v\n", err)
			return ExitError
		}
		add([]*Package{pkg})
	}

	findings := Run(ldr, pkgs, analyzers)
	if *jsonOut {
		if err := WriteJSON(stdout, findings); err != nil {
			fmt.Fprintf(stderr, "binelint: %v\n", err)
			return ExitError
		}
	} else {
		WriteText(stdout, findings)
	}
	if len(findings) > 0 {
		return ExitFindings
	}
	return ExitClean
}
