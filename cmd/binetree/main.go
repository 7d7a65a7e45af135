// Command binetree inspects Bine and binomial tree/butterfly schedules: it
// prints, for a given rank count, the per-step communication pairs, each
// rank's parent and join step, the per-step modular distances, and (for
// butterflies) the block send sets — a debugging lens onto Sections 2 and 3
// of the paper.
//
// Flags:
//
//	-p         comma-separated rank counts, rendered in the order given
//	-kind      tree kind: bine-dh, bine-dd, binomial-dd, binomial-dh
//	-butterfly print a butterfly instead of a tree: bine-dh, bine-dd,
//	           binomial-dh, binomial-dd, swing
//	-root      tree root rank
//
// Usage:
//
//	binetree -p 16 -kind bine-dh -root 0
//	binetree -p 8 -butterfly bine-dd
//	binetree -p 256,1024,4096 -kind bine-dh
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"strconv"
	"strings"

	"binetrees/internal/core"
)

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

// run is the whole command — flags in, schedule on stdout, diagnostics on
// stderr, exit code out — so tests can drive it in-process. Exit codes: 0 on
// success, 1 on a schedule that cannot be built (unknown kind, bad rank
// count), 2 on a usage error.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("binetree", flag.ContinueOnError)
	fs.SetOutput(stderr)
	ps := fs.String("p", "16", "number of ranks (comma-separated list renders several)")
	kind := fs.String("kind", "bine-dh", "tree kind: bine-dh, bine-dd, binomial-dd, binomial-dh")
	bfly := fs.String("butterfly", "", "instead of a tree, print a butterfly: bine-dh, bine-dd, binomial-dh, binomial-dd, swing")
	root := fs.Int("root", 0, "tree root")
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return 0
		}
		return 2
	}
	if err := runAll(stdout, *ps, *kind, *bfly, *root); err != nil {
		fmt.Fprintln(stderr, "binetree:", err)
		return 1
	}
	return 0
}

// runAll renders every requested rank count in argument order; nothing is
// printed unless all of them render.
func runAll(w io.Writer, ps, kindName, bflyName string, root int) error {
	var out strings.Builder
	for i, f := range strings.Split(ps, ",") {
		p, err := strconv.Atoi(strings.TrimSpace(f))
		if err != nil {
			return fmt.Errorf("bad rank count %q", f)
		}
		if i > 0 {
			fmt.Fprintln(&out, strings.Repeat("=", 80))
		}
		if err := printSchedule(&out, p, kindName, bflyName, root); err != nil {
			return err
		}
	}
	_, err := io.WriteString(w, out.String())
	return err
}

var treeKinds = map[string]core.Kind{
	"bine-dh":     core.BineDH,
	"bine-dd":     core.BineDD,
	"binomial-dd": core.BinomialDD,
	"binomial-dh": core.BinomialDH,
}

var bflyKinds = map[string]core.ButterflyKind{
	"bine-dh":     core.BflyBineDH,
	"bine-dd":     core.BflyBineDD,
	"binomial-dh": core.BflyBinomialDH,
	"binomial-dd": core.BflyBinomialDD,
	"swing":       core.BflySwing,
}

func printSchedule(w io.Writer, p int, kindName, bflyName string, root int) error {
	if bflyName != "" {
		return printButterfly(w, p, bflyName)
	}
	kind, ok := treeKinds[kindName]
	if !ok {
		return fmt.Errorf("unknown tree kind %q", kindName)
	}
	t, err := core.NewTree(kind, p, root)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "%s tree over %d ranks, root %d, %d steps\n\n", kindName, p, root, t.Steps)
	for step := 0; step < t.Steps; step++ {
		pairs := t.StepSenders(step)
		var parts []string
		maxDist := 0
		for _, pr := range pairs {
			parts = append(parts, fmt.Sprintf("%d→%d", pr[0], pr[1]))
			if d := core.ModDist(pr[0], pr[1], p); d > maxDist {
				maxDist = d
			}
		}
		fmt.Fprintf(w, "step %d (max modular distance %d): %s\n", step, maxDist, strings.Join(parts, "  "))
	}
	fmt.Fprintf(w, "\n%-6s %-8s %-6s %-10s %s\n", "rank", "parent", "join", "negabinary", "subtree (circular runs)")
	for r := 0; r < p; r++ {
		nb := core.RankToNB(core.Mod(r-root, p), p)
		var runs []string
		for _, run := range t.SubtreeRanges(r) {
			if run.Len == 1 {
				runs = append(runs, fmt.Sprintf("%d", run.Start))
			} else {
				runs = append(runs, fmt.Sprintf("%d..%d", run.Start, core.Mod(run.Start+run.Len-1, p)))
			}
		}
		fmt.Fprintf(w, "%-6d %-8d %-6d %0*b %s\n", r, t.Parent[r], t.JoinStep[r], t.Steps, nb, strings.Join(runs, ","))
	}
	return nil
}

func printButterfly(w io.Writer, p int, name string) error {
	kind, ok := bflyKinds[name]
	if !ok {
		return fmt.Errorf("unknown butterfly kind %q", name)
	}
	b, err := core.NewButterfly(kind, p)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "%s butterfly over %d ranks, %d steps\n\n", name, p, b.S)
	for i := 0; i < b.S; i++ {
		fmt.Fprintf(w, "step %d (modular distance %d):\n", i, b.ModDistAt(i))
		for r := 0; r < p; r++ {
			q := b.Partner(r, i)
			if r < q {
				fmt.Fprintf(w, "  %d ⇄ %d   %d sends blocks %v\n", r, q, r, b.SendSet(r, i))
			}
		}
	}
	fmt.Fprintf(w, "\npermute positions (block → reverse(ν)): ")
	for blk := 0; blk < p; blk++ {
		fmt.Fprintf(w, "%d→%d ", blk, b.PermutedPosition(blk))
	}
	fmt.Fprintln(w)
	return nil
}
