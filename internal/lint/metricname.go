package lint

import (
	"fmt"
	"go/types"
	"sort"
	"strings"
)

// MetricName enforces the metrics-vocabulary invariant at its root: every
// (name, labels) pair reaching obs.Registry's registration methods —
// Counter, Gauge, GaugeFunc, Histogram — must be registered at exactly one
// call site module-wide, and a name must keep one metric kind everywhere.
// The registry panics on a kind collision, but only at init of the package
// that loses the race, and only on the code path that actually runs; two
// sites silently sharing one (name, labels) counter is worse — each owner
// double-counts the other's increments and no test sees it. The CI scrape
// gate pins the exposition's series, but it can only check names it knows
// about; this rule checks the registration side for all of them.
//
// Names and label values are resolved through the fact layer's constant
// folder, so a name spelled as a cross-package constant or a package-level
// `var` with a literal initializer still participates. A site whose name
// doesn't fold to a constant is skipped (the wrapper-function pattern:
// per-path request counters take the label value as a parameter); a site
// whose labels don't fold is kind-checked but exempt from the
// exactly-once check.
var MetricName = &Analyzer{
	Name:   "metricname",
	Doc:    "every obs.Registry metric (name, labels) is registered exactly once module-wide, with one kind per name",
	Global: true,
	Run:    runMetricName,
}

// metricRegMethods maps each Registry registration method to its metric
// kind and the argument index where the variadic label pairs start.
var metricRegMethods = map[string]struct {
	kind       string
	labelStart int
}{
	"Counter":   {"counter", 2},
	"Gauge":     {"gauge", 2},
	"GaugeFunc": {"gauge", 3},
	"Histogram": {"histogram", 3},
}

func isRegistryMethod(fn *types.Func) bool {
	if fn == nil || fn.Pkg() == nil || !pathSegments(fn.Pkg().Path(), "internal", "obs") {
		return false
	}
	if _, ok := metricRegMethods[fn.Name()]; !ok {
		return false
	}
	sig, ok := fn.Type().(*types.Signature)
	return ok && sig.Recv() != nil && namedRecvType(sig) == "Registry"
}

// namedRecvType returns the bare name of a method's receiver type
// (dereferencing one pointer), or "".
func namedRecvType(sig *types.Signature) string {
	t := sig.Recv().Type()
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	if n, ok := t.(*types.Named); ok {
		return n.Obj().Name()
	}
	return ""
}

// metricSite is one resolved registration call.
type metricSite struct {
	site     CallSite
	kind     string
	labels   string // canonical sorted `k="v",...`; valid only if labelsOK
	labelsOK bool
}

func runMetricName(pass *Pass) {
	sites := pass.Facts.SitesMatching(isRegistryMethod)
	byName := map[string][]metricSite{}
	var names []string
	for _, site := range sites {
		fn := calleeFunc(site.Pkg.Info, site.Call)
		m := metricRegMethods[fn.Name()]
		if len(site.Call.Args) == 0 {
			continue
		}
		name, ok := pass.Facts.StringConst(site.Pkg, site.Call.Args[0])
		if !ok {
			continue // runtime-built name: not statically checkable
		}
		ms := metricSite{site: site, kind: m.kind}
		ms.labels, ms.labelsOK = foldLabels(pass, site, m.labelStart)
		if len(byName[name]) == 0 {
			names = append(names, name)
		}
		byName[name] = append(byName[name], ms)
	}
	sort.Strings(names)
	for _, name := range names {
		group := byName[name]
		first := group[0]
		seen := map[string]metricSite{}
		for i, ms := range group {
			if ms.kind != first.kind {
				pass.Reportf(ms.site.Call.Pos(),
					"metric %q is registered as a %s here but as a %s at %s; a name keeps one kind module-wide (the registry panics at init of whichever package loses)",
					name, ms.kind, first.kind, pass.Position(first.site.Call.Pos()))
				continue
			}
			if !ms.labelsOK {
				continue
			}
			if prev, dup := seen[ms.labels]; dup {
				pass.Reportf(ms.site.Call.Pos(),
					"metric %q%s is already registered at %s; every (name, labels) pair is registered exactly once module-wide — two owners of one series double-count each other",
					name, describeLabels(ms.labels), pass.Position(prev.site.Call.Pos()))
				continue
			}
			seen[ms.labels] = group[i]
		}
	}
}

// foldLabels resolves a registration call's variadic label pairs to the
// canonical sorted `k="v",...` string; ok is false when any label is not a
// compile-time constant (or the pairs come in via `labels...`).
func foldLabels(pass *Pass, site CallSite, start int) (string, bool) {
	call := site.Call
	if call.Ellipsis.IsValid() {
		return "", false
	}
	if len(call.Args) <= start {
		return "", true // no labels
	}
	raw := call.Args[start:]
	if len(raw)%2 != 0 {
		return "", false // odd pair list panics at runtime; not this rule's finding
	}
	type kv struct{ k, v string }
	kvs := make([]kv, 0, len(raw)/2)
	for i := 0; i < len(raw); i += 2 {
		k, ok := pass.Facts.StringConst(site.Pkg, raw[i])
		if !ok {
			return "", false
		}
		v, ok := pass.Facts.StringConst(site.Pkg, raw[i+1])
		if !ok {
			return "", false
		}
		kvs = append(kvs, kv{k, v})
	}
	sort.Slice(kvs, func(i, j int) bool { return kvs[i].k < kvs[j].k })
	var b strings.Builder
	for i, p := range kvs {
		if i > 0 {
			b.WriteByte(',')
		}
		fmt.Fprintf(&b, "%s=%q", p.k, p.v)
	}
	return b.String(), true
}

func describeLabels(labels string) string {
	if labels == "" {
		return ""
	}
	return fmt.Sprintf(" {%s}", labels)
}
