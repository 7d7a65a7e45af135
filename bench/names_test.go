package main

import (
	"encoding/json"
	"os"
	"regexp"
	"testing"
)

// BENCHMARK.json declares what the command prints; the tables in metrics.go
// and workloads.go are what it prints. They must be the same sets, in names,
// units and order, and every name must be printable as a key.
func TestNamesMatchBenchmarkJSON(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	type declared struct {
		Name, Unit, Why string
	}
	var mf struct {
		Paths     []string   `json:"paths"`
		Workloads []declared `json:"workloads"`
		EndToEnd  []declared `json:"end_to_end"`
		PerLayer  []declared `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &mf); err != nil {
		t.Fatal(err)
	}
	name := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unit := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	seen := map[string]bool{}
	checkName := func(n string) {
		if !name.MatchString(n) {
			t.Errorf("name %q is not made of [A-Za-z0-9_.-]", n)
		}
		if seen[n] {
			t.Errorf("name %q is used twice", n)
		}
		seen[n] = true
	}
	if len(mf.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json declares %d workloads, the command runs %d", len(mf.Workloads), len(workloads))
	}
	for i, w := range workloads {
		checkName(w.name)
		if mf.Workloads[i].Name != w.name {
			t.Errorf("workload %d is %q in BENCHMARK.json, %q in the command", i, mf.Workloads[i].Name, w.name)
		}
		if why := mf.Workloads[i].Why; why == "" || len(why) > 200 {
			t.Errorf("workload %q: why must be 1..200 characters, has %d", w.name, len(why))
		}
	}
	for _, c := range []struct {
		what string
		json []declared
		code []metricDef
	}{{"end_to_end", mf.EndToEnd, endToEnd}, {"per_layer", mf.PerLayer, perLayer}} {
		if len(c.json) != len(c.code) {
			t.Fatalf("BENCHMARK.json declares %d %s metrics, the command prints %d", len(c.json), c.what, len(c.code))
		}
		for i, d := range c.code {
			checkName(d.name)
			if !unit.MatchString(d.unit) {
				t.Errorf("%s: unit %q is not a valid unit", d.name, d.unit)
			}
			if c.json[i].Name != d.name || c.json[i].Unit != d.unit {
				t.Errorf("%s metric %d is %s [%s] in BENCHMARK.json, %s [%s] in the command",
					c.what, i, c.json[i].Name, c.json[i].Unit, d.name, d.unit)
			}
		}
	}
	if len(perLayer) > 128 {
		t.Errorf("%d per-layer metrics, at most 128 allowed", len(perLayer))
	}
	for _, d := range endToEnd {
		if _, ok := floors[d.name]; !ok {
			t.Errorf("end-to-end metric %s has no absolute floor for -compare", d.name)
		}
	}
}
