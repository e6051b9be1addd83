package main

import (
	"encoding/json"
	"os"
	"sort"
	"testing"
)

// TestManifestMatchesProgram checks that BENCHMARK.json at the repository
// root declares exactly the workloads and metrics this program reports.
func TestManifestMatchesProgram(t *testing.T) {
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	type metric struct{ Name, Unit string }
	var m struct {
		Workloads []struct{ Name string }
		EndToEnd  []metric `json:"end_to_end"`
		PerLayer  []metric `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &m); err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, w := range m.Workloads {
		names = append(names, w.Name)
	}
	sort.Strings(names)
	if got, want := names, workloadNames(); !equal(got, want) {
		t.Errorf("BENCHMARK.json workloads %v, program runs %v", got, want)
	}
	for _, c := range []struct {
		list  []metric
		defs  []metricDef
		label string
	}{{m.EndToEnd, endToEnd, "end_to_end"}, {m.PerLayer, perLayer, "per_layer"}} {
		if len(c.list) != len(c.defs) {
			t.Errorf("%s lists %d metrics, program reports %d", c.label, len(c.list), len(c.defs))
			continue
		}
		for i, d := range c.defs {
			if c.list[i].Name != d.name || c.list[i].Unit != d.unit {
				t.Errorf("%s[%d] is %s (%s), program reports %s (%s)", c.label, i, c.list[i].Name, c.list[i].Unit, d.name, d.unit)
			}
		}
	}
}

func equal(a, b []string) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}
