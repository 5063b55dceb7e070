package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"slices"
	"testing"
)

// TestManifestMatchesProgram keeps BENCHMARK.json and the program in step:
// the manifest lists exactly the workloads the program runs and the
// metrics, with units, that it prints.
func TestManifestMatchesProgram(t *testing.T) {
	body, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var m struct {
		Workloads []struct{ Name string }       `json:"workloads"`
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(body, &m); err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, w := range m.Workloads {
		names = append(names, w.Name)
	}
	var want []string
	for n := range workloads {
		want = append(want, n)
	}
	slices.Sort(names)
	slices.Sort(want)
	if !slices.Equal(names, want) {
		t.Errorf("manifest workloads %v, program runs %v", names, want)
	}
	check := func(kind string, got []struct{ Name, Unit string }, want []layerMetric) {
		t.Helper()
		if len(got) != len(want) {
			t.Errorf("%s: manifest lists %d metrics, program prints %d", kind, len(got), len(want))
			return
		}
		for i := range got {
			if got[i].Name != want[i].name || got[i].Unit != want[i].unit {
				t.Errorf("%s[%d]: manifest %s (%s), program %s (%s)", kind, i, got[i].Name, got[i].Unit, want[i].name, want[i].unit)
			}
		}
	}
	check("end_to_end", m.EndToEnd, endToEndMetrics)
	check("per_layer", m.PerLayer, allPerLayerMetrics())
}
