package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"testing"
)

// benchmarkJSON is the part of ../BENCHMARK.json the tests read.
type benchmarkJSON struct {
	Workloads []struct{ Name string } `json:"workloads"`
	EndToEnd  []struct {
		Name, Unit, Better string
		Bound              float64
	} `json:"end_to_end"`
	PerLayer []struct{ Name, Unit string } `json:"per_layer"`
}

func readBenchmarkJSON(t *testing.T) benchmarkJSON {
	t.Helper()
	buf, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var b benchmarkJSON
	if err := json.Unmarshal(buf, &b); err != nil {
		t.Fatal(err)
	}
	return b
}

// BENCHMARK.json and the program name the same workloads and the same
// gated metrics with the same units, directions and bounds.
func TestBenchmarkJSONMatchesTheProgram(t *testing.T) {
	b := readBenchmarkJSON(t)
	if len(b.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json has %d workloads, the program %d", len(b.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if b.Workloads[i].Name != w.Name {
			t.Errorf("workload %d: %q in BENCHMARK.json, %q in the program", i, b.Workloads[i].Name, w.Name)
		}
	}
	if len(b.EndToEnd) != len(gates) {
		t.Fatalf("BENCHMARK.json has %d end-to-end metrics, the program %d", len(b.EndToEnd), len(gates))
	}
	for _, m := range b.EndToEnd {
		g, ok := gateOf(m.Name)
		if !ok || g.Unit != m.Unit || g.Better != m.Better || g.Bound != m.Bound {
			t.Errorf("end-to-end metric %+v in BENCHMARK.json, %+v in the program", m, g)
		}
	}
}

// All four workloads on a 300-node random graph with phases of about a
// second, once untraced and once traced: every run is correct, reports
// every end-to-end metric as a positive number, and the traced run
// reports every per-layer metric BENCHMARK.json lists and nothing else.
func TestSmokeAllWorkloads(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every workload")
	}
	b := readBenchmarkJSON(t)
	tmp := t.TempDir()
	for _, w := range workloads {
		r, err := runTraced(w, runEnv{Seed: 1, Seconds: 2.4, Tiny: true, TmpRoot: tmp}, tmp)
		if err != nil {
			t.Fatalf("%s: %v", w.Name, err)
		}
		if !r.Correct || r.Failed != 0 || r.Named["error_share"].Value != 0 {
			t.Errorf("%s: failed %d of %d: %v", w.Name, r.Failed, r.Attempted, r.Failures)
		}
		for _, g := range gates {
			if m, ok := r.EndToEnd[g.Name]; !ok || !(m.Value > 0) || m.Unit != g.Unit {
				t.Errorf("%s: end-to-end metric %s is %+v", w.Name, g.Name, m)
			}
		}
		for _, p := range r.Phases {
			if p.Loop == "open" && p.AchievedShare < 0.9 {
				t.Errorf("%s: phase %s achieved %.2f of its schedule", w.Name, p.Name, p.AchievedShare)
			}
		}
		listed := make(map[string]bool)
		for _, m := range b.PerLayer {
			listed[m.Name] = true
			if got, ok := r.Layers[m.Name]; !ok || got.Unit != m.Unit {
				t.Errorf("%s: per-layer metric %s (%s) is %+v", w.Name, m.Name, m.Unit, got)
			}
		}
		for name := range r.Layers {
			if !listed[name] {
				t.Errorf("%s: per-layer metric %s is not in BENCHMARK.json", w.Name, name)
			}
		}
		if _, err := os.Stat(filepath.Join(tmp, "trace-"+w.Name+".json")); err != nil {
			t.Errorf("%s: %v", w.Name, err)
		}
	}
	// Set-up leaves nothing behind but the span files.
	left, err := os.ReadDir(tmp)
	if err != nil {
		t.Fatal(err)
	}
	if len(left) != len(workloads) {
		t.Errorf("%d entries left in the temp directory, want the %d span files", len(left), len(workloads))
	}
}
