package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"slices"
	"sort"
	"testing"
)

// benchmarkFile is the part of the repository's BENCHMARK.json the
// self-test checks the program against.
type benchmarkFile struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"per_layer"`
}

// tinySizes shrinks every workload so the self-test runs in seconds.
var tinySizes = sizes{
	setupReps:    2,
	minOps:       8,
	fleetMinJobs: 4,
	replayEvery:  2,
	psduBytes:    100,
	fleetAxis:    []float64{10, -15},
	fleetMCS:     []string{"QPSK 1/2"},
	fleetPackets: 1,
	fleetPSDU:    40,
	allocPackets: 2,
}

func readBenchmarkFile(t *testing.T) benchmarkFile {
	t.Helper()
	data, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var bf benchmarkFile
	if err := json.Unmarshal(data, &bf); err != nil {
		t.Fatal(err)
	}
	return bf
}

// TestDeclaredMetricsMatch pins BENCHMARK.json to the metrics and
// workloads the program reports.
func TestDeclaredMetricsMatch(t *testing.T) {
	bf := readBenchmarkFile(t)
	var names []string
	for _, w := range bf.Workloads {
		names = append(names, w.Name)
	}
	var have []string
	for name := range workloads {
		have = append(have, name)
	}
	sort.Strings(names)
	sort.Strings(have)
	if !slices.Equal(names, have) {
		t.Errorf("BENCHMARK.json workloads %v, program has %v", names, have)
	}
	for _, c := range []struct {
		mode     string
		declared []struct {
			Name string `json:"name"`
			Unit string `json:"unit"`
		}
		program []named
	}{{"end_to_end", bf.EndToEnd, endToEnd}, {"per_layer", bf.PerLayer, perLayer}} {
		if len(c.declared) != len(c.program) {
			t.Errorf("%s: BENCHMARK.json declares %d metrics, program reports %d", c.mode, len(c.declared), len(c.program))
			continue
		}
		for i, d := range c.declared {
			if d.Name != c.program[i].name || d.Unit != c.program[i].unit {
				t.Errorf("%s[%d]: BENCHMARK.json %s (%s), program %s (%s)", c.mode, i, d.Name, d.Unit, c.program[i].name, c.program[i].unit)
			}
		}
	}
}

// TestWorkloadsReportEveryMetric runs each workload once untraced and
// once traced at tiny sizes and checks that every declared metric is
// present with its unit and that no operation or check failed.
func TestWorkloadsReportEveryMetric(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every workload")
	}
	for name, wl := range workloads {
		for _, trace := range []bool{false, true} {
			want := endToEnd
			if trace {
				want = perLayer
			}
			o := options{seed: 3, seconds: 0.3, trace: trace, workDir: t.TempDir(), sizes: tinySizes}
			out, err := wl(o)
			if err != nil {
				t.Fatalf("%s trace=%v: %v", name, trace, err)
			}
			if out.failed != 0 || out.attempted == 0 {
				t.Errorf("%s trace=%v: %d of %d failed (error_rate must be 0): %v", name, trace, out.failed, out.attempted, out.notes)
			}
			if len(out.metrics) != len(want) {
				t.Errorf("%s trace=%v: %d metrics, want %d", name, trace, len(out.metrics), len(want))
			}
			for _, m := range want {
				got, ok := out.metrics[m.name]
				if !ok || got.Unit != m.unit {
					t.Errorf("%s trace=%v: metric %s = %+v, want unit %s", name, trace, m.name, got, m.unit)
				}
				if !trace && got.Value <= 0 {
					t.Errorf("%s: end-to-end metric %s = %v, want > 0", name, m.name, got.Value)
				}
			}
		}
	}
}
