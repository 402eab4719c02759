package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
)

var update = flag.Bool("update", false, "rewrite ../BENCHMARK.json from the metric declarations")

// benchmarkFile is the layout of BENCHMARK.json.
type benchmarkFile struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	} `json:"per_layer"`
}

// declared builds BENCHMARK.json from the declarations in metrics.go.
func declared() benchmarkFile {
	f := benchmarkFile{
		Command:    []string{"bash", "benchmark/run.sh"},
		Paths:      []string{"benchmark"},
		RunSeconds: runSeconds,
	}
	for _, w := range workloads {
		f.Workloads = append(f.Workloads, struct {
			Name string `json:"name"`
			Why  string `json:"why"`
		}{w.Name, w.Why})
	}
	for _, m := range endToEnd {
		f.EndToEnd = append(f.EndToEnd, struct {
			Name   string  `json:"name"`
			Unit   string  `json:"unit"`
			Better string  `json:"better"`
			Bound  float64 `json:"bound"`
		}{m.Name, m.Unit, m.Better, m.Bound})
	}
	for _, m := range perLayer() {
		f.PerLayer = append(f.PerLayer, struct {
			Name   string `json:"name"`
			Unit   string `json:"unit"`
			Better string `json:"better"`
		}{m.Name, m.Unit, m.Better})
	}
	return f
}

func TestBenchmarkJSONMatchesDeclarations(t *testing.T) {
	path := filepath.Join("..", "BENCHMARK.json")
	want := declared()
	if *update {
		b, err := json.MarshalIndent(want, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, append(b, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var got benchmarkFile
	if err := json.Unmarshal(b, &got); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("BENCHMARK.json is out of date with metrics.go; rerun with -update")
	}
}

// runShort runs one workload at a tiny scale and decodes its result.
func runShort(t *testing.T, workload string, traced, corrupt bool) Result {
	t.Helper()
	o := options{workload: workload, seed: 7, dataSeed: 1, sf: 0.002, seconds: 1,
		traced: traced, setupReps: 1, workDir: t.TempDir(), corruptReference: corrupt}
	var out bytes.Buffer
	res, err := runWorkload(o, &out)
	if err != nil {
		t.Fatalf("%s: %v\n%s", workload, err, out.String())
	}
	if testing.Verbose() {
		t.Log(strings.TrimSpace(out.String()))
	}
	return res
}

// TestShort runs every workload untraced and traced at a tiny scale:
// every declared metric is printed with its unit and no operation
// fails.
func TestShort(t *testing.T) {
	for _, w := range workloads {
		for _, traced := range []bool{false, true} {
			res := runShort(t, w.Name, traced, false)
			defs := endToEnd
			if traced {
				defs = perLayer()
			}
			if len(res.Metrics) != len(defs) {
				t.Errorf("%s traced=%t: %d metrics, want %d", w.Name, traced, len(res.Metrics), len(defs))
			}
			for _, m := range defs {
				v, ok := res.Metrics[m.Name]
				if !ok || v.Unit != m.Unit {
					t.Errorf("%s traced=%t: metric %s = %+v, want unit %q", w.Name, traced, m.Name, v, m.Unit)
				}
			}
			if res.Attempted == 0 || res.Failed != 0 || !res.Correct {
				t.Errorf("%s traced=%t: attempted %d, failed %d, correct %t", w.Name, traced,
					res.Attempted, res.Failed, res.Correct)
			}
		}
	}
}

// TestCorruptedReferenceIsCaught proves the oracle is live: with one
// reference answer perturbed, every workload reports failures.
func TestCorruptedReferenceIsCaught(t *testing.T) {
	for _, w := range workloads {
		res := runShort(t, w.Name, false, true)
		if res.Failed == 0 || res.Correct {
			t.Errorf("%s: corrupted reference not caught (failed %d, correct %t)", w.Name, res.Failed, res.Correct)
		}
	}
}

// TestCompare checks the compare mode on saved output: medians per
// side, the change, and the flag when the change exceeds both spreads.
func TestCompare(t *testing.T) {
	dir := t.TempDir()
	write := func(name string, values ...float64) string {
		var b strings.Builder
		for _, v := range values {
			b.WriteString("workload=tpch_cold seed=1\nproblem: ignored\n")
			r := Result{Correct: true, Attempted: 1, Metrics: map[string]MetricValue{
				"opt.optimize_ms": {Value: v, Unit: "ms"}, "exec.run_ms": {Value: 100, Unit: "ms"}}}
			line, err := json.Marshal(r)
			if err != nil {
				t.Fatal(err)
			}
			b.Write(append(line, '\n'))
		}
		path := filepath.Join(dir, name)
		if err := os.WriteFile(path, []byte(b.String()), 0o644); err != nil {
			t.Fatal(err)
		}
		return path
	}
	oldPath := write("old", 1000, 1010, 990, 1005)
	newPath := write("new", 500, 505, 495, 502)
	var out bytes.Buffer
	if err := compareFiles(&out, oldPath, newPath); err != nil {
		t.Fatal(err)
	}
	lines := map[string]string{}
	for _, l := range strings.Split(out.String(), "\n") {
		if f := strings.Fields(l); len(f) > 0 {
			lines[f[0]] = l
		}
	}
	if l := lines["opt.optimize_ms"]; !strings.Contains(l, "-50.0%") || !strings.Contains(l, "*") {
		t.Errorf("optimize line = %q, want a flagged -50%% change", l)
	}
	if l := lines["exec.run_ms"]; !strings.Contains(l, "+0.0%") || strings.Contains(l, "*") {
		t.Errorf("exec line = %q, want an unflagged zero change", l)
	}
}
