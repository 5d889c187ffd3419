package main

import (
	"bytes"
	"encoding/json"
	"os"
	"slices"
	"strings"
	"testing"
)

// benchmarkSpec is the part of BENCHMARK.json the output must match.
type benchmarkSpec struct {
	Workloads []struct{ Name string }
	EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
	PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
}

// TestOutputMatchesBenchmarkSpec runs the shortest workload both ways
// and checks the result line against BENCHMARK.json: every declared
// metric, with its unit, and nothing else. The traced half also proves
// the traced loop reproduces the core entry point on that workload.
func TestOutputMatchesBenchmarkSpec(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec benchmarkSpec
	if err := json.Unmarshal(raw, &spec); err != nil {
		t.Fatal(err)
	}
	for _, w := range spec.Workloads {
		if lookup(w.Name) == nil {
			t.Errorf("BENCHMARK.json names workload %q, which the benchmark lacks", w.Name)
		}
	}
	for trace, want := range [][]struct{ Name, Unit string }{spec.EndToEnd, spec.PerLayer} {
		var out bytes.Buffer
		args := []string{"--workload", "s2-recv", "--seconds", "0.01", "--trace", []string{"0", "1"}[trace]}
		if code, err := run(args, &out); code != 0 || err != nil {
			t.Fatalf("trace %d: exit %d: %v", trace, code, err)
		}
		lines := strings.Split(strings.TrimSpace(out.String()), "\n")
		var res struct {
			Correct           bool
			Attempted, Failed int
			Metrics           map[string]struct{ Unit string }
		}
		if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
			t.Fatalf("trace %d: last line is not the result: %v\n%s", trace, err, out.String())
		}
		if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
			t.Errorf("trace %d: correct=%v attempted=%d failed=%d\n%s", trace, res.Correct, res.Attempted, res.Failed, out.String())
		}
		var names []string
		for _, m := range want {
			names = append(names, m.Name)
			got, ok := res.Metrics[m.Name]
			if !ok {
				t.Errorf("trace %d: metric %s missing", trace, m.Name)
			} else if got.Unit != m.Unit {
				t.Errorf("trace %d: metric %s in %s, BENCHMARK.json says %s", trace, m.Name, got.Unit, m.Unit)
			}
		}
		for name := range res.Metrics {
			if !slices.Contains(names, name) {
				t.Errorf("trace %d: metric %s is not in BENCHMARK.json", trace, name)
			}
		}
	}
}
