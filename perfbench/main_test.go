package main

import (
	"bytes"
	"encoding/json"
	"os"
	"strings"
	"testing"
)

// benchmarkFile is the registry at the repository root.
type benchmarkFile struct {
	Workloads []struct{ Name string } `json:"workloads"`
	EndToEnd  []struct {
		Name, Unit string
	} `json:"end_to_end"`
	PerLayer []struct {
		Name, Unit string
	} `json:"per_layer"`
}

// TestEveryMetricEmitted runs every registered workload briefly, untraced
// and traced, and checks that the last output line carries exactly the
// metrics BENCHMARK.json registers, with their units, and that the
// run's output checks held.
func TestEveryMetricEmitted(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var bf benchmarkFile
	if err := json.Unmarshal(raw, &bf); err != nil {
		t.Fatal(err)
	}
	tables := map[string][]spec{"0": endToEnd, "1": perLayer}
	for trace, registered := range map[string][]struct{ Name, Unit string }{"0": bf.EndToEnd, "1": bf.PerLayer} {
		if len(registered) != len(tables[trace]) {
			t.Fatalf("trace %s: BENCHMARK.json registers %d metrics, the benchmark reports %d", trace, len(registered), len(tables[trace]))
		}
		for i, m := range registered {
			if s := tables[trace][i]; s.name != m.Name || s.unit != m.Unit {
				t.Errorf("trace %s metric %d: BENCHMARK.json has %s [%s], the benchmark %s [%s]", trace, i, m.Name, m.Unit, s.name, s.unit)
			}
		}
	}
	dir := t.TempDir()
	for _, wl := range bf.Workloads {
		for _, trace := range []string{"0", "1"} {
			t.Run(wl.Name+"/trace"+trace, func(t *testing.T) {
				var out bytes.Buffer
				args := []string{"--workload", wl.Name, "--seed", "7", "--seconds", "2", "--trace", trace, "--trace-dir", dir}
				if err := run(args, &out); err != nil {
					t.Fatal(err)
				}
				lines := strings.Split(strings.TrimSpace(out.String()), "\n")
				var res resultOut
				if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
					t.Fatalf("last line is not the result: %v", err)
				}
				if !res.Correct || res.Failed != 0 || res.Attempted == 0 {
					t.Errorf("correct=%v attempted=%d failed=%d\n%s", res.Correct, res.Attempted, res.Failed, out.String())
				}
				want := tables[trace]
				if len(res.Metrics) != len(want) {
					t.Errorf("%d metrics, want %d", len(res.Metrics), len(want))
				}
				for _, s := range want {
					m, ok := res.Metrics[s.name]
					if !ok || m.Unit != s.unit {
						t.Errorf("metric %s missing or unit %q != %q", s.name, m.Unit, s.unit)
					}
					if trace == "0" && m.Value <= 0 {
						t.Errorf("end-to-end metric %s = %v, want > 0", s.name, m.Value)
					}
				}
			})
		}
	}
}

func TestRejectsBadFlags(t *testing.T) {
	for _, args := range [][]string{
		{"--workload", "nope"},
		{"--workload", "read_hot", "--trace", "2"},
		{"--workload", "read_hot", "--seconds", "0"},
		{"--workload", "read_hot", "extra"},
	} {
		if err := run(args, &bytes.Buffer{}); err == nil {
			t.Errorf("run(%q) succeeded, want an error", args)
		}
	}
}
