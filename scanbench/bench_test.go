package main

import (
	"context"
	"encoding/json"
	"os"
	"testing"
	"time"
)

// benchmarkSpec is the part of the repository's BENCHMARK.json the smoke
// test holds the program to.
type benchmarkSpec struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []specMetric `json:"end_to_end"`
	PerLayer []specMetric `json:"per_layer"`
}

type specMetric struct {
	Name string `json:"name"`
	Unit string `json:"unit"`
}

// TestSmoke runs every workload of BENCHMARK.json briefly, untraced and
// traced, and checks that no op failed and that the result line carries
// exactly the declared metrics with their declared units.
func TestSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every workload")
	}
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec benchmarkSpec
	if err := json.Unmarshal(raw, &spec); err != nil {
		t.Fatal(err)
	}
	for _, w := range spec.Workloads {
		wl, ok := workloads[w.Name]
		if !ok {
			t.Errorf("BENCHMARK.json names workload %q, which the program lacks", w.Name)
			continue
		}
		for _, traced := range []bool{false, true} {
			want := spec.EndToEnd
			if traced {
				want = spec.PerLayer
			}
			res, err := run(context.Background(), config{
				wl: wl, seed: 7, seconds: 1500 * time.Millisecond, trace: traced,
				setups: 1, tmpDir: t.TempDir(), start: time.Now(),
			})
			if err != nil {
				t.Fatalf("%s (traced %v): %v", w.Name, traced, err)
			}
			line, err := report(res, w.Name, 7, t.TempDir())
			if err != nil {
				t.Fatal(err)
			}
			var got result
			if err := json.Unmarshal([]byte(line), &got); err != nil {
				t.Fatalf("%s: result line %q: %v", w.Name, line, err)
			}
			if !got.Correct || got.Failed != 0 || got.Attempted < 1 {
				t.Errorf("%s (traced %v): correct %v, %d of %d ops failed (failed_ratio must be 0)",
					w.Name, traced, got.Correct, got.Failed, got.Attempted)
			}
			if len(got.Metrics) != len(want) {
				t.Errorf("%s (traced %v): %d metrics, BENCHMARK.json declares %d", w.Name, traced, len(got.Metrics), len(want))
			}
			for _, m := range want {
				if g, ok := got.Metrics[m.Name]; !ok || g.Unit != m.Unit {
					t.Errorf("%s (traced %v): metric %s = %+v, want unit %q", w.Name, traced, m.Name, g, m.Unit)
				}
			}
		}
	}
}
