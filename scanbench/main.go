// Command scanbench is SCAN's layered benchmark. It hosts a SCAN daemon in
// its own process (core.OpenPlatform behind rpc.NewServerOptions on a
// loopback listener), drives it through rpc.Client exactly as
// `scanctl submit -wait` does — each op submits a job and follows its event
// stream to the terminal state — from a closed loop of two clients, checks
// every job's output against the generator's planted truth, and prints its
// metrics.
//
// Usage (from the repository root, through the wrapper that builds it):
//
//	bash scanbench/run.sh --workload warm-mixed --seed 1 --seconds 20 --trace 0
//
// Workloads: warm-mixed (a long-lived daemon whose knowledge base holds 20k
// run logs; small jobs of all four families), cold-heavy (a fresh daemon;
// large jobs whose kernels dominate) and durable-fleet (a data directory,
// two fleet workers, and a fresh dataset uploaded, run and deleted per op).
// See README.md for the metrics and what each should move.
//
// With --trace 0 the last stdout line reports the end-to-end metrics; with
// --trace 1 it reports the per-layer metrics, and the run also writes its
// spans and /metrics deltas under -trace-dir.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"sort"
	"time"
)

func main() {
	start := time.Now()
	var (
		name     = flag.String("workload", "", "warm-mixed, cold-heavy or durable-fleet")
		seed     = flag.Int64("seed", 1, "seed of every generated input")
		seconds  = flag.Float64("seconds", 30, "length of the measured closed loop")
		trace    = flag.Int("trace", 0, "1 reports per-layer metrics from a traced run")
		traceDir = flag.String("trace-dir", ".bench_build/traces", "where traced runs write their spans")
		tmpDir   = flag.String("tmp-dir", "", "parent of the daemon's data and spool directories (default: the system temp dir)")
	)
	flag.Parse()
	wl, ok := workloads[*name]
	if !ok || *seconds <= 0 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(os.Stderr, "scanbench: need --workload (warm-mixed, cold-heavy or durable-fleet), --seconds > 0, --trace 0|1\n")
		os.Exit(2)
	}
	ctx := context.Background()
	res, err := run(ctx, config{
		wl: wl, seed: *seed, seconds: time.Duration(*seconds * float64(time.Second)),
		trace: *trace == 1, setups: minSetups, setupBudget: 2 * time.Second, tmpDir: *tmpDir, start: start,
	})
	if err != nil {
		fmt.Fprintf(os.Stderr, "scanbench: %s: %v\n", wl.name, err)
		os.Exit(1)
	}
	out, err := report(res, wl.name, *seed, *traceDir)
	if err != nil {
		fmt.Fprintf(os.Stderr, "scanbench: %s: %v\n", wl.name, err)
		os.Exit(1)
	}
	fmt.Println(out)
}

// result is the last line of standard output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// report prints a readable summary to stderr, writes the trace file of a
// traced run, and returns the result line.
func report(res *runResult, workload string, seed int64, traceDir string) (string, error) {
	done := len(completed(res.samples))
	failed := len(res.samples) - done
	r := result{Correct: failed == 0 && done > 0, Attempted: len(res.samples), Failed: failed}
	failedRatio := 0.0
	if len(res.samples) > 0 {
		failedRatio = float64(failed) / float64(len(res.samples))
	}
	fmt.Fprintf(os.Stderr, "scanbench: %s seed %d: %d ops over %.1fs by %d closed-loop clients, %d done and correct, failed_ratio %.4f\n",
		workload, seed, len(res.samples), res.loopWall.Seconds(), clients, done, failedRatio)
	if failed > 0 {
		fmt.Fprintf(os.Stderr, "scanbench: failed ops:\n%s", failures(res.samples))
	}
	if res.layers == nil {
		r.Metrics = endToEnd(res)
		fmt.Fprintf(os.Stderr, "scanbench: latency percentiles over %d jobs; jobs/s by window %.2f; %d set-ups, median %.4f s\n",
			done, windowRates(completed(res.samples), res.loopStart, res.loopWall), len(res.setups), percentile(res.setups, 0.5))
	} else {
		var families map[string]map[string]float64
		r.Metrics, families = perLayer(res)
		path, err := res.layers.write(traceDir, workload, seed, families, r.Metrics)
		if err != nil {
			return "", fmt.Errorf("writing the trace: %w", err)
		}
		fmt.Fprintf(os.Stderr, "scanbench: %d spans written to %s\n", len(res.layers.spans), path)
		for _, fam := range sortedKeys(families) {
			f := families[fam]
			fmt.Fprintf(os.Stderr, "  %-12s jobs %4.0f  run %8.2f ms  stage %8.2f ms  overhead %8.2f ms  chain_costs %8.2f ms (%0.f probes)\n",
				fam, f["jobs"], f["run_ms"], f["stage_ms"], f["overhead_ms"], f["chain_costs_ms"], f["chain_cost_probes"])
		}
	}
	for _, k := range sortedKeys(r.Metrics) {
		fmt.Fprintf(os.Stderr, "  %-28s %14.4f %s\n", k, r.Metrics[k].Value, r.Metrics[k].Unit)
	}
	raw, err := json.Marshal(r)
	return string(raw), err
}

func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
