package main

import (
	"time"

	"scan/internal/rpc"
)

// metric is one reported figure.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// toolLayer maps a catalogue tool to the kernel package that executes it.
var toolLayer = map[string]string{
	"BWA":          "align",
	"GATK":         "variant",
	"MuTect":       "variant",
	"MaxQuant":     "proteome",
	"GPM":          "proteome",
	"CellProfiler": "imaging",
	"Cytoscape":    "network",
}

// kernelLayers are the family kernels in report order.
var kernelLayers = []string{"align", "variant", "proteome", "imaging", "network"}

// completed returns the ops whose job finished done with correct output.
func completed(samples []*sample) []*sample {
	var ok []*sample
	for _, s := range samples {
		if s.err == nil {
			ok = append(ok, s)
		}
	}
	return ok
}

// endToEnd computes the user-visible metrics of an untraced run.
func endToEnd(res *runResult) map[string]metric {
	done := completed(res.samples)
	lat := make([]float64, len(done))
	for i, s := range done {
		lat[i] = ms(s.latency())
	}
	perJob := 0.0
	if len(done) > 0 {
		perJob = ms(res.cpu) / float64(len(done))
	}
	return map[string]metric{
		"setup_s":        {percentile(res.setups, 0.5), "s"},
		"jobs_per_s":     {windowedRate(done, res.loopStart, res.loopWall), "1/s"},
		"job_p50_ms":     {percentile(lat, 0.50), "ms"},
		"job_p95_ms":     {percentile(lat, 0.95), "ms"},
		"cpu_ms_per_job": {perJob, "ms"},
		"heap_mb":        {res.heapMB, "MB"},
	}
}

// rateWindows is the number of equal windows the measured loop is cut into
// for jobs_per_s.
const rateWindows = 5

// windowedRate is the median over rateWindows equal windows of the loop of
// the jobs that reached their terminal event in the window, per second. A
// burst of outside load then moves one window, not the figure.
func windowedRate(done []*sample, start time.Time, wall time.Duration) float64 {
	return percentile(windowRates(done, start, wall), 0.5)
}

// windowRates is each window's completed jobs per second.
func windowRates(done []*sample, start time.Time, wall time.Duration) []float64 {
	width := wall / rateWindows
	rates := make([]float64, rateWindows)
	for _, s := range done {
		w := int(s.terminal.Sub(start) / width)
		rates[min(max(w, 0), rateWindows-1)]++
	}
	for i := range rates {
		rates[i] /= width.Seconds()
	}
	return rates
}

// jobTimes splits one done job's daemon-side run time into stage execution
// and everything around it. Consecutive streamed stages ran as one
// pipelined segment, so their spans overlap: a segment counts once, from
// its first shard start to its last shard end. Barrier stages add their
// elapsed time.
func jobTimes(j rpc.Job) (runMS, stageMS float64) {
	if j.Started == nil || j.Finished == nil || j.Result == nil {
		return 0, 0
	}
	runMS = ms(j.Finished.Sub(*j.Started))
	segLo, segHi, inSeg := 0.0, 0.0, false
	closeSeg := func() {
		if inSeg {
			stageMS += (segHi - segLo) * 1000
		}
		inSeg = false
	}
	for _, st := range j.Result.Stages {
		if !st.Streamed {
			closeSeg()
			stageMS += st.ElapsedSec * 1000
			continue
		}
		if st.ElapsedSec == 0 {
			continue // a pass-through rider: no shards, no span
		}
		lo, hi := st.FirstShardStartSec, st.FirstShardStartSec+st.ElapsedSec
		if !inSeg {
			segLo, segHi, inSeg = lo, hi, true
			continue
		}
		segLo, segHi = min(segLo, lo), max(segHi, hi)
	}
	closeSeg()
	return runMS, stageMS
}

// perLayer computes the per-layer metrics of a traced run, plus the
// per-family breakdown written to the trace file.
func perLayer(res *runResult) (map[string]metric, map[string]map[string]float64) {
	lp := res.layers
	done := completed(res.samples)
	var admit, queue, lag, runs, stages, overheads, shards, overlaps []float64
	rejected, totalShards := 0, 0
	busy := map[string]float64{}    // layer -> Σ stage seconds
	records := map[string]float64{} // layer -> Σ stage records
	type famAcc struct{ run, stage, over, lat []float64 }
	fams := map[string]*famAcc{}
	for _, s := range res.samples {
		rejected += s.rejected
	}
	for _, s := range done {
		j := s.job
		admit = append(admit, ms(s.admitted.Sub(s.submit)))
		queue = append(queue, ms(j.Started.Sub(j.Submitted)))
		lag = append(lag, ms(s.terminal.Sub(*j.Finished)))
		run, stage := jobTimes(j)
		runs, stages, overheads = append(runs, run), append(stages, stage), append(overheads, run-stage)
		shards = append(shards, float64(j.Result.Shards))
		for i, st := range j.Result.Stages {
			totalShards += st.Shards
			if layer, ok := toolLayer[st.Tool]; ok {
				busy[layer] += st.ElapsedSec
				records[layer] += float64(st.Records)
			}
			if st.Streamed && st.ElapsedSec > 0 && i > 0 && j.Result.Stages[i-1].Streamed {
				overlaps = append(overlaps, st.Overlap)
			}
		}
		f := fams[s.family]
		if f == nil {
			f = &famAcc{}
			fams[s.family] = f
		}
		f.run, f.stage, f.over = append(f.run, run), append(f.stage, stage), append(f.over, run-stage)
		f.lat = append(f.lat, ms(s.latency()))
	}

	var chainAll []float64
	families := map[string]map[string]float64{}
	for name, f := range fams {
		chain := lp.chainCosts[name]
		chainAll = append(chainAll, chain...)
		families[name] = map[string]float64{
			"jobs": float64(len(f.run)), "job_p50_ms": percentile(f.lat, 0.5),
			"run_ms": mean(f.run), "stage_ms": mean(f.stage), "overhead_ms": mean(f.over),
			"chain_costs_ms": mean(chain), "chain_cost_probes": float64(len(chain)),
		}
	}

	remoteRatio := 0.0
	if totalShards > 0 {
		remoteRatio = float64(lp.remoteShards) / float64(totalShards)
	}
	accepted := lp.metricDelta(`scan_fleet_events_total{event="completed"}`)
	dispatched := lp.metricDelta(`scan_fleet_events_total{event="dispatched"}`)
	dupRatio := 0.0
	if accepted > 0 {
		dupRatio = (dispatched - accepted) / accepted
	}
	mbPerS := 0.0
	if lp.uploadTime > 0 {
		mbPerS = float64(lp.uploadBytes) / (1 << 20) / lp.uploadTime.Seconds()
	}
	gcFrac := 0.0
	if cpu := lp.rt1.totalCPU - lp.rt0.totalCPU; cpu > 0 {
		gcFrac = (lp.rt1.gcCPU - lp.rt0.gcCPU) / cpu
	}
	jobs := float64(max(len(done), 1))

	m := map[string]metric{
		"rpc.admit_ms":               {percentile(admit, 0.5), "ms"},
		"rpc.queue_wait_p50_ms":      {percentile(queue, 0.5), "ms"},
		"rpc.queue_wait_p95_ms":      {percentile(queue, 0.95), "ms"},
		"rpc.sse_lag_ms":             {percentile(lag, 0.5), "ms"},
		"tenant.rejected":            {float64(rejected), "count"},
		"workflow.run_ms":            {mean(runs), "ms"},
		"workflow.stage_ms":          {mean(stages), "ms"},
		"workflow.overhead_ms":       {mean(overheads), "ms"},
		"workflow.shards":            {mean(shards), "count"},
		"workflow.overlap":           {mean(overlaps), "ratio"},
		"knowledge.chain_costs_ms":   {mean(chainAll), "ms"},
		"knowledge.flush_ms":         {mean(lp.flushes), "ms"},
		"knowledge.run_logs":         {float64(lp.runLogs), "count"},
		"knowledge.triples":          {float64(lp.triples), "count"},
		"knowledge.advice_hit_ratio": {lp.adviceHitRatio, "ratio"},
		"knowledge.wal_bytes":        {float64(lp.walBytes), "bytes"},
		"knowledge.snapshots":        {float64(lp.snapshots), "count"},
		"registry.upload_ms":         {mean(lp.uploadMS), "ms"},
		"registry.upload_mb_per_s":   {mbPerS, "MB/s"},
		"registry.delete_ms":         {mean(lp.deleteMS), "ms"},
		"registry.resident_bytes":    {float64(lp.registryBytes), "bytes"},
		"blobstore.disk_bytes":       {float64(lp.blobBytes), "bytes"},
		"blobstore.files":            {float64(lp.blobFiles), "count"},
		"fleet.remote_shards":        {float64(lp.remoteShards), "count"},
		"fleet.remote_ratio":         {remoteRatio, "ratio"},
		"fleet.duplicate_ratio":      {dupRatio, "ratio"},
		"fleet.retries":              {lp.metricDelta(`scan_fleet_events_total{event="redispatched"}`), "count"},
		"runtime.gc_cpu_fraction":    {gcFrac, "ratio"},
		"runtime.heap_live_mb":       {float64(lp.rt1.heapLive) / (1 << 20), "MB"},
		"runtime.goroutines":         {float64(lp.rt1.goroutines), "count"},
		"bench.traced_jobs_per_s":    {float64(len(done)) / res.loopWall.Seconds(), "1/s"},
	}
	for _, layer := range kernelLayers {
		perS := 0.0
		if busy[layer] > 0 {
			perS = records[layer] / busy[layer]
		}
		m[layer+".busy_ms"] = metric{busy[layer] * 1000 / jobs, "ms"}
		m[layer+".records_per_s"] = metric{perS, "1/s"}
	}
	return m, families
}
