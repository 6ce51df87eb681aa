package main

import (
	"bufio"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"os"
	"path/filepath"
	"runtime/metrics"
	"strconv"
	"strings"
	"sync"
	"time"

	"scan/internal/knowledge"
	"scan/internal/rpc"
)

// probeEvery samples the knowledge-base probes on every probeEvery-th op.
// It is coprime with every family rotation (4 and 8 ops), so every family
// is probed.
const probeEvery = 7

// span is one traced interval. Spans of one op share its op id. Times are
// milliseconds from the start of the traced loop.
type span struct {
	Name   string  `json:"name"`
	Op     int     `json:"op"`
	Parent string  `json:"parent,omitempty"`
	Start  float64 `json:"start_ms"`
	End    float64 `json:"end_ms"`
}

// layerProbe is the traced run's instrumentation. Everything it measures is
// timed from outside the program, around calls into each layer's public
// API; spans stay in memory until the run ends.
type layerProbe struct {
	t0 time.Time

	mu          sync.Mutex
	spans       []span
	chainCosts  map[string][]float64 // family -> sampled ChainCosts ms
	flushes     []float64            // sampled Flush ms
	uploadMS    []float64
	deleteMS    []float64
	uploadBytes int64
	uploadTime  time.Duration

	metrics0, metrics1 map[string]float64 // /metrics scrapes
	shardsDone0        int                // roster ShardsDone sum
	remoteShards       int
	hits0, misses0     uint64
	adviceHitRatio     float64
	runLogs, triples   int
	rt0, rt1           runtimeSnap

	remote bool // jobs run on fleet workers

	// The KB directory sampler (durable daemons only).
	dataDir     string
	stopSampler chan struct{}
	samplerDone chan struct{}
	walBytes    int64
	snapshots   int

	registryBytes int64
	blobBytes     int64
	blobFiles     int
}

// newLayerProbe takes the run-start readings.
func newLayerProbe(ctx context.Context, d *daemon) *layerProbe {
	lp := &layerProbe{t0: time.Now(), chainCosts: map[string][]float64{}, dataDir: d.dataDir, remote: d.stopWorkers != nil}
	lp.metrics0 = scrapeMetrics(ctx, d.base)
	lp.shardsDone0 = shardsDone(ctx, d.client)
	lp.hits0, lp.misses0 = d.platform.KB().CacheStats()
	lp.rt0 = readRuntime()
	if lp.dataDir != "" {
		lp.stopSampler = make(chan struct{})
		lp.samplerDone = make(chan struct{})
		go lp.sampleKBDir()
	}
	return lp
}

// sampleKBDir polls the KB directory: WAL growth between polls adds to
// walBytes (a shrink means a snapshot truncated it), and every new
// snapshot modification time counts one snapshot.
func (lp *layerProbe) sampleKBDir() {
	defer close(lp.samplerDone)
	lastWAL, lastSnap := kbFiles(lp.dataDir)
	tick := time.NewTicker(5 * time.Millisecond)
	defer tick.Stop()
	for {
		select {
		case <-lp.stopSampler:
			return
		case <-tick.C:
		}
		wal, snap := kbFiles(lp.dataDir)
		lp.mu.Lock()
		if wal >= lastWAL {
			lp.walBytes += wal - lastWAL
		} else {
			lp.walBytes += wal
		}
		if !snap.Equal(lastSnap) {
			lp.snapshots++
		}
		lp.mu.Unlock()
		lastWAL, lastSnap = wal, snap
	}
}

// at converts a wall time to the trace's clock.
func (lp *layerProbe) at(t time.Time) float64 { return ms(t.Sub(lp.t0)) }

// afterOp records the op's spans and, on sampled ops, times the knowledge
// base's planning query and write barrier as the next job would meet them:
// the job's telemetry has just been buffered, so ChainCosts folds it and
// refits, exactly as the next job's planner does.
func (lp *layerProbe) afterOp(d *daemon, s *sample) {
	var spans []span
	add := func(name, parent string, a, b time.Time) {
		if !a.IsZero() && !b.IsZero() {
			spans = append(spans, span{Name: name, Op: s.op, Parent: parent, Start: lp.at(a), End: lp.at(b)})
		}
	}
	end := s.terminal
	if !s.deleted.IsZero() {
		end = s.deleted
	}
	add("op", "", s.start, end)
	add("registry.upload", "op", s.start, s.uploaded)
	add("rpc.admit", "op", s.submit, s.admitted)
	j := s.job
	if j.Started != nil && j.Finished != nil {
		add("rpc.queue_wait", "op", j.Submitted, *j.Started)
		add("workflow.run", "op", *j.Started, *j.Finished)
		add("rpc.sse_lag", "op", *j.Finished, s.terminal)
	}
	if !s.deleted.IsZero() {
		add("registry.delete", "op", s.terminal, s.deleted)
	}

	lp.mu.Lock()
	if s.uploadBytes > 0 {
		lp.uploadMS = append(lp.uploadMS, ms(s.uploaded.Sub(s.start)))
		lp.uploadBytes += s.uploadBytes
		lp.uploadTime += s.uploaded.Sub(s.start)
		if !s.deleted.IsZero() {
			lp.deleteMS = append(lp.deleteMS, ms(s.deleted.Sub(s.terminal)))
		}
	}
	lp.spans = append(lp.spans, spans...)
	lp.mu.Unlock()
	if s.op%probeEvery != 0 || s.err != nil || s.job.Result == nil {
		return
	}

	kb := d.platform.KB()
	r := s.job.Result
	perShard := r.TotalRecords
	if r.Shards > 0 {
		perShard /= r.Shards
	}
	chain := costedChain(r.Stages, lp.remote)
	t0 := time.Now()
	kb.ChainCosts(chain, float64(perShard)/1000)
	t1 := time.Now()
	kb.Flush()
	t2 := time.Now()
	lp.mu.Lock()
	lp.chainCosts[s.family] = append(lp.chainCosts[s.family], ms(t1.Sub(t0)))
	lp.flushes = append(lp.flushes, ms(t2.Sub(t1)))
	lp.spans = append(lp.spans,
		span{Name: "knowledge.chain_costs", Op: s.op, Start: lp.at(t0), End: lp.at(t1)},
		span{Name: "knowledge.flush", Op: s.op, Start: lp.at(t1), End: lp.at(t2)})
	lp.mu.Unlock()
}

// costedChain is the chain of stages whose costs the daemon asked the
// knowledge base for while running a job. Locally, the pipelined planner
// costs the streamed stages that ran shards (one ChainCosts call); on the
// fleet, the coordinator estimates every remote stage's shard cost for
// straggler detection (one EstimateStageCost each, the same fit).
func costedChain(stages []rpc.StageBreakdown, remote bool) []knowledge.StageRef {
	var chain []knowledge.StageRef
	for i, st := range stages {
		if st.Shards > 0 && (remote || st.Streamed) {
			chain = append(chain, knowledge.StageRef{App: st.Tool, Stage: i})
		}
	}
	return chain
}

// finish takes the run-end readings.
func (lp *layerProbe) finish(ctx context.Context, d *daemon) {
	if lp.stopSampler != nil {
		close(lp.stopSampler)
		<-lp.samplerDone
	}
	lp.rt1 = readRuntime()
	lp.metrics1 = scrapeMetrics(ctx, d.base)
	lp.remoteShards = shardsDone(ctx, d.client) - lp.shardsDone0
	kb := d.platform.KB()
	hits, misses := kb.CacheStats()
	if n := (hits - lp.hits0) + (misses - lp.misses0); n > 0 {
		lp.adviceHitRatio = float64(hits-lp.hits0) / float64(n)
	}
	lp.runLogs, lp.triples = kb.RunCount(), kb.Len()
	_, lp.registryBytes, _ = d.platform.Datasets().Stats()
	if lp.dataDir != "" {
		lp.blobBytes, lp.blobFiles = dirUsage(filepath.Join(lp.dataDir, "blobs"))
	}
}

// metricDelta is a /metrics counter's change over the run.
func (lp *layerProbe) metricDelta(key string) float64 {
	return lp.metrics1[key] - lp.metrics0[key]
}

// shardsDone sums the roster's accepted shard results.
func shardsDone(ctx context.Context, c *rpc.Client) int {
	roster, err := c.Workers(ctx)
	if err != nil {
		return 0
	}
	n := 0
	for _, w := range roster.Workers {
		n += w.ShardsDone
	}
	return n
}

// scrapeMetrics reads the daemon's Prometheus text exposition into a map
// keyed by `name{labels}`.
func scrapeMetrics(ctx context.Context, base string) map[string]float64 {
	out := map[string]float64{}
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, base+"/metrics", nil)
	if err != nil {
		return out
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		fmt.Fprintf(os.Stderr, "scanbench: scraping /metrics: %v\n", err)
		return out
	}
	defer resp.Body.Close()
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		line := sc.Text()
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		i := strings.LastIndexByte(line, ' ')
		if i < 0 {
			continue
		}
		if v, err := strconv.ParseFloat(line[i+1:], 64); err == nil {
			out[line[:i]] = v
		}
	}
	return out
}

// runtimeSnap is a runtime/metrics reading.
type runtimeSnap struct {
	gcCPU, totalCPU float64 // cpu-seconds
	heapLive        uint64
	goroutines      uint64
}

func readRuntime() runtimeSnap {
	s := []metrics.Sample{
		{Name: "/cpu/classes/gc/total:cpu-seconds"},
		{Name: "/cpu/classes/total:cpu-seconds"},
		{Name: "/gc/heap/live:bytes"},
		{Name: "/sched/goroutines:goroutines"},
	}
	metrics.Read(s)
	val := func(i int) float64 {
		if s[i].Value.Kind() == metrics.KindFloat64 {
			return s[i].Value.Float64()
		}
		return 0
	}
	u64 := func(i int) uint64 {
		if s[i].Value.Kind() == metrics.KindUint64 {
			return s[i].Value.Uint64()
		}
		return 0
	}
	return runtimeSnap{gcCPU: val(0), totalCPU: val(1), heapLive: u64(2), goroutines: u64(3)}
}

// traceFile is what a traced run writes at its end.
type traceFile struct {
	Workload     string                        `json:"workload"`
	Seed         int64                         `json:"seed"`
	Spans        []span                        `json:"spans"`
	MetricsDelta map[string]float64            `json:"metrics_delta"`
	Families     map[string]map[string]float64 `json:"families"`
	PerLayer     map[string]metric             `json:"per_layer"`
}

// write stores the spans, the /metrics deltas and the per-family layer
// breakdown under dir.
func (lp *layerProbe) write(dir, workload string, seed int64, families map[string]map[string]float64, perLayer map[string]metric) (string, error) {
	delta := map[string]float64{}
	for k, v := range lp.metrics1 {
		if d := v - lp.metrics0[k]; d != 0 {
			delta[k] = d
		}
	}
	raw, err := json.MarshalIndent(traceFile{
		Workload: workload, Seed: seed, Spans: lp.spans,
		MetricsDelta: delta, Families: families, PerLayer: perLayer,
	}, "", " ")
	if err != nil {
		return "", err
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	path := filepath.Join(dir, fmt.Sprintf("%s-seed%d.json", workload, seed))
	return path, os.WriteFile(path, raw, 0o644)
}

// kbFiles reports the size of the knowledge base's WAL and the modification
// time of its graph snapshot under a durable data directory.
func kbFiles(dataDir string) (walBytes int64, snapshot time.Time) {
	if fi, err := os.Stat(filepath.Join(dataDir, "kb", "runs.wal")); err == nil {
		walBytes = fi.Size()
	}
	if fi, err := os.Stat(filepath.Join(dataDir, "kb", "graph.ttl")); err == nil {
		snapshot = fi.ModTime()
	}
	return walBytes, snapshot
}

// dirUsage sums the regular files under dir.
func dirUsage(dir string) (bytes int64, files int) {
	_ = filepath.WalkDir(dir, func(_ string, e os.DirEntry, err error) error {
		if err != nil || !e.Type().IsRegular() {
			return nil
		}
		if fi, err := e.Info(); err == nil {
			bytes += fi.Size()
			files++
		}
		return nil
	})
	return bytes, files
}
