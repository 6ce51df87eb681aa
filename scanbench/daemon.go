package main

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"net"
	"net/http"
	"os"
	"time"

	"scan/internal/core"
	"scan/internal/fleet"
	"scan/internal/knowledge"
	"scan/internal/rpc"
	"scan/internal/scheduler"
	"scan/internal/tenant"
	"scan/internal/workflow"
)

// Daemon sizing shared by every workload: a closed loop of two clients
// against two executors over a two-wide engine pool (the box's core count),
// so the numbers measure SCAN rather than the Go scheduler.
const (
	clients     = 2
	executors   = 2
	enginePool  = 2
	workerSlots = 1
)

// apiKey authenticates the one tenant of workloads that run with admission.
const apiKey = "scanbench-tenant-key"

// tenantConfig is that tenant: limits far above what two closed-loop
// clients can ask for, so admission runs its full path and never refuses.
const tenantConfig = `{"tenants":[{"name":"bench","key":"` + apiKey + `","priority":"high",
  "max_jobs":64,"max_datasets":256,"max_bytes":1073741824,"rate_per_sec":100000,"burst":100000}]}`

// daemon is one SCAN daemon hosted in this process: the platform, its HTTP
// server on a loopback listener, and any in-process fleet workers.
type daemon struct {
	platform *core.Platform
	server   *rpc.Server
	http     *http.Server
	served   chan struct{} // closed when http.Serve returns
	base     string
	client   *rpc.Client
	dataDir  string // "" for a heap-only daemon

	stopWorkers context.CancelFunc
	workersDone chan struct{} // closed when every worker's Run returned
}

// startDaemon builds and serves a daemon for the workload, then runs the
// workload's setup (KB preload, worker registration, setup uploads). tmpDir
// roots the durable data directory and the upload spool.
func startDaemon(ctx context.Context, wl *workload, seed int64, tmpDir string) (_ *daemon, err error) {
	d := &daemon{}
	defer func() {
		if err != nil {
			d.stop()
		}
	}()
	opts := core.Options{Workers: enginePool}
	if wl.durable {
		if d.dataDir, err = os.MkdirTemp(tmpDir, "scanbench-data-"); err != nil {
			return d, err
		}
		opts.DataDir = d.dataDir
		opts.Logf = func(format string, args ...any) {
			fmt.Fprintf(os.Stderr, "scanbench: daemon: "+format+"\n", args...)
		}
	}
	if d.platform, err = core.OpenPlatform(opts); err != nil {
		return d, err
	}
	if err = preloadKB(d.platform.KB(), d.platform.Catalogue(), wl.preload, seed); err != nil {
		return d, err
	}
	// The coordinator is configured as scand's flag defaults configure it.
	sopts := rpc.ServerOptions{
		Executors: executors,
		Fleet: fleet.NewCoordinator(fleet.Options{
			Scaling:    scheduler.AlwaysScale,
			Allocation: scheduler.LongTermAdaptive,
			Baseline:   1,
			Blobs:      d.platform.Datasets().Blobs(),
		}),
	}
	if wl.tenant {
		if sopts.Tenants, err = tenant.Parse([]byte(tenantConfig)); err != nil {
			return d, err
		}
	}
	d.server = rpc.NewServerOptions(d.platform, sopts)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return d, err
	}
	d.base = "http://" + ln.Addr().String()
	d.http = &http.Server{Handler: d.server.Handler()}
	d.served = make(chan struct{})
	go func() {
		defer close(d.served)
		_ = d.http.Serve(ln) // returns http.ErrServerClosed on stop
	}()
	// A transport that keeps enough idle loopback connections for both
	// clients' unary calls and event streams, so each op does not dial anew.
	transport := http.DefaultTransport.(*http.Transport).Clone()
	transport.MaxIdleConnsPerHost = 16
	copts := []rpc.ClientOption{rpc.WithHTTPClient(&http.Client{
		Transport: transport, Timeout: rpc.DefaultTimeout,
	})}
	if wl.tenant {
		copts = append(copts, rpc.WithAPIKey(apiKey))
	}
	d.client = rpc.NewClient(d.base, copts...)
	if wl.workers > 0 {
		if err = d.startWorkers(ctx, wl.workers); err != nil {
			return d, err
		}
	}
	if wl.setup != nil {
		if err = wl.setup(ctx, d, seed); err != nil {
			return d, fmt.Errorf("workload setup: %w", err)
		}
	}
	return d, nil
}

// startWorkers joins n in-process fleet workers to the daemon and waits
// until the roster shows all of them live (idle or active).
func (d *daemon) startWorkers(ctx context.Context, n int) error {
	wctx, cancel := context.WithCancel(context.Background())
	d.stopWorkers = cancel
	d.workersDone = make(chan struct{})
	errs := make(chan error, n) // one slot per worker: sends never block
	for i := 0; i < n; i++ {
		w := fleet.NewWorker(fleet.WorkerOptions{
			Coordinator: d.base,
			Name:        fmt.Sprintf("bench-worker-%d", i),
			Slots:       workerSlots,
		})
		go func() { errs <- w.Run(wctx) }()
	}
	go func() {
		defer close(d.workersDone)
		for i := 0; i < n; i++ {
			if err := <-errs; err != nil && !errors.Is(err, context.Canceled) {
				fmt.Fprintf(os.Stderr, "scanbench: fleet worker: %v\n", err)
			}
		}
	}()
	deadline := time.Now().Add(30 * time.Second)
	for {
		roster, err := d.client.Workers(ctx)
		if err == nil && liveWorkers(roster) >= n {
			return nil
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("fleet workers never registered (last error: %v)", err)
		}
		select {
		case <-ctx.Done():
			return ctx.Err()
		case <-time.After(5 * time.Millisecond):
		}
	}
}

func liveWorkers(r fleet.Roster) int {
	n := 0
	for _, w := range r.Workers {
		if w.State != "gone" {
			n++
		}
	}
	return n
}

// stop tears the daemon down and waits for everything it started: workers
// first (they poll the server), then the listener, the executors, the
// knowledge base's storage, and finally the data directory.
func (d *daemon) stop() {
	if d.stopWorkers != nil {
		d.stopWorkers()
		<-d.workersDone
	}
	if d.http != nil {
		_ = d.http.Close() // severs open event streams too
		<-d.served
	}
	if d.server != nil {
		d.server.Close()
	}
	if d.platform != nil {
		d.platform.Close()
	}
	if d.dataDir != "" {
		_ = os.RemoveAll(d.dataDir)
	}
}

// preloadKB grows the knowledge base by n run logs shaped like the
// engine's own shard telemetry: every (catalogue tool, stage index) pair
// in turn, single-threaded, at seeded per-shard input sizes with a noisy
// linear runtime. It goes through the same batched ingestion (and, on a
// durable daemon, the same WAL and snapshots) as live traffic.
func preloadKB(kb *knowledge.Base, cat *workflow.Registry, n int, seed int64) error {
	if n == 0 {
		return nil
	}
	refs := catalogueStages(cat)
	rng := rand.New(rand.NewSource(seed))
	for i := 0; i < n; i++ {
		ref := refs[i%len(refs)]
		size := float64(50+rng.Intn(1950)) / 1000 // records per shard / RecordsPerUnit
		etime := (0.02*size + 0.001) * (0.8 + 0.4*rng.Float64())
		if err := kb.LogRunAsync(knowledge.RunLog{
			App: ref.App, Stage: ref.Stage, InputSize: size, Threads: 1, ETime: etime,
		}); err != nil {
			return fmt.Errorf("preloading the knowledge base: %w", err)
		}
	}
	kb.Flush()
	return nil
}

// catalogueStages lists every distinct (tool, stage index) pair of the
// catalogue, in catalogue order.
func catalogueStages(cat *workflow.Registry) []knowledge.StageRef {
	seen := map[knowledge.StageRef]bool{}
	var refs []knowledge.StageRef
	for _, name := range cat.Names() {
		wf, err := cat.Get(name)
		if err != nil {
			continue
		}
		for i, st := range wf.Stages {
			ref := knowledge.StageRef{App: st.Tool, Stage: i}
			if !seen[ref] {
				seen[ref] = true
				refs = append(refs, ref)
			}
		}
	}
	return refs
}
