package main

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"scan/internal/rpc"
)

// opTimeout bounds one op, so a hung job cannot hang the benchmark.
const opTimeout = 60 * time.Second

// A run sets the daemon up at least minSetups and at most maxSetups times.
const (
	minSetups = 5
	maxSetups = 100
)

// config is one benchmark run.
type config struct {
	wl      *workload
	seed    int64
	seconds time.Duration
	trace   bool
	// setups is the least number of daemon set-ups; cheap set-ups repeat
	// until setupBudget has passed (at most maxSetups), so setup_s is a
	// median of enough samples to be steady.
	setups      int
	setupBudget time.Duration
	tmpDir      string
	// start is when the process started; the first set-up counts from it.
	start time.Time
}

// sample is what one op observed.
type sample struct {
	op     int
	family string
	check  func(rpc.JobResult) error
	err    error // refused, errored, ended non-done, or wrong output

	// start, uploaded, submit, admitted, terminal, deleted mark the op's
	// steps; uploaded and deleted stay zero without an upload.
	start, uploaded, submit, admitted, terminal, deleted time.Time

	job         rpc.Job
	rejected    int // rate_limited refusals retried
	uploadBytes int64
}

// latency is submit → terminal event received.
func (s *sample) latency() time.Duration { return s.terminal.Sub(s.submit) }

// runResult is everything one run measured.
type runResult struct {
	setups    []float64 // seconds, one per set-up
	samples   []*sample
	loopStart time.Time
	loopWall  time.Duration
	cpu       time.Duration // process user+sys over the loop
	heapMB    float64
	layers    *layerProbe // nil unless traced
}

// run sets the daemon up repeatedly (keeping the last one), drives the
// closed loop for cfg.seconds, checks the outputs, and measures the heap
// before tearing down.
func run(ctx context.Context, cfg config) (*runResult, error) {
	res := &runResult{}
	var (
		d     *daemon
		spent time.Duration
	)
	for k := 0; ; k++ {
		t0 := time.Now()
		if k == 0 {
			t0 = cfg.start
		}
		var err error
		if d, err = startDaemon(ctx, cfg.wl, cfg.seed, cfg.tmpDir); err != nil {
			return nil, fmt.Errorf("set-up %d: %w", k+1, err)
		}
		took := time.Since(t0)
		res.setups = append(res.setups, took.Seconds())
		spent += took
		if k+1 >= cfg.setups && (spent >= cfg.setupBudget || k+1 >= maxSetups) {
			break
		}
		d.stop()
	}
	defer d.stop()
	// Collect what the discarded set-ups left behind, so every run's loop
	// starts from the same heap: the measured daemon's own.
	runtime.GC()

	if cfg.trace {
		res.layers = newLayerProbe(ctx, d)
	}
	cpu0 := processCPU()
	res.loopStart = time.Now()
	res.samples = closedLoop(ctx, d, cfg, res.layers)
	res.loopWall = time.Since(res.loopStart)
	res.cpu = processCPU() - cpu0
	if res.layers != nil {
		res.layers.finish(ctx, d)
	}
	verify(res.samples)

	runtime.GC()
	var mem runtime.MemStats
	runtime.ReadMemStats(&mem)
	res.heapMB = float64(mem.HeapAlloc) / (1 << 20)
	return res, nil
}

// closedLoop runs `clients` goroutines, each sending its next op only once
// the previous one is terminal, until cfg.seconds have passed. Ops in
// flight at the deadline finish and count.
func closedLoop(ctx context.Context, d *daemon, cfg config, lp *layerProbe) []*sample {
	var (
		next    atomic.Int64
		mu      sync.Mutex
		samples []*sample
		wg      sync.WaitGroup
	)
	deadline := time.Now().Add(cfg.seconds)
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for time.Now().Before(deadline) && ctx.Err() == nil {
				i := int(next.Add(1) - 1)
				s := runOp(ctx, d, cfg.wl.task(cfg.seed, i), i)
				mu.Lock()
				samples = append(samples, s)
				mu.Unlock()
				if lp != nil {
					lp.afterOp(d, s)
				}
			}
		}()
	}
	wg.Wait()
	sort.Slice(samples, func(a, b int) bool { return samples[a].op < samples[b].op })
	return samples
}

// runOp uploads the task's dataset (if any), submits the job as
// `scanctl submit -wait` does, follows its event stream to the terminal
// state, checks the output, and deletes the dataset.
func runOp(ctx context.Context, d *daemon, t task, i int) *sample {
	ctx, cancel := context.WithTimeout(ctx, opTimeout)
	defer cancel()
	s := &sample{op: i, family: t.family, check: t.check, start: time.Now()}
	if t.upload != nil {
		if _, err := d.client.UploadDataset(ctx, t.upload.name, t.upload.family, t.upload.rpcParts()...); err != nil {
			s.err = fmt.Errorf("upload %s: %w", t.upload.name, err)
			return s
		}
		s.uploaded, s.uploadBytes = time.Now(), t.upload.size()
		defer func() {
			if _, err := d.client.DeleteDataset(ctx, t.upload.name); err != nil && s.err == nil {
				s.err = fmt.Errorf("delete %s: %w", t.upload.name, err)
			}
			s.deleted = time.Now()
		}()
	}
	s.submit = time.Now()
	job, err := submit(ctx, d.client, t.req, &s.rejected)
	if err != nil {
		s.err = fmt.Errorf("submit: %w", err)
		return s
	}
	s.admitted = time.Now()
	final, err := d.client.Watch(ctx, job.ID, func(ev rpc.JobEvent) {
		if ev.Type == rpc.EventState && ev.State.Terminal() {
			s.terminal = time.Now()
		}
	})
	if err != nil {
		s.err = fmt.Errorf("watch job %d: %w", job.ID, err)
		return s
	}
	s.job = final
	switch {
	case final.State != rpc.StateDone:
		s.err = fmt.Errorf("job %d ended %s: %+v", job.ID, final.State, final.Error)
	case final.Result == nil:
		s.err = fmt.Errorf("job %d is done without a result", job.ID)
	}
	return s
}

// verify runs each done job's output check, marking wrong outputs failed.
func verify(samples []*sample) {
	for _, s := range samples {
		if s.err == nil {
			if err := s.check(*s.job.Result); err != nil {
				s.err = fmt.Errorf("job %d (%s): %w", s.job.ID, s.family, err)
			}
		}
	}
}

// submit creates the job, retrying through rate-limit refusals (counted
// in *rejected) the way a well-behaved client backs off.
func submit(ctx context.Context, c *rpc.Client, req rpc.SubmitJobRequest, rejected *int) (rpc.Job, error) {
	for {
		job, err := c.CreateJob(ctx, req)
		var apiErr *rpc.APIError
		if err == nil || !errors.As(err, &apiErr) || apiErr.Code != rpc.CodeRateLimited {
			return job, err
		}
		*rejected++
		select {
		case <-ctx.Done():
			return rpc.Job{}, ctx.Err()
		case <-time.After(50 * time.Millisecond):
		}
	}
}

// processCPU is the process's user+sys CPU time so far.
func processCPU() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// percentile returns the q-quantile (0 < q <= 1) of xs by nearest rank.
func percentile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	idx := int(float64(len(s))*q+0.999999) - 1
	return s[min(max(idx, 0), len(s)-1)]
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sum := 0.0
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// failures summarizes the distinct errors of failed ops for stderr.
func failures(samples []*sample) string {
	counts := map[string]int{}
	var order []string
	for _, s := range samples {
		if s.err == nil {
			continue
		}
		msg := s.err.Error()
		if counts[msg] == 0 {
			order = append(order, msg)
		}
		counts[msg]++
	}
	var b strings.Builder
	for _, msg := range order {
		fmt.Fprintf(&b, "  %d× %s\n", counts[msg], msg)
	}
	return b.String()
}
