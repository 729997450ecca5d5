package verify

import (
	"fmt"
	"net"
	"net/http"
	"time"

	"dampi/internal/dcoord"
	"dampi/internal/dexplore"
	"dampi/mpi"
)

// ClusterConfig configures one node of a distributed verification: either
// the coordinator (Serve) or a worker (Join). Both sides must be built from
// the same exploration parameters and workload name — the join handshake
// refuses any mismatch, because a worker replaying a different program or a
// different interleaving space would silently corrupt the merged report.
type ClusterConfig struct {
	// Config carries the exploration parameters (Procs, Clock, MixingBound,
	// ...). Coordinator-side, the fields that require running the program
	// locally are unsupported: CheckLeaks, CollectStats, OnInterleaving and
	// Workers must be zero (replays happen on the workers).
	Config

	// Workload names the program both sides run; part of the compatibility
	// fingerprint.
	Workload string

	// Addr is the coordinator's TCP address: the listen address for Serve
	// (":9477", "0.0.0.0:9477"), the dial address for Join.
	Addr string

	// LeaseTTL bounds how long a worker may hold a task without a heartbeat
	// before it is requeued (coordinator; default 10s).
	LeaseTTL time.Duration
	// MaxRedeliveries caps how often one task may lose its lease before the
	// exploration aborts as unhealthy (coordinator; default 3).
	MaxRedeliveries int

	// Slots is the worker's concurrent replay slot count (default 1).
	Slots int
	// WorkerName identifies the worker in status output (default host:pid).
	WorkerName string
	// Scale and Iters are the workload parameters the program is built
	// with. Serve puts them in the job spec (0 = the CLI defaults, 100 and
	// 4), which an any-workload worker builds its program from; a pinned
	// worker built with other values is rejected at hello. Join advertises
	// them (0 = unknown, matches any job).
	Scale int
	Iters int
	// OnEvent, if non-nil, receives lifecycle lines for logging: worker
	// joined/lost and job started on the coordinator, connected, job and
	// rejected on a worker.
	OnEvent func(string)
}

// jobSpec translates the cluster configuration into the job spec both sides
// derive everything from: the coordinator runs it, and a pinned worker takes
// its fingerprint and replay configuration from it.
func (cfg *ClusterConfig) jobSpec() (dcoord.JobSpec, error) {
	spec := dcoord.JobSpec{
		Workload:          cfg.Workload,
		Procs:             cfg.Procs,
		Scale:             cfg.Scale,
		Iters:             cfg.Iters,
		Clock:             cfg.Clock,
		DualClock:         cfg.DualClock,
		Transport:         cfg.Transport,
		MixingBound:       cfg.MixingBound,
		AutoLoopThreshold: cfg.AutoLoopThreshold,
		ChoicePoints:      cfg.ChoicePoints,
		SampleDepth:       cfg.SampleDepth,
		MaxInterleavings:  cfg.MaxInterleavings,
		StopOnFirstError:  cfg.StopOnFirstError,
	}
	strat, err := cfg.samplingStrategy()
	if err != nil {
		return dcoord.JobSpec{}, err
	}
	if strat != "" {
		spec.SampleStrategy = string(strat)
		spec.Samples = cfg.Samples
		spec.SampleSeed = cfg.Seed
	}
	// Normalize turns choice points on for a sampling spec, as
	// configureSampling does for local runs.
	spec.Normalize()
	return spec, nil
}

// Coordinator is the coordinator side of a distributed verification. It owns
// the exploration frontier and the merged report; workers created with Join
// connect to it and replay leased subtrees.
type Coordinator struct {
	c   *dcoord.Coordinator
	ln  net.Listener
	cfg ClusterConfig
}

// Serve starts the coordinator of a distributed verification, listening on
// cfg.Addr. It returns as soon as the listener is up; Wait blocks until the
// exploration finishes and returns the merged result, which is identical to
// what a single-process Run over the same parameters would report.
func Serve(cfg ClusterConfig) (*Coordinator, error) {
	if cfg.Procs < 1 {
		return nil, fmt.Errorf("verify: Procs must be >= 1, got %d", cfg.Procs)
	}
	if cfg.Workload == "" {
		return nil, fmt.Errorf("verify: distributed verification requires a Workload name")
	}
	switch {
	case cfg.CheckLeaks:
		return nil, fmt.Errorf("verify: CheckLeaks is unsupported distributed (the canonical run happens on a worker); run the leak check locally")
	case cfg.CollectStats:
		return nil, fmt.Errorf("verify: CollectStats is unsupported distributed; collect statistics locally")
	case cfg.OnInterleaving != nil:
		return nil, fmt.Errorf("verify: OnInterleaving is unsupported distributed")
	case cfg.Workers != 0:
		return nil, fmt.Errorf("verify: Workers is meaningless on a coordinator; workers join with Join")
	}
	if cfg.Resume && cfg.CheckpointFile == "" {
		return nil, fmt.Errorf("verify: Resume requires CheckpointFile")
	}
	spec, err := cfg.jobSpec()
	if err != nil {
		return nil, err
	}
	job := dcoord.JobConfig{
		ID:             spec.Key()[:12],
		CheckpointPath: cfg.CheckpointFile,
		OnProgress:     cfg.OnProgress,
	}
	if cfg.Resume {
		ckp, err := dexplore.LoadCheckpoint(cfg.CheckpointFile)
		if err != nil {
			return nil, fmt.Errorf("verify: loading checkpoint: %w", err)
		}
		job.Resume = ckp
	}
	ln, err := net.Listen("tcp", cfg.Addr)
	if err != nil {
		return nil, err
	}
	c, err := dcoord.ServeJob(ln, dcoord.ServerConfig{
		LeaseTTL:        cfg.LeaseTTL,
		MaxRedeliveries: cfg.MaxRedeliveries,
		CheckpointEvery: cfg.CheckpointEvery,
		ProgressEvery:   cfg.ProgressEvery,
		OnEvent:         cfg.OnEvent,
	}, spec, job)
	if err != nil {
		return nil, err
	}
	return &Coordinator{c: c, ln: ln, cfg: cfg}, nil
}

// Addr returns the coordinator's bound listen address (useful with ":0").
func (c *Coordinator) Addr() net.Addr { return c.ln.Addr() }

// Wait blocks until the exploration completes and returns the merged result.
func (c *Coordinator) Wait() (*Result, error) {
	rep, err := c.c.Wait()
	if err != nil {
		return nil, err
	}
	res := &Result{Report: rep}
	if c.cfg.ArtifactsDir != "" {
		if err := writeArtifacts(c.cfg.ArtifactsDir, res); err != nil {
			return nil, fmt.Errorf("verify: writing artifacts: %w", err)
		}
	}
	return res, nil
}

// Stop drains the cluster gracefully: no new tasks are leased, in-flight
// results are merged, a final checkpoint is written (if configured) and Wait
// returns the partial result. The SIGTERM path.
func (c *Coordinator) Stop() { c.c.Stop() }

// Status returns a live snapshot of the exploration.
func (c *Coordinator) Status() dcoord.Status { return c.c.Status() }

// StatusHandler returns the coordinator's HTTP observability surface:
// /status (JSON) and /metrics (Prometheus text).
func (c *Coordinator) StatusHandler() http.Handler { return c.c.StatusHandler() }

// Worker is the worker side of a distributed verification.
type Worker struct {
	w *dcoord.Worker
}

// Join creates a worker for the coordinator at cfg.Addr, replaying the given
// program. Run blocks until the exploration is done (nil), the worker is
// stopped (nil), or the coordinator rejects or disappears (error). The
// program must be the same workload the coordinator serves — the handshake
// enforces the name and every exploration parameter.
func Join(cfg ClusterConfig, program func(p *mpi.Proc) error) (*Worker, error) {
	if cfg.Procs < 1 {
		return nil, fmt.Errorf("verify: Procs must be >= 1, got %d", cfg.Procs)
	}
	if program == nil {
		return nil, fmt.Errorf("verify: nil program")
	}
	if cfg.Workload == "" {
		return nil, fmt.Errorf("verify: distributed verification requires a Workload name")
	}
	spec, err := cfg.jobSpec()
	if err != nil {
		return nil, err
	}
	ecfg := spec.ExplorerConfig()
	ecfg.Program = program
	w := dcoord.NewWorker(dcoord.WorkerConfig{
		Addr:        cfg.Addr,
		Name:        cfg.WorkerName,
		Slots:       cfg.Slots,
		Fingerprint: spec.Fingerprint(),
		Explorer:    ecfg,
		Scale:       cfg.Scale,
		Iters:       cfg.Iters,
		OnEvent:     cfg.OnEvent,
	})
	return &Worker{w: w}, nil
}

// Run joins the coordinator and replays tasks until done or stopped.
func (w *Worker) Run() error { return w.w.Run() }

// Stop drains gracefully: in-flight replays finish and deliver their
// results, then Run returns. The SIGTERM path.
func (w *Worker) Stop() { w.w.Stop() }
