package main

import (
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"time"

	"dampi/internal/core"
	"dampi/internal/dexplore"
	"dampi/internal/jobqueue"
	"dampi/internal/leak"
	"dampi/internal/piggyback"
	"dampi/internal/pnmpi"
	"dampi/internal/trace"
	"dampi/mpi"
	"dampi/verify"
)

// layerUnits lists every per-layer metric with its unit. Every traced run
// measures all of them.
var layerUnits = map[string]string{
	"mpi.pingpong_ns":              "ns",
	"mpi.world_setup_us":           "us",
	"mpi.ops_per_replay":           "count",
	"pnmpi.empty_stack_overhead_x": "x",
	"piggyback.setup_world_us":     "us",
	"piggyback.clock_roundtrip_ns": "ns",
	"core.replay_us_p50":           "us",
	"core.replay_us_p90":           "us",
	"core.trace_sweep_us":          "us",
	"core.alloc_bytes_per_replay":  "bytes",
	"core.mallocs_per_replay":      "count",
	"core.gc_per_1k_replays":       "count",
	"core.expand_us":               "us",
	"core.explorer_self_frac":      "frac",
	"core.mismatch_frac":           "frac",
	"dexplore.busy_frac":           "frac",
	"dexplore.self_frac":           "frac",
	"dcoord.frames_per_job":        "count",
	"dcoord.bytes_per_job":         "bytes",
	"dcoord.job_overhead_s":        "s",
	"dcoord.requeues":              "count",
	"jobqueue.wal_append_ms":       "ms",
	"jobqueue.wal_records_per_job": "count",
	"trace.overhead_s":             "s",
	"trace.unaccounted_s":          "s",
}

// layerMetrics attaches units to the measured values.
func layerMetrics(vals map[string]float64) (map[string]metric, error) {
	out := make(map[string]metric, len(layerUnits))
	for name, unit := range layerUnits {
		v, ok := vals[name]
		if !ok {
			return nil, fmt.Errorf("per-layer metric %s was not measured", name)
		}
		out[name] = metric{v, unit}
	}
	return out, nil
}

// repeat calls fn until it has run at least reps times and for at least
// minDur, and at most 100×reps times.
func repeat(reps int, minDur time.Duration, fn func() error) error {
	start := time.Now()
	for i := 0; i < reps || (time.Since(start) < minDur && i < 100*reps); i++ {
		if err := fn(); err != nil {
			return err
		}
	}
	return nil
}

// probeTarget is the program the per-layer probes exercise, with the
// exploration the replay probes walk.
type probeTarget struct {
	explorer core.ExplorerConfig
	reps     int // minimum repetitions of a whole-program probe
	replays  int // replays the expansion/allocation walk and an engine probe make
}

// probes measures each layer in isolation, around calls into its public
// functions, and adds the results to vals.
func probes(o options, tg probeTarget, tr *tracer, t *tally, vals map[string]float64) error {
	procs, prog := tg.explorer.Procs, tg.explorer.Program
	const minDur = 200 * time.Millisecond

	// mpi: a two-rank ping-pong, the matching and park/wake floor.
	const trips = 2000
	t.check("mpi ping-pong", repeat(5, minDur, func() error {
		return mpi.NewWorld(mpi.Config{Procs: 2}).Run(func(p *mpi.Proc) error {
			w, peer := p.CommWorld(), 1-p.Rank()
			var sp openSpan
			if p.Rank() == 0 {
				sp = tr.start("mpi.pingpong", 0)
			}
			for i := 0; i < trips; i++ {
				if p.Rank() == 1 {
					if _, _, err := p.Recv(peer, 0, w); err != nil {
						return err
					}
				}
				if err := p.Send(peer, 0, []byte{1}, w); err != nil {
					return err
				}
				if p.Rank() == 0 {
					if _, _, err := p.Recv(peer, 0, w); err != nil {
						return err
					}
				}
			}
			if p.Rank() == 0 {
				sp.end()
			}
			return nil
		})
	}))

	// mpi: creating and running an empty world of the target's size.
	t.check("mpi world set-up", repeat(20, minDur, func() error {
		sp := tr.start("mpi.world", 0)
		err := mpi.NewWorld(mpi.Config{Procs: procs}).Run(func(*mpi.Proc) error { return nil })
		sp.end()
		return err
	}))

	// mpi: operations one run of the program issues.
	stats := trace.NewStats(procs)
	if t.check("mpi operation count", mpi.NewWorld(mpi.Config{Procs: procs, Hooks: stats.Hooks()}).Run(prog)) {
		vals["mpi.ops_per_replay"] = float64(stats.Totals().All)
	}

	// pnmpi: the native program under a stack of two empty layers, against
	// the plain native run. One layer would be returned as is, so two are
	// needed for the stack's own dispatch to run.
	t.check("pnmpi stack", repeat(tg.reps, minDur, func() error {
		sp := tr.start("native.plain", 0)
		err := mpi.NewWorld(mpi.Config{Procs: procs}).Run(prog)
		sp.end()
		if err != nil {
			return err
		}
		sp = tr.start("native.pnmpi_stack", 0)
		err = mpi.NewWorld(mpi.Config{Procs: procs, Hooks: pnmpi.Stack(&mpi.Hooks{}, &mpi.Hooks{})}).Run(prog)
		sp.end()
		return err
	}))

	// piggyback: shadow set-up of MPI_COMM_WORLD on every rank; the
	// slowest rank's span counts, since the duplication is collective.
	var mu sync.Mutex
	var setupWorld []float64
	t.check("piggyback set-up", repeat(20, minDur, func() error {
		slowest := time.Duration(0)
		err := mpi.NewWorld(mpi.Config{Procs: procs}).Run(func(p *mpi.Proc) error {
			sp := tr.start("piggyback.setup_world", 0)
			err := piggyback.NewRank(p).SetupWorld()
			d := sp.end()
			mu.Lock()
			slowest = max(slowest, d)
			mu.Unlock()
			return err
		})
		setupWorld = append(setupWorld, float64(slowest)/float64(time.Microsecond))
		return err
	}))
	vals["piggyback.setup_world_us"] = median(setupWorld)

	// piggyback: a clock message to the peer and one back.
	t.check("piggyback clock round trip", repeat(5, minDur, func() error {
		return mpi.NewWorld(mpi.Config{Procs: 2}).Run(func(p *mpi.Proc) error {
			pb := piggyback.NewRank(p)
			if err := pb.SetupWorld(); err != nil {
				return err
			}
			w, peer := p.CommWorld(), 1-p.Rank()
			clock := []uint64{0}
			var sp openSpan
			if p.Rank() == 0 {
				sp = tr.start("piggyback.clock_roundtrip", 0)
			}
			for i := 0; i < trips; i++ {
				if p.Rank() == 1 {
					if _, err := pb.RecvClockFrom(peer, 0, w); err != nil {
						return err
					}
				}
				clock[0] = uint64(i)
				req, err := pb.SendClock(peer, 0, w, clock)
				if err == nil {
					err = pb.DrainSend(req)
				}
				if err != nil {
					return err
				}
				if p.Rank() == 0 {
					if _, err := pb.RecvClockFrom(peer, 0, w); err != nil {
						return err
					}
				}
			}
			if p.Rank() == 0 {
				sp.end()
			}
			return nil
		})
	}))

	// core: the tool's post-run sweep, Tool.Trace, after a self run.
	tool := core.NewTool(core.ToolConfig{Procs: procs})
	hooks := pnmpi.Stack(tool.Hooks())
	t.check("core trace sweep", repeat(tg.reps, minDur, func() error {
		tool.Reset(nil)
		if err := mpi.NewWorld(mpi.Config{Procs: procs, Hooks: hooks}).Run(prog); err != nil {
			return err
		}
		sp := tr.start("core.trace_sweep", 0)
		tool.Trace()
		sp.end()
		return nil
	}))

	t.check("core replay walk", replayWalk(tg, tr, vals))

	walDir, err := os.MkdirTemp(o.outDir, "walprobe-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(walDir)
	t.check("jobqueue WAL probe", walProbe(walDir, tr))

	st := tr.tree()
	vals["mpi.pingpong_ns"] = median(st.durs("mpi.pingpong", time.Nanosecond)) / trips
	vals["mpi.world_setup_us"] = median(st.durs("mpi.world", time.Microsecond))
	vals["pnmpi.empty_stack_overhead_x"] = ratio(median(st.durs("native.pnmpi_stack", time.Second)), median(st.durs("native.plain", time.Second)))
	vals["piggyback.clock_roundtrip_ns"] = median(st.durs("piggyback.clock_roundtrip", time.Nanosecond)) / trips
	vals["core.trace_sweep_us"] = median(st.durs("core.trace_sweep", time.Microsecond))
	vals["core.expand_us"] = median(st.durs("core.expand", time.Microsecond))
	vals["jobqueue.wal_append_ms"] = median(st.durs("jobqueue.append", time.Millisecond))
	return nil
}

// replayWalk walks the first tg.replays tasks of the target's exploration
// depth-first on one RunContext, reading MemStats around each
// RunContext.Run and timing each SubtreeTask.Expand.
func replayWalk(tg probeTarget, tr *tracer, vals map[string]float64) error {
	cfg := tg.explorer
	rc := core.NewRunContext(&cfg)
	stack := []*core.SubtreeTask{core.RootTask(&cfg)}
	var before, after runtime.MemStats
	var bytes, mallocs, gcs float64
	n := 0
	for ; n < tg.replays && len(stack) > 0; n++ {
		t := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		runtime.ReadMemStats(&before)
		trace, res, err := rc.Run(t.Decisions)
		runtime.ReadMemStats(&after)
		if err != nil {
			return err
		}
		bytes += float64(after.TotalAlloc - before.TotalAlloc)
		mallocs += float64(after.Mallocs - before.Mallocs)
		gcs += float64(after.NumGC - before.NumGC)
		if res.Deadlock {
			continue
		}
		sp := tr.start("core.expand", 0)
		ex := t.Expand(&cfg, trace)
		sp.end()
		stack = append(stack, ex.Children...)
	}
	vals["core.alloc_bytes_per_replay"] = bytes / float64(n)
	vals["core.mallocs_per_replay"] = mallocs / float64(n)
	vals["core.gc_per_1k_replays"] = gcs * 1000 / float64(n)
	return nil
}

// walProbe times single WAL appends on a fresh job store: a job's submit
// and the state changes the service makes for it.
func walProbe(dir string, tr *tracer) error {
	store, err := jobqueue.OpenStore(jobqueue.StoreConfig{Dir: dir})
	if err != nil {
		return err
	}
	defer store.Close()
	spec := verify.JobSpec{Workload: "matmul", Procs: 4}
	spec.Normalize()
	for i := 0; i < 20; i++ {
		sp := tr.start("jobqueue.append", 0)
		j, _, err := store.Submit(spec, 0)
		sp.end()
		if err != nil {
			return err
		}
		for _, to := range []jobqueue.State{jobqueue.Running, jobqueue.Merging, jobqueue.Done} {
			sp := tr.start("jobqueue.append", 0)
			_, err := store.SetState(j.ID, to, "")
			sp.end()
			if err != nil {
				return err
			}
		}
	}
	return nil
}

// layers is the traced run of a local workload: untraced and traced
// operations in turn, so that drift over the run weighs on both alike and
// their difference is the tracing overhead, then the per-layer probes.
func (w *localWorkload) layers(o options) (*outcome, error) {
	m := &measurement{}
	prog, err := w.setUp(m)
	if err != nil {
		return nil, err
	}
	out := &outcome{tally: m.tally}
	tr := newTracer()
	counts := &replayCounts{}
	var plain []float64
	deadline := time.Now().Add(o.duration)
	for len(plain) == 0 || time.Now().Before(deadline) {
		d, _, _ := w.verifyOnce(prog, &out.tally)
		plain = append(plain, d)
		runtime.GC()
		op := tr.start("op", 0)
		v, err := w.tracedRun(prog, tr, op.s.ID, counts)
		op.end()
		if err == nil {
			err = w.want.check(v)
		}
		out.check("traced verification", err)
	}

	// The operations' spans are analysed before the probes add their own.
	vals := map[string]float64{}
	st := tr.tree()
	replayMetrics(st.durs("core.replay", time.Microsecond), counts, vals)
	engineFracs(st, w.cfg.Workers, vals)
	vals["trace.overhead_s"] = median(st.durs("op", time.Second)) - median(plain)
	vals["trace.unaccounted_s"] = median(st.selfs("op", time.Second))

	cfg := core.ExplorerConfig{Procs: w.cfg.Procs, Program: prog, MixingBound: w.cfg.MixingBound}
	tg := probeTarget{explorer: cfg, reps: 3, replays: 500}
	if w.cfg.MaxInterleavings == 1 {
		tg.reps, tg.replays = 1, 1 // one instrumented run is the whole workload
	}
	// The engine the operations did not run explores the same program.
	other := runtime.NumCPU()
	if w.cfg.Workers > 0 {
		other = 0
	}
	engineProbe(tg, tr, &out.tally, other, vals)
	if _, err := serviceSmallJobs(o.toy).tracedLoop(o, tr, probeJobs, &out.tally, &replayCounts{}, vals); err != nil {
		return nil, err
	}
	if err := probes(o, tg, tr, &out.tally, vals); err != nil {
		return nil, err
	}
	if out.metrics, err = layerMetrics(vals); err != nil {
		return nil, err
	}
	out.spans, err = writeSpans(o, tr)
	return out, err
}

// replayMetrics adds the replay-time and wasted-work metrics of the traced
// replays.
func replayMetrics(replays []float64, counts *replayCounts, vals map[string]float64) {
	vals["core.replay_us_p50"] = median(replays)
	vals["core.replay_us_p90"] = percentile(replays, 90)
	vals["core.mismatch_frac"] = ratio(float64(counts.mismatched.Load()), float64(counts.replays.Load()))
}

// engineSpan names the span of one exploration on the serial engine
// (workers 0) or the work-stealing one.
func engineSpan(workers int) string {
	if workers > 0 {
		return "dexplore.explore"
	}
	return "core.explore"
}

// engineFracs adds the self-time metrics of the engine's spans in st.
func engineFracs(st *spanTree, workers int, vals map[string]float64) {
	name := engineSpan(workers)
	if workers == 0 {
		vals["core.explorer_self_frac"] = st.selfFrac(name)
		return
	}
	vals["dexplore.self_frac"] = st.selfFrac(name)
	vals["dexplore.busy_frac"] = ratio(float64(st.childTotal(name)), float64(workers)*float64(st.total(name)))
}

// engineProbe explores the target, capped at tg.replays interleavings, on
// the serial engine (workers 0) or the work-stealing one, and adds that
// engine's self-time metrics.
func engineProbe(tg probeTarget, tr *tracer, t *tally, workers int, vals map[string]float64) {
	cfg := tg.explorer
	cfg.MaxInterleavings = tg.replays
	_, err := tracedExplore(tr, 0, cfg, workers, &replayCounts{})
	t.check(engineSpan(workers)+" probe", err)
	engineFracs(tr.tree(), workers, vals)
}

// tracedExplore runs one exploration of cfg on the serial engine (workers
// 0) or the work-stealing one inside a span named after the engine, with
// every replay through a traced Runner.
func tracedExplore(tr *tracer, parent int64, cfg core.ExplorerConfig, workers int, counts *replayCounts) (*core.Report, error) {
	sp := tr.start(engineSpan(workers), parent)
	defer sp.end()
	r := &tracedRunner{tr: tr, parent: func() int64 { return sp.s.ID }, counts: counts}
	cfg.Runner = r.run
	if workers > 0 {
		return dexplore.New(dexplore.Config{Explorer: cfg, Workers: workers}).Explore()
	}
	return core.NewExplorer(cfg).Explore()
}

// tracedRun is one verification with the same configuration verify.Run
// builds from w.cfg, driven through the engine directly so that replays go
// through a traced Runner. It returns the verdict.
func (w *localWorkload) tracedRun(prog func(*mpi.Proc) error, tr *tracer, parent int64, counts *replayCounts) (verdict, error) {
	var tracker *leak.Tracker
	var first sync.Once
	extra := func() []*mpi.Hooks {
		var hs []*mpi.Hooks
		first.Do(func() {
			if w.cfg.CheckLeaks {
				tracker = leak.NewTracker()
				hs = append(hs, tracker.Hooks())
			}
		})
		return hs
	}
	cfg := core.ExplorerConfig{
		Procs:            w.cfg.Procs,
		Program:          prog,
		MixingBound:      w.cfg.MixingBound,
		MaxInterleavings: w.cfg.MaxInterleavings,
		ExtraHooks:       extra,
	}
	rep, err := tracedExplore(tr, parent, cfg, w.cfg.Workers, counts)
	if err != nil {
		return verdict{}, err
	}
	var leaks *leak.Report
	if tracker != nil {
		leaks = tracker.Report()
	}
	return verdictOf(rep, leaks), nil
}

// writeSpans dumps the traced run's spans under the output directory.
func writeSpans(o options, tr *tracer) (string, error) {
	path := filepath.Join(o.outDir, fmt.Sprintf("spans-%s-seed%d.json", o.workload, o.seed))
	if err := tr.write(path); err != nil {
		return "", fmt.Errorf("writing spans: %w", err)
	}
	return path, nil
}
