package main

import (
	"fmt"
	"runtime"
	"time"

	"dampi/internal/core"
	"dampi/internal/leak"
	"dampi/mpi"
	"dampi/verify"
	"dampi/workloads"
)

// setupRounds is how many times each workload sets up per run; setup_s is
// the median round.
const setupRounds = 5

// bench is one benchmark workload.
type bench interface {
	// measure runs the end-to-end measurement, untraced.
	measure(o options) (*measurement, error)
	// layers runs the traced per-layer measurement.
	layers(o options) (*outcome, error)
}

// benchWorkloads returns the workloads by name, at full or toy size. The
// full sizes were chosen on a 2-CPU host so that each operation takes
// between milliseconds (service jobs) and about three seconds.
func benchWorkloads(toy bool) map[string]bench {
	return map[string]bench{
		"matmul-k2":          matmulK2(toy),
		"adlb-k2-cap":        adlbK2Cap(toy),
		"parmetis-table2":    parmetisTable2(toy),
		"service-small-jobs": serviceSmallJobs(toy),
	}
}

// matmulK2 explores the whole k=2 space of 8-rank matmul (paper Figs. 6, 8)
// on the work-stealing engine. The space is deterministic, and its tens of
// thousands of short replays stress per-replay set-up and the engine's
// deques and stealing. It is the only workload on the parallel engine.
func matmulK2(toy bool) *localWorkload {
	w := &localWorkload{
		program:    "matmul",
		params:     workloads.Params{Procs: 8},
		cfg:        verify.Config{Procs: 8, MixingBound: 2, Workers: runtime.NumCPU()},
		warmup:     500,
		nativeReps: 200,
		want:       verdict{Interleavings: 33398, Wildcards: 14},
	}
	if toy {
		w.params.Procs, w.cfg.Procs, w.warmup, w.nativeReps = 4, 4, 20, 2
		w.want = verdict{Interleavings: 98, Wildcards: 6}
	}
	return w
}

// adlbK2Cap runs the ADLB driver (paper Fig. 9) at k=2 on the default serial
// engine: expansion over a wildcard- and probe-heavy tree. The uncapped
// space size depends on timing, so the run stops at a fixed interleaving
// count to keep time-to-verdict comparable across runs.
func adlbK2Cap(toy bool) *localWorkload {
	w := &localWorkload{
		program:    "adlb",
		params:     workloads.Params{Procs: 8},
		cfg:        verify.Config{Procs: 8, MixingBound: 2, MaxInterleavings: 20000},
		warmup:     500,
		nativeReps: 200,
		want:       verdict{Interleavings: 20000, Wildcards: 28, Capped: true},
	}
	if toy {
		w.params.Procs, w.cfg.Procs, w.cfg.MixingBound, w.cfg.MaxInterleavings = 6, 6, 1, 200
		w.warmup, w.nativeReps = 20, 2
		w.want = verdict{Interleavings: 200, Wildcards: 20, Capped: true}
	}
	return w
}

// parmetisTable2 is the paper's Table II overhead measurement on the
// ParMETIS proxy at its paper calibration: one native run and one
// instrumented run with leak checks. It is message-heavy with no
// exploration, so the runtime, the hook stack, the piggyback traffic and
// the tool's per-operation work dominate.
func parmetisTable2(toy bool) *localWorkload {
	params := workloads.Params{Procs: 32, Scale: 1, Iters: 4}
	if toy {
		params = workloads.Params{Procs: 4, Scale: 100, Iters: 4}
	}
	wl, err := workloads.Get("ParMETIS-3.1")
	if err != nil {
		panic(err) // the registry is compiled in
	}
	return &localWorkload{
		program:    wl.Name,
		params:     params,
		cfg:        verify.Config{Procs: params.Procs, MaxInterleavings: 1, CheckLeaks: true},
		nativeReps: 1,
		want:       verdict{Interleavings: 1, CommLeak: wl.ExpectCommLeak},
	}
}

// verdict is the part of a verification's answer the benchmark checks.
type verdict struct {
	Interleavings int
	Errors        int
	Deadlocks     int
	Wildcards     int
	Capped        bool
	CommLeak      bool
}

func verdictOf(rep *core.Report, leaks *leak.Report) verdict {
	v := verdict{
		Interleavings: rep.Interleavings,
		Errors:        len(rep.Errors),
		Deadlocks:     rep.Deadlocks,
		Wildcards:     rep.WildcardsAnalyzed,
		Capped:        rep.Capped,
	}
	if leaks != nil {
		v.CommLeak = leaks.HasCommLeak()
	}
	return v
}

func (v verdict) check(got verdict) error {
	if got != v {
		return fmt.Errorf("verdict %+v, want %+v", got, v)
	}
	return nil
}

// localWorkload verifies one registered program in-process through
// verify.Run.
type localWorkload struct {
	program string           // workloads registry name
	params  workloads.Params // its parameters
	cfg     verify.Config    // the verification every operation runs
	// warmup caps the set-up round's warm-up verify.Run; 0 warms up with a
	// native run instead.
	warmup int
	// nativeReps is how many native runs each operation times.
	nativeReps int
	want       verdict
}

func (w *localWorkload) build() (func(*mpi.Proc) error, error) {
	wl, err := workloads.Get(w.program)
	if err != nil {
		return nil, err
	}
	return wl.Program(w.params), nil
}

// warm is one set-up round: it builds the program and warms the runtime up.
func (w *localWorkload) warm(t *tally) (func(*mpi.Proc) error, error) {
	prog, err := w.build()
	if err != nil {
		return nil, err
	}
	if w.warmup == 0 {
		_, err := native(w.params.Procs, prog)
		t.check("warm-up native run", err)
		return prog, nil
	}
	cfg := w.cfg
	cfg.MaxInterleavings = w.warmup
	res, err := verify.Run(cfg, prog)
	if err == nil && (res.Interleavings != w.warmup || res.Errored() || res.Deadlocks > 0) {
		err = fmt.Errorf("warm-up: %s, want %d clean interleavings", res.Summary(), w.warmup)
	}
	t.check("warm-up verify.Run", err)
	return prog, nil
}

// native times one uninstrumented run of prog.
func native(procs int, prog func(*mpi.Proc) error) (float64, error) {
	start := time.Now()
	err := mpi.NewWorld(mpi.Config{Procs: procs}).Run(prog)
	return seconds(time.Since(start)), err
}

// natives times nativeReps native runs, checking each returns nil.
func (w *localWorkload) natives(prog func(*mpi.Proc) error, t *tally) []float64 {
	var out []float64
	for i := 0; i < w.nativeReps; i++ {
		d, err := native(w.params.Procs, prog)
		if t.check("native run", err) {
			out = append(out, d)
		}
	}
	return out
}

// setUp runs the set-up rounds and returns the program.
func (w *localWorkload) setUp(m *measurement) (func(*mpi.Proc) error, error) {
	var prog func(*mpi.Proc) error
	for i := 0; i < setupRounds; i++ {
		start := time.Now()
		var err error
		if prog, err = w.warm(&m.tally); err != nil {
			return nil, err
		}
		m.setup = append(m.setup, seconds(time.Since(start)))
	}
	return prog, nil
}

func (w *localWorkload) measure(o options) (*measurement, error) {
	m := &measurement{}
	prog, err := w.setUp(m)
	if err != nil {
		return nil, err
	}
	var natives []float64
	deadline := time.Now().Add(o.duration)
	for ops := 0; ops == 0 || time.Now().Before(deadline); ops++ {
		runtime.GC()
		natives = append(natives, w.natives(prog, &m.tally)...)
		d, explored, ok := w.verifyOnce(prog, &m.tally)
		if !ok {
			continue
		}
		m.latencies = append(m.latencies, d)
		m.explore = append(m.explore, d)
		m.interleavings += explored
	}
	m.wall = sum(m.latencies)
	m.native = median(natives)
	m.nativeWork = float64(m.interleavings) * m.native
	return m, nil
}

// verifyOnce times one verify.Run, started on a collected heap so that
// garbage an earlier phase left is not collected on its time, and checks
// the verdict. It returns the seconds taken and the interleavings explored.
func (w *localWorkload) verifyOnce(prog func(*mpi.Proc) error, t *tally) (float64, int, bool) {
	runtime.GC()
	start := time.Now()
	res, err := verify.Run(w.cfg, prog)
	d := seconds(time.Since(start))
	if err == nil {
		err = w.want.check(verdictOf(res.Report, res.Leaks))
	}
	if !t.check("verify.Run", err) {
		return d, 0, false
	}
	return d, res.Interleavings, true
}

func seconds(d time.Duration) float64 { return d.Seconds() }
