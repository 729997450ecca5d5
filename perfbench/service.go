package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"math/rand/v2"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"sync/atomic"
	"time"

	"dampi/internal/core"
	"dampi/internal/dcoord"
	"dampi/internal/jobqueue"
	"dampi/mpi"
	"dampi/verify"
	"dampi/workloads"
)

// pollEvery is how often the client asks for a submitted job's report.
const pollEvery = time.Millisecond

// jobCase is one job the service client submits, with the interleaving
// count a correct verifier reports for it.
type jobCase struct {
	spec verify.JobSpec
	want int
}

// serviceWorkload is a closed loop of one client against the verification
// service (verify.ServeQueue with an on-disk store) and one in-process
// worker (verify.JoinQueue) on loopback. Its jobs are so small that the
// job queue's fsynced WAL, the job state changes and the cluster's frame
// round trips dominate submit→report, not the replays.
type serviceWorkload struct {
	cases []jobCase
	// minJobs is the fewest jobs a run measures, so that at least ten
	// latency samples lie beyond p90.
	minJobs int
}

func serviceSmallJobs(toy bool) *serviceWorkload {
	job := func(name string, procs, k, want int) jobCase {
		spec := verify.JobSpec{Workload: name, Procs: procs, MixingBound: k}
		spec.Normalize()
		return jobCase{spec, want}
	}
	w := &serviceWorkload{
		cases: []jobCase{
			job("matmul", 4, verify.Unbounded, 162),
			job("matmul", 4, 1, 42),
			job("matmul", 5, 1, 156),
			job("fanin", 4, verify.Unbounded, 2),
			job("LU", 4, verify.Unbounded, 1),
		},
		minJobs: 100,
	}
	if toy {
		w.minJobs = 5
	}
	return w
}

// reference is a case's program and its answer, computed locally in set-up.
type reference struct {
	prog func(*mpi.Proc) error
	want verdict
}

func programFor(spec verify.JobSpec) (func(*mpi.Proc) error, error) {
	wl, err := workloads.Get(spec.Workload)
	if err != nil {
		return nil, err
	}
	return wl.Program(workloads.Params{Procs: spec.Procs, Scale: spec.Scale, Iters: spec.Iters}), nil
}

// service is a running verification service with one worker joined.
type service struct {
	srv        *verify.QueueServer
	h          http.Handler
	dir        string
	stopWorker func()
	lost       atomic.Int64 // "worker lost" events: each requeues the worker's leases
}

// joinFunc joins a worker to the service's worker address and returns a
// function that stops it and waits for it to exit.
type joinFunc func(addr string, slots int) (func(), error)

// joinQueue joins the worker the untraced runs use.
func joinQueue(addr string, slots int) (func(), error) {
	w, err := verify.JoinQueue(verify.ClusterConfig{Addr: addr, Slots: slots, WorkerName: "perfbench"}, programFor)
	if err != nil {
		return nil, err
	}
	return runWorker(w.Run, w.Stop), nil
}

// runWorker starts run in the background; the returned function stops it
// and waits for run to return.
func runWorker(run func() error, stop func()) func() {
	done := make(chan struct{})
	go func() {
		defer close(done)
		if err := run(); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench: worker:", err)
		}
	}()
	return func() {
		stop()
		<-done
	}
}

// startService starts a service on a fresh store under o.outDir and joins
// a worker with one slot per CPU.
func startService(o options, join joinFunc) (*service, error) {
	dir, err := os.MkdirTemp(o.outDir, "store-")
	if err != nil {
		return nil, err
	}
	s := &service{dir: dir}
	s.srv, err = verify.ServeQueue(verify.QueueConfig{
		WorkerAddr: "127.0.0.1:0",
		StoreDir:   dir,
		OnEvent: func(line string) {
			if strings.HasPrefix(line, "worker ") && strings.HasSuffix(line, " lost") {
				s.lost.Add(1)
			}
		},
	})
	if err != nil {
		os.RemoveAll(dir)
		return nil, err
	}
	s.h = s.srv.Handler()
	slots := runtime.NumCPU()
	if s.stopWorker, err = join(s.srv.WorkerAddr().String(), slots); err != nil {
		s.stop()
		return nil, err
	}
	for deadline := time.Now().Add(10 * time.Second); ; time.Sleep(pollEvery) {
		var st struct {
			TotalSlots int `json:"total_slots"`
		}
		if err := json.Unmarshal(s.do("GET", "/status", nil).Body.Bytes(), &st); err == nil && st.TotalSlots >= slots {
			return s, nil
		}
		if time.Now().After(deadline) {
			s.stop()
			return nil, fmt.Errorf("worker did not join the service within 10s")
		}
	}
}

// stop stops the worker, then the service, and removes the store.
func (s *service) stop() {
	if s.stopWorker != nil {
		s.stopWorker()
	}
	s.srv.Stop()
	os.RemoveAll(s.dir)
}

// do serves one request through the service's REST handler.
func (s *service) do(method, path string, body []byte) *httptest.ResponseRecorder {
	rec := httptest.NewRecorder()
	s.h.ServeHTTP(rec, httptest.NewRequest(method, path, bytes.NewReader(body)))
	return rec
}

// job submits spec with POST /jobs and polls GET /jobs/{id}/report until
// the report is there. onPoll, if set, runs after each poll that found no
// report. It returns the report, the job id and the submit→report seconds.
func (s *service) job(spec verify.JobSpec, onPoll func()) (*verify.JobReport, string, float64, error) {
	body, err := json.Marshal(spec)
	if err != nil {
		return nil, "", 0, err
	}
	start := time.Now()
	rec := s.do("POST", "/jobs", body)
	if rec.Code != http.StatusCreated {
		return nil, "", 0, fmt.Errorf("POST /jobs: %d %s", rec.Code, rec.Body.String())
	}
	var sub struct {
		Job verify.Job `json:"job"`
	}
	if err := json.Unmarshal(rec.Body.Bytes(), &sub); err != nil {
		return nil, "", 0, err
	}
	id := sub.Job.ID
	for deadline := start.Add(time.Minute); time.Now().Before(deadline); time.Sleep(pollEvery) {
		rec := s.do("GET", "/jobs/"+id+"/report", nil)
		switch {
		case rec.Code == http.StatusOK:
			lat := seconds(time.Since(start))
			var rep verify.JobReport
			if err := json.Unmarshal(rec.Body.Bytes(), &rep); err != nil {
				return nil, id, 0, err
			}
			return &rep, id, lat, nil
		case rec.Code == http.StatusConflict && !strings.Contains(rec.Body.String(), " is failed"):
			if onPoll != nil {
				onPoll()
			}
		default:
			return nil, id, 0, fmt.Errorf("GET /jobs/%s/report: %d %s", id, rec.Code, rec.Body.String())
		}
	}
	return nil, id, 0, fmt.Errorf("job %s: no report within a minute", id)
}

// notDone returns the jobs among ids that are not done, with their state,
// once every job is done or ten seconds have passed. A report is readable
// while its job is still merging, so the last job may need a moment.
func (s *service) notDone(ids []string) map[string]jobqueue.State {
	for deadline := time.Now().Add(10 * time.Second); ; time.Sleep(pollEvery) {
		var jobs []verify.Job
		if err := json.Unmarshal(s.do("GET", "/jobs", nil).Body.Bytes(), &jobs); err != nil {
			return map[string]jobqueue.State{"(all)": jobqueue.State("unreadable: " + err.Error())}
		}
		state := make(map[string]jobqueue.State, len(jobs))
		for _, j := range jobs {
			state[j.ID] = j.State
		}
		out := map[string]jobqueue.State{}
		for _, id := range ids {
			if state[id] != jobqueue.Done {
				out[id] = state[id]
			}
		}
		if len(out) == 0 || time.Now().After(deadline) {
			return out
		}
	}
}

// jobVerdict is the checked part of a job report.
func jobVerdict(rep *verify.JobReport) verdict {
	return verdict{
		Interleavings: rep.Interleavings,
		Errors:        len(rep.Errors),
		Deadlocks:     rep.Deadlocks,
		Wildcards:     rep.WildcardsAnalyzed,
		Capped:        rep.Capped,
	}
}

// jobOrder returns the seeded job sequence: rounds that each submit every
// case once, in a seeded order. Balanced rounds keep the job mix, and so
// the work per job, the same on every seed. No case follows itself, the
// sequence's first job included (after is the case submitted just before
// it): a job's report is readable while the job is still merging, and the
// service answers a submission that matches an active job with that job,
// so a back-to-back repeat would not be a fresh verification.
func jobOrder(seed uint64, n, after int) func() int {
	rng := rand.New(rand.NewPCG(seed, 0))
	var round []int
	last := after
	return func() int {
		if len(round) == 0 {
			round = rng.Perm(n)
			if round[0] == last && n > 1 {
				round[0], round[n-1] = round[n-1], round[0]
			}
		}
		last, round = round[0], round[1:]
		return last
	}
}

// setUp is one set-up round: start the service and join a worker, compute
// each case's reference answer locally, and warm up with one job per case.
func (w *serviceWorkload) setUp(o options, t *tally, join joinFunc) (*service, []reference, error) {
	s, err := startService(o, join)
	if err != nil {
		return nil, nil, err
	}
	refs := make([]reference, len(w.cases))
	for i, c := range w.cases {
		prog, err := programFor(c.spec)
		if err != nil {
			s.stop()
			return nil, nil, err
		}
		res, err := verify.Run(verify.Config{Procs: c.spec.Procs, MixingBound: c.spec.MixingBound}, prog)
		if err == nil {
			refs[i].want = verdictOf(res.Report, nil)
			if res.Interleavings != c.want || res.Errored() || res.Deadlocks > 0 {
				err = fmt.Errorf("%s: %s, want %d clean interleavings", c.spec.Workload, res.Summary(), c.want)
			}
		}
		t.check("reference verify.Run", err)
		refs[i].prog = prog
	}
	for i, c := range w.cases {
		rep, _, _, err := s.job(c.spec, nil)
		if err == nil {
			err = refs[i].want.check(jobVerdict(rep))
		}
		t.check("warm-up job", err)
	}
	return s, refs, nil
}

// setUpRounds runs the set-up rounds, keeping the last round's service.
func (w *serviceWorkload) setUpRounds(o options, m *measurement, join joinFunc) (*service, []reference, error) {
	var s *service
	var refs []reference
	for i := 0; i < setupRounds; i++ {
		if s != nil {
			s.stop()
		}
		start := time.Now()
		var err error
		if s, refs, err = w.setUp(o, &m.tally, join); err != nil {
			return nil, nil, err
		}
		m.setup = append(m.setup, seconds(time.Since(start)))
	}
	return s, refs, nil
}

// loop runs the client: jobs in the seeded order until the deadline has
// passed and at least minJobs finished. Each job's report must match the
// local reference. Between jobs, outside the timed span, the client times
// one native run of the job's program. observe, if set, brackets each job.
func (w *serviceWorkload) loop(s *service, refs []reference, next func() int, m *measurement, minJobs int, deadline time.Time, observe func(submit func(onPoll func()) (string, error))) {
	natives := make([][]float64, len(refs))
	explored := make([]int, len(refs))
	var ids []string // jobs whose report checked out; each must end done
	start := time.Now()
	lost := s.lost.Load()
	for n := 0; n < minJobs || time.Now().Before(deadline); n++ {
		i := next()
		submit := func(onPoll func()) (string, error) {
			rep, id, lat, err := s.job(w.cases[i].spec, onPoll)
			if err == nil {
				err = refs[i].want.check(jobVerdict(rep))
			}
			if !m.check("job "+id, err) {
				return id, err
			}
			m.latencies = append(m.latencies, lat)
			m.explore = append(m.explore, rep.ElapsedSec)
			explored[i] += rep.Interleavings
			ids = append(ids, id)
			return id, nil
		}
		if observe != nil {
			observe(submit)
		} else {
			submit(nil)
		}
		d, err := native(w.cases[i].spec.Procs, refs[i].prog)
		if m.check("native run", err) {
			natives[i] = append(natives[i], d)
		}
	}
	m.wall = seconds(time.Since(start))
	if n := s.lost.Load() - lost; n > 0 {
		m.check("worker connection", fmt.Errorf("%d worker connection(s) lost during the loop; their leases were requeued", n))
	}
	for id, state := range s.notDone(ids) {
		m.failures = append(m.failures, fmt.Sprintf("job %s: state %s after its report, want done", id, state))
	}
	for i := range refs {
		nat := median(natives[i])
		m.native += nat / float64(len(refs))
		m.interleavings += explored[i]
		m.nativeWork += float64(explored[i]) * nat
	}
}

func (w *serviceWorkload) measure(o options) (*measurement, error) {
	m := &measurement{}
	s, refs, err := w.setUpRounds(o, m, joinQueue)
	if err != nil {
		return nil, err
	}
	defer s.stop()
	w.loop(s, refs, jobOrder(o.seed, len(w.cases), len(w.cases)-1), m, w.minJobs, time.Now().Add(o.duration), nil)
	return m, nil
}

// layers is the service's traced run: an untraced loop for the baseline,
// then as many jobs again through tracedLoop, then the per-layer probes on
// the largest job's program.
func (w *serviceWorkload) layers(o options) (*outcome, error) {
	base := &measurement{}
	s, refs, err := w.setUpRounds(o, base, joinQueue)
	if err != nil {
		return nil, err
	}
	w.loop(s, refs, jobOrder(o.seed, len(w.cases), len(w.cases)-1), base, w.minJobs/2, time.Now().Add(o.duration/2), nil)
	s.stop()

	out := &outcome{tally: base.tally}
	tr := newTracer()
	counts := &replayCounts{}
	vals := map[string]float64{}
	traced, err := w.tracedLoop(o, tr, len(base.latencies), &out.tally, counts, vals)
	if err != nil {
		return nil, err
	}
	replayMetrics(tr.tree().durs("core.replay", time.Microsecond), counts, vals)
	vals["trace.overhead_s"] = median(traced) - median(base.latencies)
	// A job span's only children are its replays; what they leave
	// uncovered is the service's own share.
	vals["trace.unaccounted_s"] = vals["dcoord.job_overhead_s"]

	prog, err := programFor(w.cases[0].spec)
	if err != nil {
		return nil, err
	}
	cfg := w.cases[0].spec.ExplorerConfig()
	cfg.Program = prog
	tg := probeTarget{explorer: cfg, reps: 3, replays: 500}
	engineProbe(tg, tr, &out.tally, 0, vals)
	engineProbe(tg, tr, &out.tally, runtime.NumCPU(), vals)
	if err := probes(o, tg, tr, &out.tally, vals); err != nil {
		return nil, err
	}
	if out.metrics, err = layerMetrics(vals); err != nil {
		return nil, err
	}
	out.spans, err = writeSpans(o, tr)
	return out, err
}

// probeJobs is how many jobs a local workload's traced run sends through
// the service to measure the dcoord and jobqueue layers.
const probeJobs = 10

// tracedLoop sends jobs jobs in the seeded order through a fresh service
// whose worker sits behind a counting relay and replays through a traced
// Runner, adds the dcoord and jobqueue per-job metrics to vals, and returns
// the jobs' submit→report latencies. Each job is a "service.job" span whose
// only children are its replays.
func (w *serviceWorkload) tracedLoop(o options, tr *tracer, jobs int, t *tally, counts *replayCounts, vals map[string]float64) ([]float64, error) {
	var job atomic.Int64 // the span of the job in flight
	var rel *relay
	tracedJoin := func(addr string, slots int) (func(), error) {
		var err error
		if rel, err = startRelay(addr); err != nil {
			return nil, err
		}
		wk := dcoord.NewWorker(dcoord.WorkerConfig{
			Addr:  rel.addr(),
			Name:  "perfbench-traced",
			Slots: slots,
			Factory: func(spec dcoord.JobSpec) (core.ExplorerConfig, error) {
				prog, err := programFor(spec)
				if err != nil {
					return core.ExplorerConfig{}, err
				}
				r := &tracedRunner{tr: tr, parent: job.Load, counts: counts}
				cfg := spec.ExplorerConfig()
				cfg.Program, cfg.Runner = prog, r.run
				return cfg, nil
			},
		})
		stop := runWorker(wk.Run, wk.Stop)
		return func() {
			stop()
			rel.stop()
		}, nil
	}
	m := &measurement{}
	defer t.add(&m.tally)
	s, refs, err := w.setUp(o, &m.tally, tracedJoin)
	if err != nil {
		return nil, err
	}
	defer s.stop()
	var frames, byts, walRecords []float64
	requeues := 0
	w.loop(s, refs, jobOrder(o.seed, len(w.cases), len(w.cases)-1), m, jobs, time.Time{}, func(submit func(func()) (string, error)) {
		f0, b0 := rel.frames.Load(), rel.bytes.Load()
		sp := tr.start("service.job", 0)
		job.Store(sp.s.ID)
		scraped := false
		id, err := submit(func() {
			if !scraped {
				scraped = true
				requeues += metricValue(s.do("GET", "/metrics", nil).Body.String(), "dampi_requeues_total")
			}
		})
		sp.end()
		if err != nil {
			return
		}
		frames = append(frames, float64(rel.frames.Load()-f0))
		byts = append(byts, float64(rel.bytes.Load()-b0))
		walRecords = append(walRecords, float64(walLines(s.dir, id)))
	})
	vals["dcoord.frames_per_job"] = median(frames)
	vals["dcoord.bytes_per_job"] = median(byts)
	vals["dcoord.job_overhead_s"] = median(tr.tree().selfs("service.job", time.Second))
	vals["dcoord.requeues"] = float64(requeues)
	vals["jobqueue.wal_records_per_job"] = median(walRecords)
	return m.latencies, nil
}

// metricValue reads an unlabelled sample from Prometheus text (0 when
// absent: the exploration gauges appear only while a job runs).
func metricValue(text, name string) int {
	for _, line := range strings.Split(text, "\n") {
		if v, ok := strings.CutPrefix(line, name+" "); ok {
			n, _ := strconv.Atoi(strings.TrimSpace(v))
			return n
		}
	}
	return 0
}

// walLines counts the job store's WAL records that name job id. A snapshot
// truncates the WAL, so a job that straddles one shows fewer; the median
// over jobs is unaffected.
func walLines(dir, id string) int {
	f, err := os.Open(filepath.Join(dir, "wal.jsonl"))
	if err != nil {
		return 0
	}
	defer f.Close()
	n := 0
	quoted := strconv.Quote(id)
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 0, 64<<10), 16<<20)
	for sc.Scan() {
		if strings.Contains(sc.Text(), quoted) {
			n++
		}
	}
	return n
}
