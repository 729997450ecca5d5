package dcoord

import (
	"fmt"
	"strings"
	"sync"
	"testing"
	"time"

	"dampi/internal/core"
	"dampi/internal/core/coretest"
)

// testFactory builds a JobSpec factory over the local test programs, with one
// shared coretest.MemoRunner per workload so the serial and distributed explorations
// see identical program behavior (same trick as the cluster tests).
type testFactory struct {
	mu    sync.Mutex
	memos map[string]*coretest.MemoRunner
}

func newTestFactory() *testFactory { return &testFactory{memos: make(map[string]*coretest.MemoRunner)} }

func (f *testFactory) memo(workload string) *coretest.MemoRunner {
	f.mu.Lock()
	defer f.mu.Unlock()
	m, ok := f.memos[workload]
	if !ok {
		m = coretest.NewMemoRunner()
		f.memos[workload] = m
	}
	return m
}

// config resolves a spec into a full ExplorerConfig; both the serial baseline
// and the worker factory go through it so the two cannot drift.
func (f *testFactory) config(spec JobSpec) (core.ExplorerConfig, error) {
	cfg := spec.ExplorerConfig()
	switch spec.Workload {
	case "fanin":
		cfg.Program = fanInError
	default:
		return core.ExplorerConfig{}, fmt.Errorf("unknown test workload %q", spec.Workload)
	}
	cfg.Runner = f.memo(spec.Workload).Run
	return cfg, nil
}

// startServer brings up a persistent Server on an ephemeral localhost port.
func startServer(t *testing.T, cfg ServerConfig) (*Server, string) {
	t.Helper()
	if cfg.LeaseTTL == 0 {
		cfg.LeaseTTL = 2 * time.Second
	}
	s := NewServer(cfg)
	ln, err := s.ListenAndServe("127.0.0.1:0")
	if err != nil {
		t.Fatalf("listen: %v", err)
	}
	return s, ln.Addr().String()
}

// joinAnyWorkers connects n any-workload workers and returns a stop func that
// waits for their Run loops to exit.
func joinAnyWorkers(t *testing.T, addr string, f *testFactory, n, slots int) func() {
	t.Helper()
	var wg sync.WaitGroup
	workers := make([]*Worker, n)
	for i := 0; i < n; i++ {
		w := NewWorker(WorkerConfig{
			Addr:    addr,
			Name:    fmt.Sprintf("any%d", i),
			Slots:   slots,
			Factory: f.config,
		})
		workers[i] = w
		wg.Add(1)
		go func() {
			defer wg.Done()
			if err := w.Run(); err != nil {
				t.Errorf("worker: %v", err)
			}
		}()
	}
	return func() {
		for _, w := range workers {
			w.Stop()
		}
		wg.Wait()
	}
}

// waitForPool blocks until the server has n pooled workers.
func waitForPool(t *testing.T, s *Server, n int) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) {
		if len(s.Workers()) >= n {
			return
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Fatalf("pool never reached %d workers: %+v", n, s.Workers())
}

// runJob runs one job with a hang guard.
func runJob(t *testing.T, s *Server, spec JobSpec, jcfg JobConfig) (*core.Report, error) {
	t.Helper()
	type out struct {
		rep *core.Report
		err error
	}
	ch := make(chan out, 1)
	go func() {
		rep, err := s.RunJob(spec, jcfg)
		ch <- out{rep, err}
	}()
	select {
	case o := <-ch:
		return o.rep, o.err
	case <-time.After(60 * time.Second):
		t.Fatalf("job %s did not finish", jcfg.ID)
		return nil, nil
	}
}

// TestServerRunsSequentialJobs is the heart of verification-as-a-service:
// one pool of any-workload workers serves two different explorations back to
// back, connections surviving the job boundary, and each merged report
// matches its serial baseline.
func TestServerRunsSequentialJobs(t *testing.T) {
	f := newTestFactory()
	s, addr := startServer(t, ServerConfig{})
	defer s.Close(false)
	stop := joinAnyWorkers(t, addr, f, 2, 2)
	defer stop()
	waitForPool(t, s, 2)

	specs := []JobSpec{
		{Workload: "fanin", Procs: 3, Clock: core.Lamport, Transport: core.Separate, MixingBound: 1},
		{Workload: "fanin", Procs: 4, Clock: core.Lamport, Transport: core.Separate, MixingBound: 1},
	}
	for i, spec := range specs {
		id := fmt.Sprintf("job%d", i)
		rep, err := runJob(t, s, spec, JobConfig{ID: id})
		if err != nil {
			t.Fatalf("%s: %v", id, err)
		}
		cfg, err := f.config(spec)
		if err != nil {
			t.Fatal(err)
		}
		cfg.Procs = spec.Procs // ExplorerConfig projected the spec already; be explicit
		checkSameReport(t, id, runSerial(t, cfg), rep)
	}
	if got := len(s.Workers()); got != 2 {
		t.Errorf("pool shrank to %d workers across the job boundary, want 2", got)
	}
}

// TestServerSkipsIneligiblePinnedWorker: a pinned worker whose fingerprint
// does not match the job must never be dispatched to — if the server leaked a
// task to it, the worker would answer Fatal and the job would fail.
func TestServerSkipsIneligiblePinnedWorker(t *testing.T) {
	f := newTestFactory()
	s, addr := startServer(t, ServerConfig{})
	defer s.Close(false)

	// A worker pinned to a 5-proc fanin exploration: wrong procs for the job.
	pinnedCfg := core.ExplorerConfig{Procs: 5, Clock: core.Lamport, Transport: core.Separate, MixingBound: 1, Program: fanInError}
	pinnedSpec := specFor("fanin", pinnedCfg)
	pinned := NewWorker(WorkerConfig{
		Addr:        addr,
		Name:        "pinned",
		Fingerprint: pinnedSpec.Fingerprint(),
		Explorer:    pinnedCfg,
	})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		if err := pinned.Run(); err != nil {
			t.Errorf("pinned worker: %v", err)
		}
	}()
	defer func() { pinned.Stop(); wg.Wait() }()
	stop := joinAnyWorkers(t, addr, f, 1, 2)
	defer stop()
	waitForPool(t, s, 2)

	spec := JobSpec{Workload: "fanin", Procs: 3, Clock: core.Lamport, Transport: core.Separate, MixingBound: 1}
	rep, err := runJob(t, s, spec, JobConfig{ID: "onlyany"})
	if err != nil {
		t.Fatalf("job with one eligible worker failed: %v", err)
	}
	cfg, err := f.config(spec)
	if err != nil {
		t.Fatal(err)
	}
	checkSameReport(t, "onlyany", runSerial(t, cfg), rep)
}

// TestServerFactoryFailureFailsJob: a worker that cannot build the announced
// spec answers Fatal, and the job fails loudly instead of hanging or burning
// the redelivery cap.
func TestServerFactoryFailureFailsJob(t *testing.T) {
	f := newTestFactory()
	s, addr := startServer(t, ServerConfig{})
	defer s.Close(false)
	stop := joinAnyWorkers(t, addr, f, 1, 1)
	defer stop()
	waitForPool(t, s, 1)

	spec := JobSpec{Workload: "no-such-workload", Procs: 3, Clock: core.Lamport, Transport: core.Separate, MixingBound: 1}
	_, err := runJob(t, s, spec, JobConfig{ID: "bad"})
	if err == nil {
		t.Fatal("job with unbuildable spec succeeded")
	}
	if !strings.Contains(err.Error(), "cannot build") {
		t.Errorf("error %q does not surface the factory failure", err)
	}
}

// TestServerRejectsConcurrentJobs: jobs run one at a time; a second RunJob
// while one is active is refused, not interleaved.
func TestServerRejectsConcurrentJobs(t *testing.T) {
	s := NewServer(ServerConfig{})
	s.mu.Lock()
	s.cur = &Coordinator{job: JobConfig{ID: "busy"}} // simulate an active job without running one
	s.mu.Unlock()
	spec := JobSpec{Workload: "fanin", Procs: 3, Clock: core.Lamport, Transport: core.Separate, MixingBound: 1}
	if _, err := s.RunJob(spec, JobConfig{ID: "second"}); err == nil || !strings.Contains(err.Error(), "still running") {
		t.Errorf("concurrent RunJob error = %v, want 'still running'", err)
	}
}

// TestPoolWorkerEligible covers the dispatch filter: any-workload workers
// match everything; pinned workers match only their fingerprint, with 0
// scale/iters acting as wildcards.
func TestPoolWorkerEligible(t *testing.T) {
	spec := JobSpec{Workload: "fanin", Procs: 3, Clock: core.Lamport, Transport: core.Separate, MixingBound: 1, Scale: 50, Iters: 2}
	fp := spec.Fingerprint()
	cases := []struct {
		name string
		pw   poolWorker
		want bool
	}{
		{"any", poolWorker{any: true}, true},
		{"pinned-match", poolWorker{fp: fp, scale: 50, iters: 2}, true},
		{"pinned-wildcard-params", poolWorker{fp: fp}, true},
		{"pinned-wrong-workload", poolWorker{fp: Fingerprint{Workload: "other", Procs: 3, Clock: core.Lamport, Transport: core.Separate, MixingBound: 1}}, false},
		{"pinned-wrong-scale", poolWorker{fp: fp, scale: 100}, false},
		{"pinned-wrong-iters", poolWorker{fp: fp, iters: 4}, false},
	}
	for _, tc := range cases {
		if got := tc.pw.eligible(&spec) == nil; got != tc.want {
			t.Errorf("%s: eligible = %v, want %v", tc.name, got, tc.want)
		}
	}
}

// TestServeJobRejectsIneligiblePinnedWorker: a one-job server refuses, at
// hello, a pinned worker whose program was built with other workload
// parameters, naming the field; it does not pool the worker idle. Before the
// one-job server checked them, such a worker replayed a different program
// into the report.
func TestServeJobRejectsIneligiblePinnedWorker(t *testing.T) {
	spec := JobSpec{Workload: "fanin", Procs: 3, Clock: core.Lamport, Transport: core.Separate, MixingBound: 1, Scale: 50, Iters: 2}
	c, addr := startCoordinator(t, spec, ServerConfig{LeaseTTL: time.Second}, JobConfig{})
	defer c.Stop()
	cfg := spec.ExplorerConfig()
	cfg.Program = fanInError
	for _, tc := range []struct {
		field        string
		scale, iters int
	}{
		{"scale", 100, 2},
		{"iters", 50, 6},
	} {
		w := NewWorker(WorkerConfig{
			Addr:        addr,
			Name:        "mismatched-" + tc.field,
			Fingerprint: spec.Fingerprint(),
			Explorer:    cfg,
			Scale:       tc.scale,
			Iters:       tc.iters,
		})
		done := make(chan error, 1)
		go func() { done <- w.Run() }()
		select {
		case err := <-done:
			if err == nil || !strings.Contains(err.Error(), tc.field+" mismatch") {
				t.Errorf("%s: worker Run = %v, want a %s mismatch rejection", tc.field, err, tc.field)
			}
		case <-time.After(10 * time.Second):
			t.Fatalf("%s: rejected worker kept retrying instead of exiting", tc.field)
		}
	}
	if pool := c.srv.Workers(); len(pool) != 0 {
		t.Errorf("rejected workers were pooled: %+v", pool)
	}
	if st := c.Status(); st.State != "exploring" || st.Interleavings != 0 {
		t.Errorf("job touched by rejected workers: %+v", st)
	}
}

// TestServeJobMixesPinnedAndAnyWorkers: one pinned worker and one
// any-workload worker (which builds its program from the announced spec)
// serve the same one-job server, and the merged report matches the serial
// run.
func TestServeJobMixesPinnedAndAnyWorkers(t *testing.T) {
	f := newTestFactory()
	spec := JobSpec{Workload: "fanin", Procs: 4, Clock: core.Lamport, Transport: core.Separate, MixingBound: core.Unbounded}
	cfg, err := f.config(spec)
	if err != nil {
		t.Fatal(err)
	}
	serial := runSerial(t, cfg)

	// One lease per worker, and no replay before both workers are pooled:
	// the root's children then go one to each worker, so both serve the job.
	c, addr := startCoordinator(t, spec, ServerConfig{LeaseTTL: 2 * time.Second, LeaseBatch: -1}, JobConfig{})
	bothJoined := func() {
		for deadline := time.Now().Add(10 * time.Second); len(c.srv.Workers()) < 2 && time.Now().Before(deadline); {
			time.Sleep(5 * time.Millisecond)
		}
	}
	gated := func(cfg core.ExplorerConfig) core.ExplorerConfig {
		inner := cfg.Runner
		cfg.Runner = func(ec *core.ExplorerConfig, d *core.Decisions) (*core.RunTrace, *core.InterleavingResult, error) {
			bothJoined()
			return inner(ec, d)
		}
		return cfg
	}
	workers := []*Worker{
		NewWorker(WorkerConfig{Addr: addr, Name: "any", Factory: func(spec JobSpec) (core.ExplorerConfig, error) {
			cfg, err := f.config(spec)
			return gated(cfg), err
		}}),
		NewWorker(WorkerConfig{Addr: addr, Name: "pinned", Fingerprint: spec.Fingerprint(), Explorer: gated(cfg)}),
	}
	var wg sync.WaitGroup
	for _, w := range workers {
		w := w
		wg.Add(1)
		go func() {
			defer wg.Done()
			if err := w.Run(); err != nil {
				t.Errorf("worker: %v", err)
			}
		}()
	}
	rep, err := waitFor(t, c)
	if err != nil {
		t.Fatalf("cluster explore: %v", err)
	}
	wg.Wait()
	checkSameReport(t, "pinned+any", serial, rep)
	st := c.Status()
	if len(st.Workers) != 2 {
		t.Fatalf("workers = %+v, want the pinned and the any-workload worker", st.Workers)
	}
	for _, ws := range st.Workers {
		if ws.Completed == 0 {
			t.Errorf("worker %s merged no results: %+v", ws.Name, st.Workers)
		}
	}
}
