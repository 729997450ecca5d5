package dcoord

import (
	"errors"
	"fmt"
	"net"
	"sync"
	"time"

	"dampi/internal/core"
	"dampi/internal/dexplore"
)

// lease is one outstanding task assignment.
type lease struct {
	id      uint64
	task    *core.SubtreeTask
	key     string
	conn    *workerConn
	granted time.Time
	expires time.Time
}

// workerConn is one connected worker session.
type workerConn struct {
	conn  net.Conn
	name  string
	slots int
	since time.Time

	wmu sync.Mutex // serializes frame writes (results race heartbeats)

	// guarded by Coordinator.mu
	active    int // leases currently held
	completed int // results merged from this session
	gone      bool
}

// send writes one frame under the connection's write lock with a deadline,
// so a stalled worker cannot wedge the coordinator.
func (w *workerConn) send(fr *frame) error {
	w.wmu.Lock()
	defer w.wmu.Unlock()
	_ = w.conn.SetWriteDeadline(time.Now().Add(10 * time.Second))
	return writeFrame(w.conn, fr)
}

// Coordinator is one exploration running on a Server: it leases subtree
// tasks to the workers the server attaches, merges their results, and
// finishes when the frontier and all leases drain. It owns no connections;
// the server routes every frame.
type Coordinator struct {
	srv  *Server
	spec JobSpec
	job  JobConfig
	ecfg core.ExplorerConfig // the spec's exploration parameters

	mu          sync.Mutex
	workers     map[*workerConn]struct{}
	frontier    []*core.SubtreeTask // LIFO stack of pending tasks
	leases      map[uint64]*lease
	nextLease   uint64
	done        map[string]bool // completed task keys (dedup after requeue)
	redelivered map[string]int  // requeue count per task key
	requeues    int             // total lease requeues
	tally       core.Tally
	report      *core.Report // set by finalize
	rootDone    bool
	stopped     bool // drain: no new leases (Stop or StopOnFirstError)
	noFinalCkp  bool // Abort: crash semantics, skip the final checkpoint
	finished    bool
	runErr      error
	sinceCkp    int
	start       time.Time
	rate        *dexplore.RateTracker
	doneCh      chan struct{}
	janitorStop chan struct{}
	monitorStop chan struct{}
	monitorWG   sync.WaitGroup
}

// newCoordinator creates the coordinator of one job on s. It validates
// job.Resume against the spec and seeds either the checkpointed frontier or
// the root self-discovery task.
func newCoordinator(s *Server, spec JobSpec, job JobConfig) (*Coordinator, error) {
	c := &Coordinator{
		srv:         s,
		spec:        spec,
		job:         job,
		ecfg:        spec.ExplorerConfig(),
		workers:     make(map[*workerConn]struct{}),
		leases:      make(map[uint64]*lease),
		done:        make(map[string]bool),
		redelivered: make(map[string]int),
		rate:        dexplore.NewRateTracker(dexplore.RateWindow),
		doneCh:      make(chan struct{}),
		janitorStop: make(chan struct{}),
		monitorStop: make(chan struct{}),
		start:       time.Now(),
	}
	c.ecfg.MaxInterleavings = spec.MaxInterleavings
	if ckp := job.Resume; ckp != nil {
		if err := c.seedFromCheckpoint(ckp); err != nil {
			return nil, err
		}
	} else {
		c.frontier = append(c.frontier, core.RootTask(&c.ecfg))
	}
	return c, nil
}

// seedFromCheckpoint validates the checkpoint and restores its tally and
// frontier. The frontier may still contain the root task (a drain before the
// root completed); rootDone is derived from whether a self-discovery task
// remains.
func (c *Coordinator) seedFromCheckpoint(ckp *dexplore.Checkpoint) error {
	tally, frontier, err := ckp.Restore(c.spec.Workload, &c.ecfg)
	if err != nil {
		return err
	}
	c.tally = *tally
	c.frontier = frontier
	c.rootDone = true
	for _, t := range c.frontier {
		if t.Decisions == nil {
			c.rootDone = false
		}
	}
	return nil
}

// run starts the lease janitor (and the progress monitor when configured).
// An already-complete resume (or an immediate Stop) finishes at once instead
// of waiting for a worker that will never be needed.
func (c *Coordinator) run() {
	go c.janitor()
	if c.job.OnProgress != nil {
		c.monitorWG.Add(1)
		go c.monitor()
	}
	c.mu.Lock()
	fin := c.finishable()
	c.mu.Unlock()
	if fin {
		c.finalize()
	}
}

// attachWorker registers an already-handshaken connection for this job,
// resetting its per-job counters. It reports false when the exploration has
// already finished (the Server then leaves the worker idle).
func (c *Coordinator) attachWorker(w *workerConn) bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.finished || w.gone {
		return false
	}
	w.active = 0
	w.completed = 0
	c.workers[w] = struct{}{}
	return true
}

// Wait blocks until the exploration ends and returns the merged report (or
// the first fatal error).
func (c *Coordinator) Wait() (*core.Report, error) {
	<-c.doneCh
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.runErr != nil {
		return nil, c.runErr
	}
	return c.report, nil
}

// Stop drains gracefully: no new leases are issued, in-flight replays finish
// and are merged, a final checkpoint preserves the remaining frontier, and
// Wait returns the partial report. Safe to call from any goroutine (the
// SIGTERM path).
func (c *Coordinator) Stop() {
	c.mu.Lock()
	c.stopped = true
	fin := c.finishable()
	c.mu.Unlock()
	if fin {
		c.finalize()
	}
}

// Abort ends the exploration with an error and crash semantics: no final
// checkpoint is written (periodic ones stand), and Wait returns err. The
// Server's kill path uses it so a simulated crash leaves exactly the state a
// real one would. Outstanding leases must drain first (dropWorker or the
// janitor requeues them); finalize fires from whichever path empties them.
func (c *Coordinator) Abort(err error) {
	c.mu.Lock()
	c.failLocked(err)
	c.noFinalCkp = true
	fin := c.finishable()
	c.mu.Unlock()
	if fin {
		c.finalize()
	}
}

// dropWorker unregisters a disconnected (or write-failed) worker and
// requeues every lease it held.
func (c *Coordinator) dropWorker(w *workerConn) {
	c.mu.Lock()
	if w.gone {
		c.mu.Unlock()
		return
	}
	w.gone = true
	delete(c.workers, w)
	var failed error
	for id, l := range c.leases {
		if l.conn == w {
			delete(c.leases, id)
			if err := c.requeueLocked(l); err != nil && failed == nil {
				failed = err
			}
		}
	}
	if failed != nil {
		c.failLocked(failed)
	}
	fin := c.finishable()
	c.mu.Unlock()
	w.conn.Close()
	if fin {
		c.finalize()
		return
	}
	c.dispatch()
}

// requeueLocked returns a lost lease's task to the frontier, enforcing the
// redelivery cap. Caller holds c.mu and has already removed the lease.
func (c *Coordinator) requeueLocked(l *lease) error {
	l.conn.active--
	if c.done[l.key] {
		return nil // a competing delivery already completed it
	}
	c.requeues++
	c.redelivered[l.key]++
	if n := c.redelivered[l.key]; n > c.srv.cfg.MaxRedeliveries {
		return fmt.Errorf("dcoord: task %s lost its lease %d times (redelivery cap %d): poison task or cluster too unstable",
			l.key, n, c.srv.cfg.MaxRedeliveries)
	}
	// A draining exploration keeps the task for its final checkpoint;
	// dispatch does not reissue it.
	c.frontier = append(c.frontier, l.task)
	return nil
}

// renewLeases extends every lease held by w (heartbeat arrival).
func (c *Coordinator) renewLeases(w *workerConn) {
	now := time.Now()
	c.mu.Lock()
	for _, l := range c.leases {
		if l.conn == w {
			l.expires = now.Add(c.srv.cfg.LeaseTTL)
		}
	}
	c.mu.Unlock()
}

// leaseCapacity is how many leases a worker may hold at once: its slots plus
// the configured prefetch depth.
func (c *Coordinator) leaseCapacity(w *workerConn) int {
	switch batch := c.srv.cfg.LeaseBatch; {
	case batch > 0:
		return w.slots + batch
	case batch < 0:
		return w.slots
	default:
		return 2 * w.slots
	}
}

// dispatch hands frontier tasks to workers with free lease capacity, one
// batched frame per worker per round. Frame writes happen outside c.mu; a
// failed write drops the worker (which requeues every batched lease).
func (c *Coordinator) dispatch() {
	type send struct {
		w  *workerConn
		fr *frame
	}
	var sends []send
	now := time.Now()
	c.mu.Lock()
	if !c.stopped && c.runErr == nil && !c.finished {
		for w := range c.workers {
			var batch []wireTask
			for capacity := c.leaseCapacity(w); w.active < capacity; {
				if max := c.spec.MaxInterleavings; max > 0 && c.tally.Interleavings+len(c.leases) >= max {
					break
				}
				t := c.popLiveLocked()
				if t == nil {
					break
				}
				c.nextLease++
				l := &lease{
					id:      c.nextLease,
					task:    t,
					key:     taskKey(t),
					conn:    w,
					granted: now,
					expires: now.Add(c.srv.cfg.LeaseTTL),
				}
				c.leases[l.id] = l
				w.active++
				batch = append(batch, wireTask{Lease: l.id, Task: t, Root: t.Decisions == nil})
			}
			if len(batch) > 0 {
				sends = append(sends, send{w: w, fr: &frame{Type: msgTask, Job: c.job.ID, Tasks: batch}})
			}
		}
	}
	c.mu.Unlock()
	for _, s := range sends {
		if err := s.w.send(s.fr); err != nil {
			c.dropWorker(s.w)
		}
	}
}

// popLiveLocked pops the deepest pending task whose subtree has not already
// been completed (a requeued copy may have been raced by a late delivery).
// Caller holds c.mu.
func (c *Coordinator) popLiveLocked() *core.SubtreeTask {
	for n := len(c.frontier); n > 0; n = len(c.frontier) {
		t := c.frontier[n-1]
		c.frontier = c.frontier[:n-1]
		if !c.done[taskKey(t)] {
			return t
		}
	}
	return nil
}

// handleResult merges one completed replay: dedup by task key, fold the
// outcome and expansion into the report and frontier, trigger cancellation,
// checkpoints, and completion.
func (c *Coordinator) handleResult(w *workerConn, res *WireResult) {
	c.mu.Lock()
	if l, ok := c.leases[res.Lease]; ok && l.conn == w {
		delete(c.leases, res.Lease)
		w.active--
	}
	if res.Fatal != "" {
		c.failLocked(fmt.Errorf("dcoord: worker %s: %s", w.name, res.Fatal))
		fin := c.finishable()
		c.mu.Unlock()
		if fin {
			c.finalize()
		}
		return
	}
	if c.finished || c.done[res.Key] {
		// Late duplicate of a requeued-and-completed task: at-least-once
		// delivery, effectively-once merge.
		fin := c.finishable()
		c.mu.Unlock()
		if fin {
			c.finalize()
			return
		}
		c.dispatch()
		return
	}
	c.done[res.Key] = true
	w.completed++

	ir := &core.InterleavingResult{
		Index:      c.tally.Interleavings,
		Decisions:  res.Decisions,
		Deadlock:   res.Deadlock,
		Mismatches: res.Mismatches,
		Epochs:     res.Epochs,
	}
	if res.ErrMsg != "" {
		ir.Err = errors.New(res.ErrMsg)
	}
	// Task identity (res.Key) carries the walk/step suffix; the tally keys
	// sampled schedules by the decision vector alone.
	ex := &core.Expansion{DecisionPoints: res.DecisionPoints, AutoAbstracted: res.AutoAbstracted}
	c.tally.Record(ir, ex, res.Sampled && res.Decisions != nil)
	c.frontier = append(c.frontier, res.Children...)
	if res.Root != nil {
		c.tally.WildcardsAnalyzed = res.Root.WildcardsAnalyzed
		c.tally.Unsafe = res.Root.Unsafe
		c.tally.FirstTrace = res.Root.FirstTrace
		c.rootDone = true
	}
	if c.spec.StopOnFirstError && ir.Err != nil {
		c.stopped = true
	}
	c.sinceCkp++
	var ckp *dexplore.Checkpoint
	if c.job.CheckpointPath != "" && c.sinceCkp >= c.srv.cfg.CheckpointEvery {
		c.sinceCkp = 0
		ckp = c.checkpointLocked()
	}
	fin := c.finishable()
	c.mu.Unlock()

	if ckp != nil {
		// Best-effort: a failed periodic write must not kill the search.
		_ = ckp.Save(c.job.CheckpointPath)
	}
	if fin {
		c.finalize()
		return
	}
	c.dispatch()
}

// failLocked records the first fatal error and stops issuing. Caller holds
// c.mu.
func (c *Coordinator) failLocked(err error) {
	if c.runErr == nil {
		c.runErr = err
	}
	c.stopped = true
}

// finishable reports whether the exploration is over: nothing leased, and
// either drained/errored or no live work remains (and the root ran, so an
// empty frontier means exhaustion rather than not-started). Caller holds
// c.mu.
func (c *Coordinator) finishable() bool {
	if c.finished || len(c.leases) > 0 {
		return false
	}
	if c.stopped || c.runErr != nil {
		return true
	}
	if !c.rootDone {
		return false
	}
	if max := c.spec.MaxInterleavings; max > 0 && c.tally.Interleavings >= max {
		return true
	}
	return c.liveFrontierLocked() == 0
}

// liveFrontierLocked counts pending tasks not already completed by a
// competing delivery. Caller holds c.mu; only called when no leases are
// outstanding, so the O(n) scan is off the hot path.
func (c *Coordinator) liveFrontierLocked() int {
	n := 0
	for _, t := range c.frontier {
		if !c.done[taskKey(t)] {
			n++
		}
	}
	return n
}

// finalize ends the exploration exactly once: terminal report state (cap
// flag, deterministic error order), final checkpoint, jobdone frames to
// every attached worker, the server's job-end hook, and the Wait release.
func (c *Coordinator) finalize() {
	c.mu.Lock()
	if c.finished {
		c.mu.Unlock()
		return
	}
	c.finished = true
	c.report = c.tally.Report(&c.ecfg, c.liveFrontierLocked())
	var ckp *dexplore.Checkpoint
	if c.job.CheckpointPath != "" && !c.noFinalCkp {
		ckp = c.checkpointLocked()
	}
	conns := make([]*workerConn, 0, len(c.workers))
	for w := range c.workers {
		conns = append(conns, w)
	}
	c.mu.Unlock()

	if ckp != nil {
		if err := ckp.Save(c.job.CheckpointPath); err != nil {
			c.mu.Lock()
			if c.runErr == nil {
				c.runErr = fmt.Errorf("dcoord: writing final checkpoint: %w", err)
			}
			c.mu.Unlock()
		}
	}
	for _, w := range conns {
		// The connection stays pooled; the worker just drops this job's
		// replay contexts.
		_ = w.send(&frame{Type: msgJobDone, Job: c.job.ID})
	}
	close(c.janitorStop)
	close(c.monitorStop)
	c.monitorWG.Wait()
	c.srv.jobEnded(c)
	close(c.doneCh)
}

// checkpointLocked snapshots coordinator state in the dexplore.Checkpoint
// format (pending first, then leased: resume pops the deepest work first).
// Caller holds c.mu.
func (c *Coordinator) checkpointLocked() *dexplore.Checkpoint {
	var frontier []*core.SubtreeTask
	for _, t := range c.frontier {
		if !c.done[taskKey(t)] {
			frontier = append(frontier, t)
		}
	}
	for _, l := range c.leases {
		frontier = append(frontier, l.task)
	}
	return dexplore.NewCheckpoint(c.spec.Workload, &c.ecfg, &c.tally, frontier)
}

// janitor periodically expires leases: past-TTL (no heartbeat) or past the
// hard age cap (hung replay under a live heartbeat). Expired tasks requeue
// under the redelivery cap.
func (c *Coordinator) janitor() {
	period := c.srv.cfg.LeaseTTL / 4
	if period < 5*time.Millisecond {
		period = 5 * time.Millisecond
	}
	ticker := time.NewTicker(period)
	defer ticker.Stop()
	for {
		select {
		case <-c.janitorStop:
			return
		case <-ticker.C:
		}
		now := time.Now()
		var failed error
		c.mu.Lock()
		for id, l := range c.leases {
			if now.After(l.expires) || now.Sub(l.granted) > c.srv.cfg.MaxLeaseAge {
				delete(c.leases, id)
				if err := c.requeueLocked(l); err != nil && failed == nil {
					failed = err
				}
			}
		}
		if failed != nil {
			c.failLocked(failed)
		}
		fin := c.finishable()
		c.mu.Unlock()
		if fin {
			c.finalize()
			return
		}
		c.dispatch()
	}
}

// monitor drives the OnProgress callback, sampling the sliding-window rate.
func (c *Coordinator) monitor() {
	defer c.monitorWG.Done()
	ticker := time.NewTicker(c.srv.cfg.ProgressEvery)
	defer ticker.Stop()
	for {
		select {
		case <-c.monitorStop:
			return
		case <-ticker.C:
			c.job.OnProgress(c.progress())
		}
	}
}

// progress builds a dexplore.Progress snapshot (Busy = outstanding leases).
func (c *Coordinator) progress() dexplore.Progress {
	c.mu.Lock()
	defer c.mu.Unlock()
	now := time.Now()
	elapsed := now.Sub(c.start)
	mean := 0.0
	if s := elapsed.Seconds(); s > 0 {
		mean = float64(c.tally.Interleavings) / s
	}
	window, ok := c.rate.Rate(now, c.tally.Interleavings)
	if !ok {
		window = mean
	}
	c.rate.Observe(now, c.tally.Interleavings)
	return dexplore.Progress{
		Interleavings:   c.tally.Interleavings,
		PerSecond:       mean,
		WindowPerSecond: window,
		WindowValid:     ok,
		FrontierDepth:   len(c.frontier),
		Busy:            len(c.leases),
		Elapsed:         elapsed,
	}
}
