package dcoord

import (
	"fmt"
	"net"
	"sort"
	"sync"
	"time"

	"dampi/internal/core"
	"dampi/internal/dexplore"
)

// ServerConfig configures a cluster server: the worker pool plus the
// engine knobs every job it runs shares.
type ServerConfig struct {
	// LeaseTTL is how long a lease survives without a heartbeat before its
	// task is requeued. Default 10s.
	LeaseTTL time.Duration
	// MaxLeaseAge is the hard per-lease deadline: even a heartbeating worker
	// forfeits a lease this old (a hung replay keeps the connection's
	// heartbeats flowing, so TTL alone cannot catch it). Default 30×LeaseTTL.
	MaxLeaseAge time.Duration
	// MaxRedeliveries caps how many times one task may be requeued after
	// lease loss before the job aborts (a poison task must not loop
	// forever). Default 3.
	MaxRedeliveries int
	// LeaseBatch is the extra leases granted to each worker beyond its slot
	// count: the prefetch depth that keeps a worker's next tasks in flight
	// while every slot is replaying, hiding one network round trip per task.
	// 0 means one extra lease per slot (double buffering); negative disables
	// prefetch (at most one lease per slot). Each batched task keeps its own
	// lease, so expiry, requeue and dedup are unchanged.
	LeaseBatch int
	// CheckpointEvery is the completions between periodic checkpoint writes
	// of a job with a CheckpointPath. Default 32.
	CheckpointEvery int
	// ProgressEvery is the period of a job's OnProgress callback. Default 1s.
	ProgressEvery time.Duration
	// OnEvent, if non-nil, receives human-readable lifecycle lines (worker
	// joined, worker lost, job started) for logging.
	OnEvent func(string)
}

// lateJoinGrace is how long a one-job server keeps its listener open after
// its job ends. A worker that dials in that window (one started alongside
// the server but scheduled after a short exploration already finished) is
// answered with done and exits cleanly instead of failing on refused dials.
const lateJoinGrace = 5 * time.Second

// poolWorker is one pooled connection plus the capability half of its
// handshake: either pinned to one fingerprint (and optionally to the
// workload parameters baked into its program) or able to build any workload
// from a job spec.
type poolWorker struct {
	conn *workerConn
	any  bool
	fp   Fingerprint // pinned fingerprint; meaningful when !any
	// scale/iters are the workload parameters a pinned worker's program was
	// built with; 0 means unknown (library workers), which matches any job.
	scale, iters int
}

// eligible returns nil when this worker can replay a job with the given
// spec, else the mismatch naming the first differing field.
func (p *poolWorker) eligible(spec *JobSpec) error {
	if p.any {
		return nil
	}
	n := *spec
	n.Normalize()
	if err := n.Fingerprint().Check(p.fp); err != nil {
		return err
	}
	if p.scale != 0 && p.scale != n.Scale {
		return fmt.Errorf("dcoord: scale mismatch: coordinator %d, worker %d", n.Scale, p.scale)
	}
	if p.iters != 0 && p.iters != n.Iters {
		return fmt.Errorf("dcoord: iters mismatch: coordinator %d, worker %d", n.Iters, p.iters)
	}
	return nil
}

// Server owns a pool of worker connections and runs explorations over it,
// one at a time. Each job is a Coordinator for the lease/requeue/dedup
// machinery; the Server routes frames between the pooled connections and
// the active job. A pooled server (the job queue) keeps its connections
// across job boundaries; a one-job server (ServeJob, `dampi -serve`) closes
// when its job ends.
type Server struct {
	cfg ServerConfig
	// only is the one-job server's spec: hellos from pinned workers that
	// cannot replay it are rejected instead of pooled idle. Nil for a pooled
	// server.
	only *JobSpec

	mu     sync.Mutex
	ln     net.Listener
	pool   map[*workerConn]*poolWorker
	cur    *Coordinator
	closed bool
}

// NewServer creates a pooled cluster server.
func NewServer(cfg ServerConfig) *Server {
	if cfg.LeaseTTL <= 0 {
		cfg.LeaseTTL = 10 * time.Second
	}
	if cfg.MaxLeaseAge <= 0 {
		cfg.MaxLeaseAge = 30 * cfg.LeaseTTL
	}
	if cfg.MaxRedeliveries <= 0 {
		cfg.MaxRedeliveries = 3
	}
	if cfg.CheckpointEvery <= 0 {
		cfg.CheckpointEvery = 32
	}
	if cfg.ProgressEvery <= 0 {
		cfg.ProgressEvery = time.Second
	}
	return &Server{cfg: cfg, pool: make(map[*workerConn]*poolWorker)}
}

// ServeJob runs a one-job server on ln: it accepts workers and runs exactly
// one exploration of spec over them, the `dampi -serve` lifecycle. Unlike a
// pooled server it rejects, at hello, a pinned worker that cannot replay the
// job, naming the mismatched field. When the job ends every worker is told
// done before the returned Coordinator's Wait returns, and the listener stays
// open lateJoinGrace longer so a late worker also exits cleanly. The server
// owns ln, also when ServeJob fails.
func ServeJob(ln net.Listener, cfg ServerConfig, spec JobSpec, job JobConfig) (*Coordinator, error) {
	s := NewServer(cfg)
	s.only = &spec
	s.Serve(ln)
	c, err := s.startJob(spec, job)
	if err != nil {
		s.Close(true)
		return nil, err
	}
	return c, nil
}

// event emits one lifecycle line.
func (s *Server) event(format string, args ...any) {
	if s.cfg.OnEvent != nil {
		s.cfg.OnEvent(fmt.Sprintf(format, args...))
	}
}

// Serve starts accepting workers on ln. It returns immediately; the Server
// owns ln and closes it on Close.
func (s *Server) Serve(ln net.Listener) {
	s.mu.Lock()
	s.ln = ln
	s.mu.Unlock()
	go func() {
		for {
			conn, err := ln.Accept()
			if err != nil {
				return
			}
			go s.handleConn(conn)
		}
	}()
}

// ListenAndServe listens on addr and Serves.
func (s *Server) ListenAndServe(addr string) (net.Listener, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, err
	}
	s.Serve(ln)
	return ln, nil
}

// handleConn performs the handshake, registers the worker in the pool (and
// with the active job when eligible), then routes its frames until the
// connection dies or the server closes.
func (s *Server) handleConn(conn net.Conn) {
	_ = conn.SetReadDeadline(time.Now().Add(30 * time.Second))
	fr, err := readFrame(conn)
	if err != nil || fr.Type != msgHello {
		conn.Close()
		return
	}
	_ = conn.SetReadDeadline(time.Time{})

	w := &workerConn{conn: conn, name: fr.Worker, slots: fr.Slots, since: time.Now()}
	if w.name == "" {
		w.name = conn.RemoteAddr().String()
	}
	if w.slots < 1 {
		w.slots = 1
	}
	if fr.Proto != protoVersion {
		_ = w.send(&frame{Type: msgReject, Reason: fmt.Sprintf("dcoord: protocol version %d, server speaks %d", fr.Proto, protoVersion)})
		conn.Close()
		return
	}
	if fr.Fingerprint == nil && !fr.AnyWorkload {
		_ = w.send(&frame{Type: msgReject, Reason: "dcoord: hello carries neither a fingerprint nor any-workload capability"})
		conn.Close()
		return
	}
	pw := &poolWorker{conn: w, any: fr.AnyWorkload, scale: fr.Scale, iters: fr.Iters}
	if fr.Fingerprint != nil {
		pw.fp = *fr.Fingerprint
		pw.any = false
	}

	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		_ = w.send(&frame{Type: msgDone})
		conn.Close()
		return
	}
	if s.only != nil {
		if err := pw.eligible(s.only); err != nil {
			s.mu.Unlock()
			_ = w.send(&frame{Type: msgReject, Reason: err.Error()})
			conn.Close()
			return
		}
	}
	s.pool[w] = pw
	cur := s.cur
	s.mu.Unlock()

	if err := w.send(&frame{Type: msgWelcome, LeaseTTLMillis: s.cfg.LeaseTTL.Milliseconds()}); err != nil {
		s.removeWorker(w)
		return
	}
	s.event("worker %s joined (%d slots, any-workload=%v)", w.name, w.slots, pw.any)
	if cur != nil && pw.eligible(&cur.spec) == nil {
		if err := w.send(&frame{Type: msgJob, Job: cur.job.ID, Spec: &cur.spec}); err != nil {
			s.removeWorker(w)
			return
		}
		if cur.attachWorker(w) {
			cur.dispatch()
		}
	}

	for {
		fr, err := readFrame(conn)
		if err != nil {
			s.removeWorker(w)
			return
		}
		s.mu.Lock()
		cur := s.cur
		s.mu.Unlock()
		switch fr.Type {
		case msgHeartbeat:
			if cur != nil {
				cur.renewLeases(w)
			}
		case msgResult:
			// Results for finished jobs are dropped at the handleResult
			// dedup (the old coordinator is finished); results for unknown
			// jobs are dropped here.
			if cur != nil && fr.Result != nil && fr.Job == cur.job.ID {
				cur.handleResult(w, fr.Result)
			}
		default:
			// Unknown frame from a matching-version worker: ignore.
		}
	}
}

// removeWorker drops a dead connection from the pool and requeues any leases
// the active job granted it.
func (s *Server) removeWorker(w *workerConn) {
	s.mu.Lock()
	_, known := s.pool[w]
	delete(s.pool, w)
	cur := s.cur
	s.mu.Unlock()
	if known {
		s.event("worker %s lost", w.name)
	}
	if cur != nil {
		cur.dropWorker(w) // requeues its leases; idempotent via w.gone
		return
	}
	w.conn.Close()
}

// JobConfig carries the per-job inputs RunJob and ServeJob need beyond the
// spec.
type JobConfig struct {
	// ID tags every frame of this job.
	ID string
	// CheckpointPath, if non-empty, receives periodic frontier checkpoints,
	// so a crashed server resumes the job instead of restarting it.
	CheckpointPath string
	// Resume, if non-nil, seeds the job from a saved checkpoint.
	Resume *dexplore.Checkpoint
	// OnProgress, if non-nil, receives throughput snapshots every
	// ServerConfig.ProgressEvery.
	OnProgress func(dexplore.Progress)
}

// RunJob runs one exploration over the pooled workers and blocks until it
// completes, returning the merged report. Jobs run one at a time; calling
// RunJob concurrently is a caller bug and returns an error. Workers joining
// mid-job are attached on arrival; workers that die mid-job lose their
// leases to the usual requeue machinery.
func (s *Server) RunJob(spec JobSpec, job JobConfig) (*core.Report, error) {
	c, err := s.startJob(spec, job)
	if err != nil {
		return nil, err
	}
	return c.Wait()
}

// startJob makes spec the active job: it announces the job to every eligible
// pooled worker and leases the first tasks. The job clears itself through
// jobEnded when it finishes.
func (s *Server) startJob(spec JobSpec, job JobConfig) (*Coordinator, error) {
	spec.Normalize()
	if err := spec.Validate(); err != nil {
		return nil, err
	}
	c, err := newCoordinator(s, spec, job)
	if err != nil {
		return nil, err
	}

	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return nil, fmt.Errorf("dcoord: server closed")
	}
	if s.cur != nil {
		s.mu.Unlock()
		return nil, fmt.Errorf("dcoord: job %s still running", s.cur.job.ID)
	}
	s.cur = c
	var attach []*workerConn
	for w, pw := range s.pool {
		if pw.eligible(&spec) == nil {
			attach = append(attach, w)
		}
	}
	s.mu.Unlock()

	s.event("job %s started: %s procs=%d (%d eligible workers)", job.ID, spec.Workload, spec.Procs, len(attach))
	c.run()
	for _, w := range attach {
		// The job announcement must precede any task frame on this
		// connection; both go through w.send, so the order holds.
		if err := w.send(&frame{Type: msgJob, Job: job.ID, Spec: &spec}); err != nil {
			s.removeWorker(w)
			continue
		}
		c.attachWorker(w)
	}
	c.dispatch()
	return c, nil
}

// jobEnded clears c as the active job once it has finished. A one-job server
// then closes: every worker is told done.
func (s *Server) jobEnded(c *Coordinator) {
	s.mu.Lock()
	if s.cur == c {
		s.cur = nil
	}
	s.mu.Unlock()
	if s.only != nil {
		s.Close(false)
	}
}

// CancelJob drains the named active job: no new leases, in-flight replays
// merge, and RunJob returns the partial report. It reports whether the job
// was the active one.
func (s *Server) CancelJob(id string) bool {
	s.mu.Lock()
	cur := s.cur
	s.mu.Unlock()
	if cur == nil || cur.job.ID != id {
		return false
	}
	cur.Stop()
	return true
}

// Close shuts the server down. Graceful (kill=false): the active job drains
// via its own Stop path first if the caller wants that — Close itself just
// stops accepting, tells idle workers the service is over, and closes every
// connection. A one-job server keeps answering hellos with done for
// lateJoinGrace before its listener closes. Abrupt (kill=true): connections
// and listener are torn down immediately with no goodbye frames, simulating
// a crash; tests use it to exercise WAL recovery.
func (s *Server) Close(kill bool) {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return
	}
	s.closed = true
	ln := s.ln
	cur := s.cur
	conns := make([]*workerConn, 0, len(s.pool))
	for w := range s.pool {
		conns = append(conns, w)
	}
	// Emptying the pool keeps the read loops that end below from reporting
	// these workers as lost.
	s.pool = make(map[*workerConn]*poolWorker)
	s.mu.Unlock()

	switch {
	case ln == nil:
	case s.only != nil && !kill:
		time.AfterFunc(lateJoinGrace, func() { ln.Close() })
	default:
		ln.Close()
	}
	for _, w := range conns {
		if !kill {
			_ = w.send(&frame{Type: msgDone})
		}
		w.conn.Close()
	}
	if cur != nil {
		if kill {
			cur.Abort(fmt.Errorf("dcoord: server killed"))
		} else {
			cur.Stop()
		}
	}
}

// CurrentStatus returns the active job's exploration snapshot, if a job is
// running.
func (s *Server) CurrentStatus() (Status, string, bool) {
	s.mu.Lock()
	cur := s.cur
	s.mu.Unlock()
	if cur == nil {
		return Status{}, "", false
	}
	return cur.Status(), cur.job.ID, true
}

// PoolWorkerStatus is one pooled connection's view for service status: the
// connection-level facts that exist even when no job is running.
type PoolWorkerStatus struct {
	Name         string  `json:"name"`
	Addr         string  `json:"addr"`
	Slots        int     `json:"slots"`
	AnyWorkload  bool    `json:"any_workload"`
	Workload     string  `json:"workload,omitempty"` // pinned workload, if any
	ConnectedSec float64 `json:"connected_sec"`
}

// Workers snapshots the pooled connections, sorted by name.
func (s *Server) Workers() []PoolWorkerStatus {
	now := time.Now()
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]PoolWorkerStatus, 0, len(s.pool))
	for w, pw := range s.pool {
		ws := PoolWorkerStatus{
			Name:         w.name,
			Addr:         w.conn.RemoteAddr().String(),
			Slots:        w.slots,
			AnyWorkload:  pw.any,
			ConnectedSec: now.Sub(w.since).Seconds(),
		}
		if !pw.any {
			ws.Workload = pw.fp.Workload
		}
		out = append(out, ws)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

// TotalSlots sums the replay slots across pooled workers — the cluster's
// concurrent replay capacity, one input to the autoscaling hints.
func (s *Server) TotalSlots() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	n := 0
	for w := range s.pool {
		n += w.slots
	}
	return n
}
