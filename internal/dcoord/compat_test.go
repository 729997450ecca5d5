package dcoord

import (
	"fmt"
	"net"
	"strings"
	"testing"
	"time"

	"dampi/internal/core"
	"dampi/internal/dexplore"
	"dampi/mpi"
)

// baseSpec is a fully populated job spec so every fingerprint field
// mutation is distinguishable from the zero value.
func baseSpec() JobSpec {
	return JobSpec{
		Workload:          "matmul",
		Procs:             6,
		Clock:             core.Lamport,
		DualClock:         false,
		Transport:         core.Separate,
		MixingBound:       1,
		AutoLoopThreshold: 0,
	}
}

func baseFingerprint() Fingerprint {
	spec := baseSpec()
	return spec.Fingerprint()
}

// TestFingerprintCheckEachMismatch: every fingerprint field mismatch is
// refused with an error naming the field — exploring under mismatched
// parameters would silently cover a different interleaving space.
func TestFingerprintCheckEachMismatch(t *testing.T) {
	base := baseFingerprint()
	if err := base.Check(base); err != nil {
		t.Fatalf("identical fingerprints rejected: %v", err)
	}
	cases := []struct {
		name   string
		mutate func(*Fingerprint)
		want   string
	}{
		{"workload", func(f *Fingerprint) { f.Workload = "adlb" }, "workload"},
		{"procs", func(f *Fingerprint) { f.Procs = 8 }, "procs"},
		{"clock", func(f *Fingerprint) { f.Clock = core.VectorClock }, "clock"},
		{"dual-clock", func(f *Fingerprint) { f.DualClock = true }, "dual-clock"},
		{"transport", func(f *Fingerprint) { f.Transport = core.Inband }, "transport"},
		{"mixing-bound", func(f *Fingerprint) { f.MixingBound = 2 }, "mixing bound"},
		{"autoloop", func(f *Fingerprint) { f.AutoLoopThreshold = 5 }, "autoloop"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			worker := base
			tc.mutate(&worker)
			err := base.Check(worker)
			if err == nil {
				t.Fatalf("mismatched %s accepted", tc.name)
			}
			if !strings.Contains(err.Error(), tc.want) {
				t.Errorf("error %q does not name %q", err, tc.want)
			}
		})
	}
}

// TestJoinRejectsMismatchedWorker: the handshake refuses a worker whose
// fingerprint differs, the worker surfaces the reason and does NOT retry
// (the mismatch is permanent).
func TestJoinRejectsMismatchedWorker(t *testing.T) {
	fp := baseFingerprint()
	c, addr := startCoordinator(t, baseSpec(), ServerConfig{LeaseTTL: time.Second}, JobConfig{})
	defer c.Stop()

	bad := fp
	bad.Procs = 8
	w := NewWorker(WorkerConfig{
		Addr:        addr,
		Name:        "mismatched",
		Fingerprint: bad,
		Explorer:    core.ExplorerConfig{Procs: 8, Program: func(p *mpi.Proc) error { return nil }},
	})
	done := make(chan error, 1)
	go func() { done <- w.Run() }()
	select {
	case err := <-done:
		if err == nil {
			t.Fatal("mismatched worker joined successfully")
		}
		if !strings.Contains(err.Error(), "procs") {
			t.Errorf("rejection %q does not name the mismatched field", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("rejected worker kept retrying instead of exiting")
	}
}

// TestJoinRejectsWrongProtocol: a worker speaking another frame protocol
// version is refused at hello.
func TestJoinRejectsWrongProtocol(t *testing.T) {
	fp := baseFingerprint()
	c, addr := startCoordinator(t, baseSpec(), ServerConfig{LeaseTTL: time.Second}, JobConfig{})
	defer c.Stop()

	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	if err := writeFrame(conn, &frame{Type: msgHello, Proto: protoVersion + 7, Worker: "future", Slots: 1, Fingerprint: &fp}); err != nil {
		t.Fatal(err)
	}
	_ = conn.SetReadDeadline(time.Now().Add(10 * time.Second))
	fr, err := readFrame(conn)
	if err != nil {
		t.Fatal(err)
	}
	if fr.Type != msgReject || !strings.Contains(fr.Reason, "protocol version") {
		t.Errorf("got %s frame (reason %q), want protocol-version reject", fr.Type, fr.Reason)
	}
}

// TestJoinRejectsOldProtocols: workers from before the batched-lease task
// frame (protocol 1) or the multi-job frames (protocol 2) are refused at
// hello with an error naming both versions. An old worker would drop the
// frames it does not know — batched tasks for v1, job announcements for v2 —
// and silently idle or misroute results, so the pairing must fail loudly.
func TestJoinRejectsOldProtocols(t *testing.T) {
	fp := baseFingerprint()
	c, addr := startCoordinator(t, baseSpec(), ServerConfig{LeaseTTL: time.Second}, JobConfig{})
	defer c.Stop()

	for _, old := range []int{1, 2} {
		conn, err := net.Dial("tcp", addr)
		if err != nil {
			t.Fatal(err)
		}
		if err := writeFrame(conn, &frame{Type: msgHello, Proto: old, Worker: "legacy", Slots: 1, Fingerprint: &fp}); err != nil {
			t.Fatal(err)
		}
		_ = conn.SetReadDeadline(time.Now().Add(10 * time.Second))
		fr, err := readFrame(conn)
		if err != nil {
			t.Fatal(err)
		}
		if fr.Type != msgReject {
			t.Fatalf("v%d worker got %s frame, want reject", old, fr.Type)
		}
		if !strings.Contains(fr.Reason, fmt.Sprintf("protocol version %d", old)) || !strings.Contains(fr.Reason, "3") {
			t.Errorf("reject reason %q does not name both protocol versions", fr.Reason)
		}
		conn.Close()
	}
}

// TestResumeRejectsEachMismatch: a coordinator resuming a checkpoint under
// different exploration parameters must fail with a clear error, field by
// field — the frontier's decision prefixes are only meaningful in the space
// that produced them.
func TestResumeRejectsEachMismatch(t *testing.T) {
	ckp := &dexplore.Checkpoint{
		Version:     1,
		Workload:    "matmul",
		Procs:       6,
		Clock:       core.Lamport,
		Transport:   core.Separate,
		MixingBound: 1,
	}
	if _, err := newCoordinator(NewServer(ServerConfig{}), baseSpec(), JobConfig{Resume: ckp}); err != nil {
		t.Fatalf("matching resume rejected: %v", err)
	}
	cases := []struct {
		name   string
		mutate func(*JobSpec)
		want   string
	}{
		{"workload", func(s *JobSpec) { s.Workload = "adlb" }, "workload"},
		{"procs", func(s *JobSpec) { s.Procs = 8 }, "procs"},
		{"clock", func(s *JobSpec) { s.Clock = core.VectorClock }, "clock"},
		{"dual-clock", func(s *JobSpec) { s.DualClock = true }, "dual-clock"},
		{"transport", func(s *JobSpec) { s.Transport = core.Inband }, "transport"},
		{"mixing-bound", func(s *JobSpec) { s.MixingBound = 3 }, "k="},
		{"autoloop", func(s *JobSpec) { s.AutoLoopThreshold = 4 }, "autoloop"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			spec := baseSpec()
			tc.mutate(&spec)
			_, err := newCoordinator(NewServer(ServerConfig{}), spec, JobConfig{Resume: ckp})
			if err == nil {
				t.Fatalf("resume with mismatched %s accepted", tc.name)
			}
			if !strings.Contains(err.Error(), tc.want) {
				t.Errorf("error %q does not mention %q", err, tc.want)
			}
		})
	}
}

// TestResumeAcceptsUnnamedWorkloadCheckpoint: checkpoints written by the
// single-process engine carry no workload name; they resume under any name
// (only the parameter fields are comparable).
func TestResumeAcceptsUnnamedWorkloadCheckpoint(t *testing.T) {
	ckp := &dexplore.Checkpoint{
		Version:     1,
		Procs:       6,
		Clock:       core.Lamport,
		Transport:   core.Separate,
		MixingBound: 1,
	}
	if _, err := newCoordinator(NewServer(ServerConfig{}), baseSpec(), JobConfig{Resume: ckp}); err != nil {
		t.Fatalf("unnamed-workload checkpoint rejected: %v", err)
	}
}
