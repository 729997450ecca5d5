package dexplore

import (
	"compress/gzip"
	"encoding/json"
	"fmt"
	"os"
	"testing"

	"dampi/internal/core"
	"dampi/internal/core/coretest"
	"dampi/workloads/matmul"
)

// recordingPath holds 500 matmul executions (6 ranks, k=2) and the order in
// which the original frame-stack serial explorer replayed them, capped at
// 500 interleavings: the depth-first visit order capped reports are a prefix
// of.
const recordingPath = "testdata/matmul6-k2-order.json.gz"

// loadRecording returns the recorded reproducer order and a Runner that
// replays the recorded executions. Asking it for an execution the recording
// lacks fails the exploration: the engine left the recorded order.
func loadRecording(t *testing.T) ([]string, func(*core.ExplorerConfig, *core.Decisions) (*core.RunTrace, *core.InterleavingResult, error)) {
	t.Helper()
	f, err := os.Open(recordingPath)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	zr, err := gzip.NewReader(f)
	if err != nil {
		t.Fatal(err)
	}
	var rec struct {
		Order []string `json:"order"`
		Runs  []struct {
			Key   string         `json:"key"`
			Trace *core.RunTrace `json:"trace"`
		} `json:"runs"`
	}
	if err := json.NewDecoder(zr).Decode(&rec); err != nil {
		t.Fatal(err)
	}
	traces := make(map[string]*core.RunTrace, len(rec.Runs))
	for _, r := range rec.Runs {
		traces[r.Key] = r.Trace
	}
	run := func(_ *core.ExplorerConfig, d *core.Decisions) (*core.RunTrace, *core.InterleavingResult, error) {
		trace := traces[d.String()]
		if trace == nil {
			return nil, nil, fmt.Errorf("execution %s is not in the recording", d)
		}
		// The reproducer pins the forced prefix plus every observed choice,
		// as core.RunContext.Run derives it.
		repro := d.Clone()
		for _, e := range trace.Epochs {
			if _, ok := repro.Lookup(e.Rank, e.LC); !ok && e.Chosen >= 0 {
				repro.Force(e.ID(), e.Chosen)
			}
		}
		return trace, &core.InterleavingResult{Decisions: repro, Epochs: len(trace.Epochs)}, nil
	}
	return rec.Order, run
}

// visitOrder explores cfg on the serial engine (workers 0) or the
// work-stealing engine and returns the reproducers in replay order.
func visitOrder(t *testing.T, cfg core.ExplorerConfig, workers int) []string {
	t.Helper()
	var order []string
	cfg.OnInterleaving = func(res *core.InterleavingResult) { order = append(order, res.Decisions.String()) }
	var rep *core.Report
	var err error
	if workers == 0 {
		rep, err = core.NewExplorer(cfg).Explore()
	} else {
		rep, err = New(Config{Explorer: cfg, Workers: workers}).Explore()
	}
	if err != nil {
		t.Fatalf("workers=%d: %v", workers, err)
	}
	if !rep.Capped || rep.Interleavings != cfg.MaxInterleavings {
		t.Fatalf("workers=%d: interleavings=%d capped=%v, want a capped run of %d",
			workers, rep.Interleavings, rep.Capped, cfg.MaxInterleavings)
	}
	return order
}

func sameOrder(t *testing.T, what string, got, want []string) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d interleavings, want %d", what, len(got), len(want))
	}
	for i := range got {
		if got[i] != want[i] {
			t.Fatalf("%s: interleaving %d is %s, want %s", what, i, got[i], want[i])
		}
	}
}

// TestCappedVisitOrder pins the depth-first visit order a capped report
// covers: the serial engine and a one-worker pool must replay the same
// interleavings in the same order, on live memoized executions and on the
// recorded ones, where the order must also match the recording's.
func TestCappedVisitOrder(t *testing.T) {
	want, recorded := loadRecording(t)
	live := coretest.NewMemoRunner()
	for _, cap := range []int{50, 500} {
		cfg := core.ExplorerConfig{Procs: 6, MixingBound: 2, MaxInterleavings: cap, Program: matmul.Program(matmul.Config{})}
		t.Run(fmt.Sprintf("recorded/cap%d", cap), func(t *testing.T) {
			cfg.Runner = recorded
			serial := visitOrder(t, cfg, 0)
			sameOrder(t, "serial vs recording", serial, want[:cap])
			sameOrder(t, "workers=1 vs recording", visitOrder(t, cfg, 1), want[:cap])
		})
		t.Run(fmt.Sprintf("live/cap%d", cap), func(t *testing.T) {
			cfg.Runner = live.Run
			sameOrder(t, "workers=1 vs serial", visitOrder(t, cfg, 1), visitOrder(t, cfg, 0))
		})
	}
}
