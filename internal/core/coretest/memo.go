// Package coretest provides helpers for tests that drive the exploration
// engines.
package coretest

import (
	"sync"

	"dampi/internal/core"
)

// MemoRunner memoizes program executions by decision signature. Sharing one
// MemoRunner between explorations (serial, work-stealing, cluster, pruned or
// not) makes the program's residual scheduling non-determinism invisible: a
// decision prefix always yields the same trace, so tests compare pure
// schedule-generator behavior, also under -race.
type MemoRunner struct {
	mu   sync.Mutex
	runs map[string]*memoEntry
}

type memoEntry struct {
	trace *core.RunTrace
	res   *core.InterleavingResult
}

// NewMemoRunner returns an empty MemoRunner.
func NewMemoRunner() *MemoRunner { return &MemoRunner{runs: make(map[string]*memoEntry)} }

// Run implements core.ExplorerConfig.Runner.
func (m *MemoRunner) Run(cfg *core.ExplorerConfig, d *core.Decisions) (*core.RunTrace, *core.InterleavingResult, error) {
	key := d.String()
	m.mu.Lock()
	ent := m.runs[key]
	m.mu.Unlock()
	if ent == nil {
		base := *cfg
		base.Runner = nil
		trace, res, err := core.ExecuteRun(&base, d)
		if err != nil {
			return nil, nil, err
		}
		m.mu.Lock()
		if cached, ok := m.runs[key]; ok {
			ent = cached // keep-first: concurrent fillers agree on one execution
		} else {
			ent = &memoEntry{trace: trace, res: res}
			m.runs[key] = ent
		}
		m.mu.Unlock()
	}
	// Fresh result per caller: engines stamp Index and keep the reproducer.
	cp := *ent.res
	cp.Decisions = ent.res.Decisions.Clone()
	return ent.trace, &cp, nil
}
