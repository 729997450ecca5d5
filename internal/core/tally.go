package core

import "sort"

// Tally is the coverage accounting every exploration engine shares: the
// serial Explorer owns one, each dexplore worker owns one (merged when the
// pool joins and at checkpoint time), and the distributed coordinator holds
// one under its lock. Report derives the terminal report from it, so the
// three engines cannot drift apart in what they count or how they order it.
// A Tally is not safe for concurrent use.
type Tally struct {
	Interleavings  int
	Deadlocks      int
	DecisionPoints int
	AutoAbstracted int
	// Errors holds every failed interleaving in merge order; Report sorts.
	Errors []*InterleavingResult

	// The initial self run's contribution (see Root). FirstTrace is nil
	// until the root has run.
	WildcardsAnalyzed int
	Unsafe            []UnsafeReport
	FirstTrace        *RunTrace

	// Sampled counts completed walk steps; sampled holds their distinct
	// resolved decision vectors.
	Sampled int
	sampled map[string]struct{}
}

// Root records what only the initial self-discovery run contributes: the
// canonical trace, its wildcard count (R*) and its §V alerts.
func (t *Tally) Root(trace *RunTrace) {
	t.WildcardsAnalyzed = len(trace.Epochs)
	t.Unsafe = trace.Unsafe
	t.FirstTrace = trace
}

// Record accounts one completed replay: its outcome, what its expansion
// contributed (nil for a deadlocked run, which expands nothing) and, for a
// sampled walk step, its schedule. The dedup key is the run's fully resolved
// decision vector, not the walk identity: two walks whose prefixes resolve
// to the same complete schedule sampled one distinct schedule twice.
func (t *Tally) Record(res *InterleavingResult, ex *Expansion, sampled bool) {
	t.Interleavings++
	if res.Err != nil {
		t.Errors = append(t.Errors, res)
	}
	if res.Deadlock {
		t.Deadlocks++
	}
	if ex != nil {
		t.DecisionPoints += ex.DecisionPoints
		t.AutoAbstracted += ex.AutoAbstracted
	}
	if sampled {
		t.Sampled++
		t.addSampled(res.Decisions.String())
	}
}

// RestoreSampled reinstates checkpointed sampling counts: total completed
// walk steps and their distinct schedule keys.
func (t *Tally) RestoreSampled(total int, keys []string) {
	t.Sampled = total
	for _, k := range keys {
		t.addSampled(k)
	}
}

func (t *Tally) addSampled(key string) {
	if t.sampled == nil {
		t.sampled = make(map[string]struct{})
	}
	t.sampled[key] = struct{}{}
}

// SampledDistinct is the number of distinct sampled schedules.
func (t *Tally) SampledDistinct() int { return len(t.sampled) }

// SampledKeys returns the distinct sampled schedules in sorted order (nil
// when nothing was sampled).
func (t *Tally) SampledKeys() []string {
	var keys []string
	for k := range t.sampled {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// Merge folds o into t, leaving o unchanged. At most one of the two should
// carry the root run's contribution.
func (t *Tally) Merge(o *Tally) {
	t.Interleavings += o.Interleavings
	t.Deadlocks += o.Deadlocks
	t.DecisionPoints += o.DecisionPoints
	t.AutoAbstracted += o.AutoAbstracted
	t.Errors = append(t.Errors, o.Errors...)
	if o.FirstTrace != nil {
		t.WildcardsAnalyzed, t.Unsafe, t.FirstTrace = o.WildcardsAnalyzed, o.Unsafe, o.FirstTrace
	}
	t.Sampled += o.Sampled
	for k := range o.sampled {
		t.addSampled(k)
	}
}

// Report derives the terminal coverage report. leftover is the number of
// subtree tasks still pending: the report is Capped when cfg's interleaving
// cap was reached with work left. Errors sort by reproducer signature, since
// completion order depends on scheduling; the prune-hint fields are read from
// cfg's hint table.
func (t *Tally) Report(cfg *ExplorerConfig, leftover int) *Report {
	rep := &Report{
		Interleavings:     t.Interleavings,
		Deadlocks:         t.Deadlocks,
		DecisionPoints:    t.DecisionPoints,
		AutoAbstracted:    t.AutoAbstracted,
		Errors:            append([]*InterleavingResult(nil), t.Errors...),
		WildcardsAnalyzed: t.WildcardsAnalyzed,
		Unsafe:            t.Unsafe,
		FirstTrace:        t.FirstTrace,
		Sampled:           t.Sampled,
		SampledDistinct:   len(t.sampled),
		SampledSchedules:  t.SampledKeys(),
	}
	max := cfg.MaxInterleavings
	rep.Capped = max > 0 && t.Interleavings >= max && leftover > 0
	sort.SliceStable(rep.Errors, func(i, j int) bool {
		return rep.Errors[i].Decisions.String() < rep.Errors[j].Decisions.String()
	})
	if h := cfg.PruneHints; h != nil {
		rep.StaticPruned = h.Pruned()
		rep.PruneDisabled = h.Disabled()
		rep.PruneViolations = h.Violations()
	}
	return rep
}
