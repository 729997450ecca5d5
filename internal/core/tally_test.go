package core

import (
	"errors"
	"fmt"
	"reflect"
	"testing"
)

// tallyEvent is one Tally.Record call.
type tallyEvent struct {
	res     *InterleavingResult
	ex      *Expansion
	sampled bool
}

// tallyStream is a synthetic result stream: every kind of outcome the tally
// accounts, including sampled schedules that repeat across the stream.
func tallyStream() []tallyEvent {
	var out []tallyEvent
	for i := 0; i < 40; i++ {
		// Sampled schedules repeat (four distinct keys); every other
		// interleaving has its own reproducer, as in a real exploration.
		sampled := i%3 == 0
		d := NewDecisions()
		if sampled {
			d.Force(EpochID{Rank: 0, LC: uint64(i % 4)}, 0)
		} else {
			d.Force(EpochID{Rank: 1, LC: uint64(i)}, i%5)
		}
		res := &InterleavingResult{Index: i, Decisions: d}
		var ex *Expansion
		switch {
		case !sampled && i%9 == 4:
			res.Err = errors.New("deadlock")
			res.Deadlock = true
		case !sampled && i%4 == 1:
			res.Err = fmt.Errorf("bug %d", i)
			ex = &Expansion{DecisionPoints: 2}
		default:
			ex = &Expansion{DecisionPoints: i % 3, AutoAbstracted: i % 2}
		}
		out = append(out, tallyEvent{res, ex, sampled})
	}
	return out
}

// TestTallyMergeEqualsSingle: splitting one result stream across N tallies
// and merging them gives the report a single tally fed the whole stream
// gives — counts, sorted errors and sampled totals alike.
func TestTallyMergeEqualsSingle(t *testing.T) {
	cfg := &ExplorerConfig{MaxInterleavings: 40}
	root := &RunTrace{Epochs: []*EpochRecord{epochRec(0, 1, 2, 3)}, Unsafe: []UnsafeReport{{Rank: 1}}}
	stream := tallyStream()

	var single Tally
	single.Root(root)
	for _, s := range stream {
		single.Record(s.res, s.ex, s.sampled)
	}
	want := single.Report(cfg, 1)
	if want.Interleavings != 40 || !want.Capped || want.Sampled != 14 || want.SampledDistinct >= want.Sampled {
		t.Fatalf("fixture: interleavings=%d capped=%v sampled=%d distinct=%d, want 40, capped, 14 with repeats",
			want.Interleavings, want.Capped, want.Sampled, want.SampledDistinct)
	}

	for _, n := range []int{2, 3, 7} {
		parts := make([]Tally, n)
		parts[n-1].Root(root) // the root's contribution may sit in any part
		for i, s := range stream {
			parts[(i*5+1)%n].Record(s.res, s.ex, s.sampled)
		}
		var merged Tally
		for i := range parts {
			merged.Merge(&parts[i])
		}
		if got := merged.Report(cfg, 1); !reflect.DeepEqual(got, want) {
			t.Errorf("%d-way merge differs from a single tally:\n got %+v\nwant %+v", n, got, want)
		}
	}
}

// TestTallyReportTerminalState: the cap flag needs both a reached cap and
// leftover work, errors sort by reproducer signature, and nothing sampled
// leaves the sampled fields zero.
func TestTallyReportTerminalState(t *testing.T) {
	var tl Tally
	for _, s := range tallyStream()[:10] {
		tl.Record(s.res, s.ex, false)
	}
	if rep := tl.Report(&ExplorerConfig{MaxInterleavings: 10}, 0); rep.Capped {
		t.Error("capped with an empty frontier")
	}
	if rep := tl.Report(&ExplorerConfig{MaxInterleavings: 11}, 3); rep.Capped {
		t.Error("capped below the cap")
	}
	rep := tl.Report(&ExplorerConfig{MaxInterleavings: 10}, 3)
	if !rep.Capped {
		t.Error("not capped at the cap with work left")
	}
	for i := 1; i < len(rep.Errors); i++ {
		if rep.Errors[i-1].Decisions.String() > rep.Errors[i].Decisions.String() {
			t.Errorf("errors not sorted by reproducer: %v before %v", rep.Errors[i-1].Decisions, rep.Errors[i].Decisions)
		}
	}
	if rep.Sampled != 0 || rep.SampledDistinct != 0 || rep.SampledSchedules != nil {
		t.Errorf("sampled fields set without sampling: %d/%d/%v", rep.Sampled, rep.SampledDistinct, rep.SampledSchedules)
	}
}
