package main

import (
	"encoding/json"
	"os"
	"slices"
	"sort"
	"testing"
	"time"
)

// benchmarkSpec is the part of BENCHMARK.json the tests compare against.
type benchmarkSpec struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []specMetric `json:"end_to_end"`
	PerLayer []specMetric `json:"per_layer"`
}

type specMetric struct {
	Name string `json:"name"`
	Unit string `json:"unit"`
}

func loadSpec(t *testing.T) benchmarkSpec {
	t.Helper()
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var s benchmarkSpec
	if err := json.Unmarshal(b, &s); err != nil {
		t.Fatal(err)
	}
	return s
}

func toyOptions(t *testing.T, workload string, traced bool) options {
	return options{workload: workload, seed: 7, duration: 50 * time.Millisecond, trace: traced, outDir: t.TempDir(), toy: true}
}

// timeUnits are the units of measured times, which never read exactly 0.
var timeUnits = map[string]bool{"s": true, "ms": true, "us": true, "ns": true}

// TestSmoke runs every workload at toy size, untraced and traced, and
// checks that each run passes its verdict checks and prints exactly the
// metrics BENCHMARK.json declares, with the declared units.
func TestSmoke(t *testing.T) {
	spec := loadSpec(t)
	var names []string
	for _, w := range spec.Workloads {
		names = append(names, w.Name)
	}
	sort.Strings(names)
	if got := workloadNames(); !slices.Equal(got, names) {
		t.Fatalf("workloads %v, BENCHMARK.json declares %v", got, names)
	}
	for _, name := range names {
		for _, traced := range []bool{false, true} {
			want := spec.EndToEnd
			if traced {
				want = spec.PerLayer
			}
			out, err := run(toyOptions(t, name, traced))
			if err != nil {
				t.Fatalf("%s trace=%v: %v", name, traced, err)
			}
			if out.attempted == 0 || len(out.failures) > 0 {
				t.Errorf("%s trace=%v: %d attempted, failures %v", name, traced, out.attempted, out.failures)
			}
			if len(out.metrics) != len(want) {
				t.Errorf("%s trace=%v: %d metrics, BENCHMARK.json declares %d", name, traced, len(out.metrics), len(want))
			}
			for _, m := range want {
				got, ok := out.metrics[m.Name]
				if !ok || got.Unit != m.Unit {
					t.Errorf("%s trace=%v: metric %s = %+v, want unit %q", name, traced, m.Name, got, m.Unit)
				}
			}
			for _, m := range want {
				if got := out.metrics[m.Name]; timeUnits[m.Unit] && got.Value == 0 {
					t.Errorf("%s trace=%v: time %s reads 0", name, traced, m.Name)
				}
			}
			if traced && (name == "matmul-k2" || name == "adlb-k2-cap") {
				// The engine's self time and its replays cover the traced
				// operation up to the tracing overhead.
				left, overhead := out.metrics["trace.unaccounted_s"].Value, out.metrics["trace.overhead_s"].Value
				if left > max(overhead, 0.001) {
					t.Errorf("%s: %.6fs of the traced operation outside the engine, tracing overhead %.6fs", name, left, overhead)
				}
			}
		}
	}
}

// TestWrongAnswerFails checks that a verdict that differs from the expected
// answer counts as a failed operation instead of passing silently.
func TestWrongAnswerFails(t *testing.T) {
	local := matmulK2(true)
	local.want.Interleavings++
	svc := serviceSmallJobs(true)
	svc.cases[0].want++
	for name, w := range map[string]bench{"local": local, "service": svc} {
		m, err := w.measure(toyOptions(t, name, false))
		if err != nil {
			t.Fatal(err)
		}
		r := result{Attempted: m.attempted, Failed: len(m.failures)}
		if f := failedFrac(r); f <= 0 {
			t.Errorf("%s: failed_frac %v with a wrong expected answer (%d attempted)", name, f, m.attempted)
		}
	}
}

// TestSelfTime checks self time against overlapping and overhanging
// children.
func TestSelfTime(t *testing.T) {
	tr := newTracer()
	add := func(id, parent, start, end int64) {
		tr.spans = append(tr.spans, span{ID: id, Parent: parent, Start: start, End: end})
	}
	tr.names = []string{"x"}
	add(1, 0, 0, 100)
	add(2, 1, 10, 40)
	add(3, 1, 30, 60) // overlaps 2: the union 10..60 counts once
	add(4, 1, 90, 120)
	st := tr.tree()
	if got := st.self(st.byName["x"][0]); got != 40 {
		t.Fatalf("self = %d, want 40", got)
	}
}
