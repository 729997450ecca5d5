package main

import (
	"math"
	"sort"
	"syscall"
)

// summary is a sample's count and quartiles.
type summary struct {
	N      int     `json:"n"`
	Q1     float64 `json:"q1"`
	Median float64 `json:"median"`
	Q3     float64 `json:"q3"`
}

func summarize(xs []float64) summary {
	return summary{N: len(xs), Q1: percentile(xs, 25), Median: percentile(xs, 50), Q3: percentile(xs, 75)}
}

func median(xs []float64) float64 { return percentile(xs, 50) }

// percentile is the nearest-rank percentile of xs (0 for an empty sample).
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	i := int(math.Ceil(p/100*float64(len(s)))) - 1
	return s[max(i, 0)]
}

func sum(xs []float64) float64 {
	t := 0.0
	for _, x := range xs {
		t += x
	}
	return t
}

// measurement is what an end-to-end run of one workload collects. Times are
// in seconds.
type measurement struct {
	tally
	// setup holds one duration per set-up round.
	setup []float64
	// latencies holds, per successful operation, the time from request to
	// checked verdict: a verify.Run call, or a job's submit→report.
	latencies []float64
	// explore holds, per successful operation, the exploration time alone:
	// the verify.Run call, or the job's run on the cluster as its report
	// states it.
	explore []float64
	// interleavings is the total explored by the successful operations.
	interleavings int
	// wall is the time the operations took: the sum of the verify.Run
	// calls, or the client loop's wall time.
	wall float64
	// native is the median uninstrumented run of the workload's program
	// (for the service, the mean over its job mix).
	native float64
	// nativeWork is Σ interleavings × native seconds of each operation's
	// program: what running every explored interleaving natively would take.
	nativeWork float64
}

// endToEnd derives the end-to-end metrics. Every workload reports all of
// them; README.md gives each one's meaning per workload.
func (m *measurement) endToEnd() map[string]metric {
	return map[string]metric{
		"setup_s":                {median(m.setup), "s"},
		"verdict_s":              {median(m.explore), "s"},
		"interleavings_per_s":    {ratio(float64(m.interleavings), m.wall), "1/s"},
		"native_s":               {m.native, "s"},
		"overhead_x":             {ratio(sum(m.latencies), m.nativeWork), "x"},
		"submit_to_report_p50_s": {median(m.latencies), "s"},
		"submit_to_report_p90_s": {percentile(m.latencies, 90), "s"},
		"jobs_per_s":             {ratio(float64(len(m.latencies)), m.wall), "1/s"},
		"peak_rss_mb":            {peakRSSMB(), "MB"},
	}
}

// samples gives the sample counts and in-run spread behind the medians.
func (m *measurement) samples() map[string]summary {
	return map[string]summary{
		"setup_s":          summarize(m.setup),
		"verdict_s":        summarize(m.explore),
		"submit_to_report": summarize(m.latencies),
	}
}

// peakRSSMB is the process's peak resident set size in MiB.
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}
