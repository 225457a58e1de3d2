package main

import (
	"fmt"
	"io"
	"math"
	"text/tabwriter"
)

// Verdicts of one (metric, workload) pair.
const (
	verdictSame       = "same"
	verdictBetter     = "better"
	verdictWorse      = "worse"
	verdictUnresolved = "unresolved"
)

// judge compares the medians of a gated metric. worsening is the change
// from a to b as a share of a's median, positive when b is worse. Within
// the bound the pair is the same, unless either side's own run-to-run
// spread is wider than the bound: then the runs cannot tell, and the pair
// is unresolved rather than unchanged.
func judge(a, b summary, g gate) (worsening float64, verdict string) {
	if a.Median == 0 {
		return 0, verdictUnresolved
	}
	worsening = (b.Median - a.Median) / math.Abs(a.Median)
	if g.Better == "higher" {
		worsening = -worsening
	}
	switch {
	case worsening > g.Bound:
		return worsening, verdictWorse
	case max(a.Spread, b.Spread) > g.Bound:
		return worsening, verdictUnresolved
	case worsening < -g.Bound:
		return worsening, verdictBetter
	}
	return worsening, verdictSame
}

// compareFiles prints one row per gated (metric, workload) pair of two
// result files and reports whether any pair got worse.
func compareFiles(w io.Writer, pathA, pathB string) (anyWorse bool, err error) {
	a, err := readResultFile(pathA)
	if err != nil {
		return false, err
	}
	b, err := readResultFile(pathB)
	if err != nil {
		return false, err
	}
	fmt.Fprintf(w, "a: %s  commit %s  %s\nb: %s  commit %s  %s\n", pathA, a.Stamp.Commit, a.Stamp.UTC, pathB, b.Stamp.Commit, b.Stamp.UTC)
	tw := tabwriter.NewWriter(w, 0, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "workload\tmetric\ta\tb\tunit\tworsening\tbound\tspread a\tspread b\tverdict")
	for _, wa := range a.Workloads {
		var wb *workloadSummary
		for i := range b.Workloads {
			if b.Workloads[i].Workload == wa.Workload {
				wb = &b.Workloads[i]
			}
		}
		if wb == nil {
			return false, fmt.Errorf("%s has no workload %s", pathB, wa.Workload)
		}
		for _, g := range gates {
			sa, okA := wa.EndToEnd[g.Name]
			sb, okB := wb.EndToEnd[g.Name]
			if !okA || !okB {
				return false, fmt.Errorf("workload %s: metric %s is missing from a result file", wa.Workload, g.Name)
			}
			worsening, verdict := judge(sa, sb, g)
			anyWorse = anyWorse || verdict == verdictWorse
			fmt.Fprintf(tw, "%s\t%s\t%.6g\t%.6g\t%s\t%+.1f%%\t%.0f%%\t%.1f%%\t%.1f%%\t%s\n",
				wa.Workload, g.Name, sa.Median, sb.Median, g.Unit, 100*worsening, 100*g.Bound, 100*sa.Spread, 100*sb.Spread, verdict)
		}
	}
	return anyWorse, tw.Flush()
}
