package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"os/exec"
	"runtime"
	"runtime/debug"
	"sort"
	"strings"
	"text/tabwriter"
	"time"
)

// gate is the regression rule of one end-to-end metric: which way is
// better, and by what share of the baseline's median it may get worse
// before a change is rejected. BENCHMARK.json carries the same table.
type gate struct {
	Name   string
	Unit   string
	Better string // "lower" or "higher"
	Bound  float64
}

// gates are the end-to-end metrics every workload reports. The bounds
// come from the calibration in README.md.
var gates = []gate{
	{mLatP50, "ms", "lower", 0.25},
	{mThroughput, "1/s", "higher", 0.25},
	{mWithinLimit, "ratio", "higher", 0.25},
	{mHeap, "MB", "lower", 0.10},
	{mSetup, "s", "lower", 0.25},
}

func gateOf(name string) (gate, bool) {
	for _, g := range gates {
		if g.Name == name {
			return g, true
		}
	}
	return gate{}, false
}

// stamp says what produced a result file, so that files form a
// trajectory and not a set of overwritten snapshots.
type stamp struct {
	Commit     string  `json:"commit"`
	Dirty      bool    `json:"dirty"`
	GoVersion  string  `json:"go_version"`
	GOMAXPROCS int     `json:"gomaxprocs"`
	NumCPU     int     `json:"nproc"`
	Seed       uint64  `json:"seed"`
	Seconds    float64 `json:"seconds"`
	Traced     bool    `json:"traced"`
	UTC        string  `json:"utc"`
}

func newStamp(seed uint64, seconds float64, traced bool) stamp {
	st := stamp{Commit: "unknown", GoVersion: runtime.Version(), GOMAXPROCS: runtime.GOMAXPROCS(0),
		NumCPU: runtime.NumCPU(), Seed: seed, Seconds: seconds, Traced: traced,
		UTC: time.Now().UTC().Format(time.RFC3339)}
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, kv := range bi.Settings {
			switch kv.Key {
			case "vcs.revision":
				st.Commit = kv.Value
			case "vcs.modified":
				st.Dirty = kv.Value == "true"
			}
		}
	}
	if st.Commit == "unknown" {
		// `go run` does not stamp VCS settings; ask git, if this is a
		// checkout at all.
		if rev, err := exec.Command("git", "rev-parse", "HEAD").Output(); err == nil {
			st.Commit = strings.TrimSpace(string(rev))
			status, err := exec.Command("git", "status", "--porcelain").Output()
			st.Dirty = err != nil || len(status) > 0
		}
	}
	return st
}

// summary is one metric of one workload over the file's runs.
type summary struct {
	Unit   string    `json:"unit"`
	Values []float64 `json:"values"`
	Median float64   `json:"median"`
	Q1     float64   `json:"q1"`
	Q3     float64   `json:"q3"`
	Spread float64   `json:"spread"` // (q3-q1)/median
	// Better and Bound are set on gated metrics only.
	Better string  `json:"better,omitempty"`
	Bound  float64 `json:"bound,omitempty"`
}

// workloadSummary gathers a workload's runs.
type workloadSummary struct {
	Workload string             `json:"workload"`
	Why      string             `json:"why"`
	LimitMs  float64            `json:"limit_ms"`
	Graph    graphShape         `json:"graph"`
	Phases   []phaseStats       `json:"phases"` // of the last run: lengths, target and achieved rates
	EndToEnd map[string]summary `json:"end_to_end"`
	Named    map[string]summary `json:"named"`
	Layers   map[string]summary `json:"layers"`
}

// resultFile is what -out receives and -compare reads.
type resultFile struct {
	Stamp     stamp             `json:"stamp"`
	Workloads []workloadSummary `json:"workloads"`
	Runs      []*runResult      `json:"runs"`
	// Claim is always null: this program measures, it does not claim.
	Claim *string `json:"claim"`
}

func newResultFile(seed uint64, seconds float64, traced bool) *resultFile {
	return &resultFile{Stamp: newStamp(seed, seconds, traced)}
}

func (f *resultFile) correct() bool {
	for _, r := range f.Runs {
		if !r.Correct {
			return false
		}
	}
	return true
}

func summarizeSets(sets []metricSet) map[string]summary {
	out := make(map[string]summary)
	for _, set := range sets {
		for name, m := range set {
			s := out[name]
			s.Unit = m.Unit
			s.Values = append(s.Values, m.Value)
			out[name] = s
		}
	}
	for name, s := range out {
		s.Median = median(s.Values)
		s.Q1, s.Q3 = quartiles(s.Values)
		s.Spread = spread(s.Values)
		if g, ok := gateOf(name); ok {
			s.Better, s.Bound = g.Better, g.Bound
		}
		out[name] = s
	}
	return out
}

// summarize groups the runs by workload, in first-run order.
func (f *resultFile) summarize() {
	f.Workloads = nil
	byName := make(map[string][]*runResult)
	var order []string
	for _, r := range f.Runs {
		if byName[r.Workload] == nil {
			order = append(order, r.Workload)
		}
		byName[r.Workload] = append(byName[r.Workload], r)
	}
	for _, name := range order {
		rs := byName[name]
		var e2e, named, layers []metricSet
		for _, r := range rs {
			e2e, named, layers = append(e2e, r.EndToEnd), append(named, r.Named), append(layers, r.Layers)
		}
		last := rs[len(rs)-1]
		f.Workloads = append(f.Workloads, workloadSummary{Workload: name, Why: last.Why, LimitMs: last.LimitMs,
			Graph: last.Graph, Phases: last.Phases,
			EndToEnd: summarizeSets(e2e), Named: summarizeSets(named), Layers: summarizeSets(layers)})
	}
}

func (f *resultFile) write(path string) error {
	buf, err := json.MarshalIndent(f, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(buf, '\n'), 0o644)
}

func readResultFile(path string) (*resultFile, error) {
	buf, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var f resultFile
	if err := json.Unmarshal(buf, &f); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &f, nil
}

func sortedKeys(m map[string]summary) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// print renders the file for people: the stamp, then per workload the
// phases, the end-to-end metrics with what they measure here, and the
// per-layer metrics.
func (f *resultFile) print(w io.Writer) {
	st := f.Stamp
	dirty := ""
	if st.Dirty {
		dirty = " (dirty)"
	}
	fmt.Fprintf(w, "commit %s%s  %s  GOMAXPROCS=%d nproc=%d  seed=%d seconds=%g traced=%v  %s\n",
		st.Commit, dirty, st.GoVersion, st.GOMAXPROCS, st.NumCPU, st.Seed, st.Seconds, st.Traced, st.UTC)
	for _, ws := range f.Workloads {
		g := ws.Graph
		fmt.Fprintf(w, "\n== %s  (%s: %d nodes / %d edges, %d landmarks top-%d, streaming=%v; %d run(s))\n",
			ws.Workload, g.Name, g.Nodes, g.Edges, g.Landmarks, g.StoreTopN, g.Streaming, len(ws.EndToEnd[mSetup].Values))
		fmt.Fprintf(w, "   %s; latency limit %g ms\n", ws.Why, ws.LimitMs)
		tw := tabwriter.NewWriter(w, 0, 4, 2, ' ', 0)
		for _, p := range ws.Phases {
			state := ""
			if p.Saturated {
				state = "  SATURATED"
			}
			fmt.Fprintf(tw, "phase %s\t%s loop\t%.1f s\ttarget %.4g/s\tachieved %.4g/s\tshare %.3f\tgenerator late p99 %.2f ms\tok %d/%d%s\n",
				p.Name, p.Loop, p.Seconds, p.TargetRate, p.AchievedRate, p.AchievedShare, p.LatenessP99Ms, p.OK, p.Scheduled, state)
		}
		tw.Flush() //nolint:errcheck // stdout
		tw = tabwriter.NewWriter(w, 0, 4, 2, ' ', 0)
		row := func(kind, name string, s summary) {
			gated := ""
			if s.Bound > 0 {
				gated = fmt.Sprintf("%s is better, bound %.0f%%", s.Better, 100*s.Bound)
			}
			fmt.Fprintf(tw, "%s\t%s\t%.6g\t%s\t%s", kind, name, s.Median, s.Unit, gated)
			if len(s.Values) > 1 {
				fmt.Fprintf(tw, "\tq1 %.6g  q3 %.6g  spread %.1f%%", s.Q1, s.Q3, 100*s.Spread)
			}
			fmt.Fprintln(tw)
		}
		for _, g := range gates {
			row("end-to-end", g.Name, ws.EndToEnd[g.Name])
		}
		for _, name := range sortedKeys(ws.Named) {
			row("named", name, ws.Named[name])
		}
		for _, name := range sortedKeys(ws.Layers) {
			row("layer", name, ws.Layers[name])
		}
		tw.Flush() //nolint:errcheck // stdout
	}
	for _, r := range f.Runs {
		for _, msg := range r.Failures {
			fmt.Fprintf(w, "FAILED %s seed %d: %s\n", r.Workload, r.Seed, msg)
		}
	}
}

// summaryLine is the machine-readable last line of a multi-run or
// multi-workload invocation. It ends with the claim, which is null.
func (f *resultFile) summaryLine() any {
	type line struct {
		Stamp     stamp                         `json:"stamp"`
		Correct   bool                          `json:"correct"`
		Workloads map[string]map[string]float64 `json:"workloads"`
		Claim     *string                       `json:"claim"`
	}
	l := line{Stamp: f.Stamp, Correct: f.correct(), Workloads: make(map[string]map[string]float64)}
	for _, ws := range f.Workloads {
		m := make(map[string]float64)
		for name, s := range ws.EndToEnd {
			m[name] = s.Median
		}
		l.Workloads[ws.Workload] = m
	}
	return l
}

// driverLine is the last line of a single run of a single workload, in
// the form the benchmark driver reads: the end-to-end metrics of an
// untraced run, the per-layer metrics of a traced one.
func (r *runResult) driverLine() any {
	type line struct {
		Correct   bool              `json:"correct"`
		Attempted int               `json:"attempted"`
		Failed    int               `json:"failed"`
		Metrics   map[string]metric `json:"metrics"`
	}
	l := line{Correct: r.Correct, Attempted: r.Attempted, Failed: r.Failed, Metrics: make(map[string]metric)}
	src := r.EndToEnd
	if r.Traced {
		src = r.Layers
	}
	for name, m := range src {
		l.Metrics[name] = metric{Value: m.Value, Unit: m.Unit}
	}
	return l
}
