// Command bench is the repository's one benchmark: it builds the serving
// stack in-process the way cmd/trserver wires it, drives it over loopback
// HTTP with four named workloads, checks the answers, and prints every
// metric by name with its unit. See README.md.
//
//	go run . -seed 1                         all four workloads, end-to-end metrics
//	go run . -seed 1 -trace 1                the same inputs with spans: per-layer metrics
//	go run . -workload query-cold -seed 7    one workload; the last line is the driver's JSON
//	go run . -runs 3 -out out/a.json         three runs per workload, medians and quartiles
//	go run . -compare out/a.json out/b.json  verdict per (metric, workload)
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
)

func main() {
	var (
		name    = flag.String("workload", "all", "workload to run: all, or one of "+workloadNames())
		seed    = flag.Uint64("seed", 1, "seed of every generated input (run i of -runs uses seed+i)")
		seconds = flag.Float64("seconds", 30, "length of each workload's timed phases together")
		trace   = flag.Int("trace", 0, "1: run half the time untraced and half with benchmark-side spans, and report per-layer metrics")
		runs    = flag.Int("runs", 1, "runs per workload")
		out     = flag.String("out", filepath.Join("out", "result.json"), "where to write the result file")
		compare = flag.Bool("compare", false, "compare two result files given as arguments instead of running")
	)
	flag.Parse()
	if *compare {
		if flag.NArg() != 2 {
			fatal(fmt.Errorf("-compare takes two result files"))
		}
		worse, err := compareFiles(os.Stdout, flag.Arg(0), flag.Arg(1))
		if err != nil {
			fatal(err)
		}
		if worse {
			os.Exit(1)
		}
		return
	}
	if flag.NArg() != 0 || *seconds < 1 || *runs < 1 || (*trace != 0 && *trace != 1) {
		flag.Usage()
		os.Exit(2)
	}
	selected := workloads
	if *name != "all" {
		w, ok := workloadByName(*name)
		if !ok {
			fatal(fmt.Errorf("unknown workload %q (have %s)", *name, workloadNames()))
		}
		selected = []workload{w}
	}

	// Everything the run leaves behind lives under the directory of the
	// result file; the temp directory inside it is removed on every exit
	// path.
	outDir := filepath.Dir(*out)
	if err := os.MkdirAll(outDir, 0o755); err != nil {
		fatal(err)
	}
	tmp, err := os.MkdirTemp(outDir, "tmp-")
	if err != nil {
		fatal(err)
	}
	file, err := runAll(selected, *seed, *seconds, *trace == 1, *runs, tmp, outDir)
	os.RemoveAll(tmp) //nolint:errcheck // best effort
	if err != nil {
		fatal(err)
	}
	if err := file.write(*out); err != nil {
		fatal(err)
	}
	file.print(os.Stdout)
	// The last line is for machines: one run of one workload prints what
	// the benchmark driver reads; anything else prints the summary.
	var last any = file.summaryLine()
	if len(file.Runs) == 1 {
		last = file.Runs[0].driverLine()
	}
	buf, err := json.Marshal(last)
	if err != nil {
		fatal(err)
	}
	fmt.Println(string(buf))
	if !file.correct() {
		os.Exit(1)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "bench:", err)
	os.Exit(1)
}

func workloadNames() string {
	s := ""
	for i, w := range workloads {
		if i > 0 {
			s += ", "
		}
		s += w.Name
	}
	return s
}

// runAll runs every selected workload runs times.
func runAll(selected []workload, seed uint64, seconds float64, traced bool, runs int, tmp, outDir string) (*resultFile, error) {
	file := newResultFile(seed, seconds, traced)
	for i := 0; i < runs; i++ {
		for _, w := range selected {
			env := runEnv{Seed: seed + uint64(i), Seconds: seconds, Setups: 3, TmpRoot: tmp}
			var r *runResult
			var err error
			if traced {
				r, err = runTraced(w, env, outDir)
			} else {
				r, err = w.run(env)
			}
			if err != nil {
				return nil, err
			}
			file.Runs = append(file.Runs, r)
		}
	}
	file.summarize()
	return file, nil
}

// runTraced spends the run's seconds on two fresh stacks fed the same
// inputs: the first with tracing off, the second with the benchmark's
// spans and the layer probes. The end-to-end metrics it reports are the
// untraced half's; the difference in the headline latency is the tracing
// overhead.
func runTraced(w workload, env runEnv, outDir string) (*runResult, error) {
	env.Seconds /= 2
	env.Setups = 1
	plain, err := w.run(env)
	if err != nil {
		return nil, err
	}
	env.Rec = newRecorder()
	r, err := w.run(env)
	if err != nil {
		return nil, err
	}
	r.Layers.set("trace.overhead_share", r.EndToEnd[mLatP50].Value/plain.EndToEnd[mLatP50].Value-1, "ratio")
	r.EndToEnd, r.Named = plain.EndToEnd, plain.Named
	r.Attempted, r.Failed = r.Attempted+plain.Attempted, r.Failed+plain.Failed
	r.Correct = r.Correct && plain.Correct
	r.Failures = append(plain.Failures, r.Failures...)
	r.Named.set("error_share", float64(r.Failed)/float64(r.Attempted), "ratio")
	spans, _ := env.Rec.snapshot()
	if err := writeSpans(filepath.Join(outDir, "trace-"+w.Name+".json"), spans); err != nil {
		return nil, err
	}
	return r, nil
}
