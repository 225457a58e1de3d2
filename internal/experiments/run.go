package experiments

import (
	"encoding/json"
	"fmt"
	"io"
	"sort"
	"strings"

	"repro/internal/classify"
	"repro/internal/graph"
	"repro/internal/textgen"
	"repro/internal/topics"
)

// Experiment is one runnable paper artifact.
type Experiment struct {
	ID    string
	Title string
	Run   func(r *Runner) (fmt.Stringer, error)
}

// All returns every experiment in paper order.
func All() []Experiment {
	return []Experiment{
		{"table2", "Table 2: datasets topological properties", func(r *Runner) (fmt.Stringer, error) { return r.Table2() }},
		{"fig3", "Figure 3: distribution of edges per topic", func(r *Runner) (fmt.Stringer, error) { return r.Fig3() }},
		{"fig4", "Figure 4: recall at N (Twitter)", func(r *Runner) (fmt.Stringer, error) { return r.Fig4() }},
		{"fig5", "Figure 5: precision vs recall (Twitter)", func(r *Runner) (fmt.Stringer, error) { return r.Fig5() }},
		{"fig6", "Figure 6: recall at N (DBLP)", func(r *Runner) (fmt.Stringer, error) { return r.Fig6() }},
		{"fig7", "Figure 7: precision vs recall (DBLP)", func(r *Runner) (fmt.Stringer, error) { return r.Fig7() }},
		{"fig8", "Figure 8: recall w.r.t. popularity", func(r *Runner) (fmt.Stringer, error) { return r.Fig8() }},
		{"fig9", "Figure 9: recall w.r.t. topic popularity", func(r *Runner) (fmt.Stringer, error) { return r.Fig9() }},
		{"fig10", "Figure 10: relevance scores (user validation Twitter)", func(r *Runner) (fmt.Stringer, error) { return r.Fig10() }},
		{"table3", "Table 3: user validation (DBLP)", func(r *Runner) (fmt.Stringer, error) { return r.Table3() }},
		{"table5", "Table 5: determining landmarks w.r.t. strategies", func(r *Runner) (fmt.Stringer, error) { return r.Table5() }},
		{"table6", "Table 6: comparison of the landmark selection strategies", func(r *Runner) (fmt.Stringer, error) { return r.Table6() }},
		{"pipeline", "Extra: Section 5.1 topic-extraction pipeline (classifier precision)", func(r *Runner) (fmt.Stringer, error) { return r.Pipeline() }},
		{"ext-dynamic", "Extension: landmark maintenance under graph updates (Section 6 future work)", func(r *Runner) (fmt.Stringer, error) { return r.ExtDynamic() }},
		{"ext-distrib", "Extension: partitioned deployment network costs (Section 6 future work)", func(r *Runner) (fmt.Stringer, error) { return r.ExtDistrib() }},
		{"ext-dblppipe", "Extension: paper-level DBLP construction (conference labeling + projection)", func(r *Runner) (fmt.Stringer, error) { return r.ExtDBLPPipe() }},
	}
}

// Lookup finds an experiment by id.
func Lookup(id string) (Experiment, bool) {
	for _, e := range All() {
		if e.ID == id {
			return e, true
		}
	}
	return Experiment{}, false
}

// IDs lists the experiment ids, sorted.
func IDs() []string {
	var ids []string
	for _, e := range All() {
		ids = append(ids, e.ID)
	}
	sort.Strings(ids)
	return ids
}

// RunAndPrint executes one experiment and writes its titled output.
func RunAndPrint(w io.Writer, r *Runner, id string) error {
	e, ok := Lookup(id)
	if !ok {
		return fmt.Errorf("experiments: unknown experiment %q (known: %s)", id, strings.Join(IDs(), ", "))
	}
	res, err := e.Run(r)
	if err != nil {
		return fmt.Errorf("experiments: %s: %w", id, err)
	}
	fmt.Fprintf(w, "== %s ==\n%s\n", e.Title, res.String())
	return nil
}

// RunJSON executes one experiment and writes a machine-readable JSON
// document ({"id","title","result"}) for plotting pipelines.
func RunJSON(w io.Writer, r *Runner, id string) error {
	e, ok := Lookup(id)
	if !ok {
		return fmt.Errorf("experiments: unknown experiment %q (known: %s)", id, strings.Join(IDs(), ", "))
	}
	res, err := e.Run(r)
	if err != nil {
		return fmt.Errorf("experiments: %s: %w", id, err)
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(map[string]any{"id": id, "title": e.Title, "result": res})
}

// PipelineResult reports the Section 5.1 labeling pipeline run.
type PipelineResult struct {
	Inner *classify.PipelineResult
}

// Pipeline runs the full synthetic-corpus labeling pipeline on the
// Twitter topology and reports classifier precision (the paper's SVM:
// 0.90).
func (r *Runner) Pipeline() (*PipelineResult, error) {
	tw, err := r.TwitterDataset()
	if err != nil {
		return nil, err
	}
	g := tw.Graph
	profiles := make([]topics.Set, g.NumNodes())
	for u := range profiles {
		profiles[u] = g.NodeTopics(graph.NodeID(u))
	}
	corpus := textgen.Generate(g.Vocabulary(), profiles, textgen.DefaultConfig())
	res, err := classify.RunPipeline(g, corpus, profiles, classify.DefaultPipelineConfig())
	if err != nil {
		return nil, err
	}
	return &PipelineResult{Inner: res}, nil
}

// String reports pipeline diagnostics.
func (p *PipelineResult) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "seed-tagged users:     %d\n", p.Inner.SeedUsers)
	fmt.Fprintf(&b, "classifier precision:  %.3f (paper's SVM: 0.90)\n", p.Inner.Classifier.Precision)
	fmt.Fprintf(&b, "classifier recall:     %.3f\n", p.Inner.Classifier.Recall)
	fmt.Fprintf(&b, "relabeled edges:       %d\n", p.Inner.Graph.NumEdges())
	return b.String()
}
