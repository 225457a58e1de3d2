package graph_test

import (
	"fmt"
	"testing"

	"repro/internal/gen"
	"repro/internal/graph"
)

// BenchmarkBFSOut is one depth-2 out-traversal on the 2000- and 8000-node
// Twitter graphs, the walk dynamic.Manager.Neighborhood takes after every
// standing-query re-score; sources cycle over every node. reached/op is
// the mean number of nodes visited.
func BenchmarkBFSOut(b *testing.B) {
	for _, nodes := range []int{2000, 8000} {
		b.Run(fmt.Sprintf("g%dk", nodes/1000), func(b *testing.B) {
			cfg := gen.DefaultTwitterConfig()
			cfg.Nodes = nodes
			ds, err := gen.Twitter(cfg)
			if err != nil {
				b.Fatal(err)
			}
			reached := 0
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				graph.BFSOut(ds.Graph, graph.NodeID(i%nodes), 2, func(graph.NodeID, int) bool {
					reached++
					return true
				})
			}
			b.ReportMetric(float64(reached)/float64(b.N), "reached/op")
		})
	}
}
