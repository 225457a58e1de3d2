package distrib

import (
	"testing"

	"repro/internal/gen"
)

// Ownership must be a pure function of the node id and the shard count:
// every shard worker computes the assignment independently from its
// flags, and the router can only check the shard count, so anything else
// (the edges, a seed) that moved ownership would silently double-count or
// drop nodes in the merge.
func TestPartitionDeterminism(t *testing.T) {
	a := gen.RandomWith(300, 2400, 9)
	b := gen.RandomWith(300, 600, 10)
	for _, parts := range []int{1, 3, 4} {
		ha, hb := HashPartition(a.Graph, parts), HashPartition(b.Graph, parts)
		for u := range ha.Of {
			if ha.Of[u] != u%parts || hb.Of[u] != u%parts {
				t.Fatalf("parts=%d: node %d assigned %d and %d, want %d", parts, u, ha.Of[u], hb.Of[u], u%parts)
			}
		}
	}
}

func TestAssignmentValidateRejections(t *testing.T) {
	ds := gen.RandomWith(50, 300, 1)
	ok := HashPartition(ds.Graph, 3)
	if err := ok.Validate(ds.Graph); err != nil {
		t.Fatalf("valid assignment rejected: %v", err)
	}

	short := Assignment{Of: make([]int, 49), Parts: 3}
	if err := short.Validate(ds.Graph); err == nil {
		t.Error("assignment missing a node must be rejected")
	}
	long := Assignment{Of: make([]int, 51), Parts: 3}
	if err := long.Validate(ds.Graph); err == nil {
		t.Error("assignment with extra nodes must be rejected")
	}
	over := HashPartition(ds.Graph, 3)
	over.Of[17] = 3
	if err := over.Validate(ds.Graph); err == nil {
		t.Error("partition index == Parts must be rejected")
	}
	neg := HashPartition(ds.Graph, 3)
	neg.Of[0] = -1
	if err := neg.Validate(ds.Graph); err == nil {
		t.Error("negative partition index must be rejected")
	}
}
