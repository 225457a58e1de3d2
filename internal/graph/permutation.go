package graph

import "fmt"

// Permutation is a bijective relabeling of the n node ids. It maps
// "external" ids (the API-visible numbering) to "internal" ids and back.
// The TRG2 snapshot format can embed one (store.WriteSnapshot's perm
// section); nothing in this module explores a relabeled graph.
type Permutation struct {
	fwd []NodeID // external -> internal
	inv []NodeID // internal -> external
}

// PermutationFromForward builds a Permutation from an external→internal
// map, validating that it is a bijection on [0, len(fwd)).
func PermutationFromForward(fwd []NodeID) (Permutation, error) {
	n := len(fwd)
	inv := make([]NodeID, n)
	seen := make([]bool, n)
	for ext, in := range fwd {
		if int(in) >= n {
			return Permutation{}, fmt.Errorf("graph: permutation maps %d to %d, beyond %d nodes", ext, in, n)
		}
		if seen[in] {
			return Permutation{}, fmt.Errorf("graph: permutation maps two nodes to %d", in)
		}
		seen[in] = true
		inv[in] = NodeID(ext)
	}
	return Permutation{fwd: append([]NodeID(nil), fwd...), inv: inv}, nil
}

// Len returns the number of nodes the permutation covers.
func (p Permutation) Len() int { return len(p.fwd) }

// Apply maps an external id to its internal id.
func (p Permutation) Apply(u NodeID) NodeID { return p.fwd[u] }

// Back maps an internal id back to its external id.
func (p Permutation) Back(u NodeID) NodeID { return p.inv[u] }

// Forward returns the permutation's external→internal map. The slice
// aliases internal storage and must not be modified; it is what a
// snapshot's perm section serializes.
func (p Permutation) Forward() []NodeID { return p.fwd }
