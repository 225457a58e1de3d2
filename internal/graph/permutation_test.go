package graph

import "testing"

// TestPermutationValidation rejects non-bijections.
func TestPermutationValidation(t *testing.T) {
	if _, err := PermutationFromForward([]NodeID{0, 0}); err == nil {
		t.Error("duplicate image accepted")
	}
	if _, err := PermutationFromForward([]NodeID{0, 5}); err == nil {
		t.Error("out-of-range image accepted")
	}
	p, err := PermutationFromForward([]NodeID{2, 0, 1})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		if p.Back(p.Apply(NodeID(i))) != NodeID(i) {
			t.Errorf("Back(Apply(%d)) != %d", i, i)
		}
	}
}
