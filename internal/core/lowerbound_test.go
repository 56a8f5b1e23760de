package core

import (
	"testing"

	"densestream/internal/gen"
)

// The Lemma 7 reduction: a constant-factor approximation must be able to
// distinguish YES instances (one q-clique among stars) from NO instances
// (all stars), because ρ = (q-1)/2 vs ρ = 1 - 1/q. This exercises the
// gadget end-to-end through Algorithm 1.
func TestDisjointnessSeparation(t *testing.T) {
	const nGadgets, q = 40, 8
	yes, err := gen.DisjointnessInstance(nGadgets, q, 17)
	if err != nil {
		t.Fatal(err)
	}
	no, err := gen.DisjointnessInstance(nGadgets, q, -1)
	if err != nil {
		t.Fatal(err)
	}
	// α = 2+2ε must be below the gap (q-1)/2 / (1-1/q) = q/2 for the
	// distinction to be forced; ε=0.5 gives α=3 < 4.
	yesR, err := Undirected(yes, 0.5, Opts{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	noR, err := Undirected(no, 0.5, Opts{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	gapThreshold := float64(q-1) / 2 / 3 // clique density / α
	if yesR.Density < gapThreshold {
		t.Fatalf("YES instance density %v below %v: approximation cannot separate", yesR.Density, gapThreshold)
	}
	if noR.Density >= gapThreshold {
		t.Fatalf("NO instance density %v at or above %v", noR.Density, gapThreshold)
	}
	// The YES witness should be exactly the planted clique.
	if len(yesR.Set) != q {
		t.Fatalf("YES witness size %d, want the %d-clique", len(yesR.Set), q)
	}
	base := int32(17 * q)
	for _, u := range yesR.Set {
		if u < base || u >= base+q {
			t.Fatalf("witness node %d outside the planted clique [%d,%d)", u, base, base+q)
		}
	}
}
