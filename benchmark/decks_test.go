package main

import (
	"testing"

	"wavepipe"
)

// allTopologies is every topology a workload generates decks from.
func allTopologies() []topology {
	var out []topology
	for _, newSpec := range batchSpecs {
		s := newSpec(2)
		out = append(out, s.topologies...)
	}
	return append(out, svcTopologies...)
}

func size(t *testing.T, d Deck) (unknowns, nnz int) {
	t.Helper()
	parsed, err := wavepipe.ParseDeck(d.Text)
	if err != nil {
		t.Fatalf("%s: parse: %v", d.Name, err)
	}
	sys, err := parsed.Build()
	if err != nil {
		t.Fatalf("%s: build: %v", d.Name, err)
	}
	return sys.N, sys.PatternNNZ()
}

// TestGenerateSeeded pins the generator's contract: a seed reproduces its
// decks byte for byte, and another seed changes the values but not the
// work, so the system size and sparsity are the same for every seed.
func TestGenerateSeeded(t *testing.T) {
	for _, top := range allTopologies() {
		a, err := generate(top, 1, 0)
		if err != nil {
			t.Fatal(err)
		}
		again, err := generate(top, 1, 0)
		if err != nil {
			t.Fatal(err)
		}
		if a.Text != again.Text {
			t.Errorf("%s: seed 1 generated two different decks", top.name)
		}
		b, err := generate(top, 2, 0)
		if err != nil {
			t.Fatal(err)
		}
		if a.Text == b.Text {
			t.Errorf("%s: seeds 1 and 2 generated the same deck", top.name)
		}
		na, za := size(t, a)
		nb, zb := size(t, b)
		if na != nb || za != zb {
			t.Errorf("%s: seed 1 has %d unknowns/%d nonzeros, seed 2 has %d/%d", top.name, na, za, nb, zb)
		}
	}
}

// TestLadderStaysReducible checks that the jittered RC ladder is still a
// uniform line the reduction pass lumps, on more than one seed.
func TestLadderStaysReducible(t *testing.T) {
	spec := gridLinear(2)
	for _, seed := range []int64{1, 2, 3} {
		decks, err := spec.generateDecks(seed)
		if err != nil {
			t.Fatal(err)
		}
		prep, r, err := setup(spec, decks)
		if err != nil {
			t.Fatal(err)
		}
		for _, p := range prep {
			reduced := p.sys.Reduction() != nil
			if want := p.decks[0].Name == "ladder400"; reduced != want {
				t.Errorf("seed %d: %s reduced=%v, want %v", seed, p.decks[0].Name, reduced, want)
			}
		}
		if r.ReducedNodes >= r.Nodes {
			t.Errorf("seed %d: reduction kept all %d nodes", seed, r.Nodes)
		}
	}
}
