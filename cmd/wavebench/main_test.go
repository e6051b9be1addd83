package main

import (
	"testing"
	"time"

	"wavepipe/internal/circuits"
)

func TestFindBench(t *testing.T) {
	for _, b := range circuits.Suite() {
		got, ok := findBench(b.Name)
		if !ok || got.Name != b.Name {
			t.Fatalf("findBench(%q) failed", b.Name)
		}
	}
	if _, ok := findBench("nope"); ok {
		t.Fatal("findBench invented a circuit")
	}
}

func TestUnitHelpers(t *testing.T) {
	if got := ms(1500 * time.Microsecond); got != 1.5 {
		t.Fatalf("ms = %g", got)
	}
}

func TestTable1Renders(t *testing.T) {
	// Table 1 builds every suite circuit; it must succeed end to end.
	if err := table1(); err != nil {
		t.Fatal(err)
	}
}

func TestWindowQuickScaling(t *testing.T) {
	b, _ := findBench("ring9")
	full := window(b)
	*quick = true
	defer func() { *quick = false }()
	if got := window(b); got != full/5 {
		t.Fatalf("quick window = %g, want %g", got, full/5)
	}
}
