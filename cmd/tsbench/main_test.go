package main

import (
	"testing"

	"repro/internal/experiments"
)

func TestRunSubset(t *testing.T) {
	// A tiny run of the non-sweep experiments plus one sweep-backed
	// table, mostly to keep the wiring honest.
	p := experiments.Params{Ops: 800, ValueSize: 16, Seed: 1}
	if err := run(map[string]bool{"E5": true, "E9": true}, p); err != nil {
		t.Fatal(err)
	}
}

func TestRunSweepBacked(t *testing.T) {
	if testing.Short() {
		t.Skip("sweep is slow")
	}
	p := experiments.Params{Ops: 800, ValueSize: 16, Seed: 1}
	if err := run(map[string]bool{"E1": true, "E4": true, "E8": true}, p); err != nil {
		t.Fatal(err)
	}
}
