package engine

import (
	"testing"

	"diversity/internal/faultmodel"
)

// legacySpecs enumerates job specs exactly as a pre-N-version client would
// have written them: two-version systems with the legacy Arch field (or its
// default), no adjudicator. Their canonical hashes — and hence cache keys
// and job-<hash16> IDs — are pinned below; the N-version generalisation
// must never move them, or every persisted job ID and warm cache entry
// from an older client silently misses.
func legacySpecs() map[string]Job {
	inline := []faultmodel.Fault{{P: 0.3, Q: 0.05}, {P: 0.2, Q: 0.08}}
	return map[string]Job{
		"mc-scenario-default-arch": NewMonteCarloJob(MonteCarloSpec{
			Model:    ModelSpec{Scenario: "commercial-grade", ScenarioSeed: 1},
			Versions: 2, Reps: 200000, Workers: 4, Seed: 1,
		}),
		"mc-majority": NewMonteCarloJob(MonteCarloSpec{
			Model:    ModelSpec{Scenario: "safety-grade", ScenarioSeed: 1},
			Versions: 3, Arch: "majority", Reps: 50000, Workers: 2, Seed: 7,
		}),
		"mc-inline-stream-sparse": NewMonteCarloJob(MonteCarloSpec{
			Model:    ModelSpec{Faults: inline, Name: "inline"},
			Versions: 2, Reps: 10000, Workers: 1, Seed: 3,
			Streaming: true, Sparse: true,
		}),
		"rare-event": NewRareEventJob(RareEventSpec{
			Model:    ModelSpec{Scenario: "safety-grade", ScenarioSeed: 2},
			Versions: 2, Reps: 100000, Seed: 5,
		}),
		"experiments": NewExperimentsJob(ExperimentsSpec{
			IDs: []string{"E19"}, Seed: 1, Quick: true,
		}),
		"analytic": NewAnalyticJob(AnalyticSpec{
			Model: ModelSpec{Scenario: "many-small-faults", ScenarioSeed: 1},
			K:     1.5, Confidence: 0.99,
		}),
	}
}

// legacyHashes pins the canonical hash of each legacy spec. They were
// captured before the adjudicator refactor and re-pinned once with each
// hashDomain bump: diversity/engine/v2 left every legacy document
// unchanged except that workers no longer appears in it, and
// diversity/engine/v3 changed only the domain prefix. Regenerate
// deliberately — only with a hashDomain bump — via: go test
// ./internal/engine -run TestLegacySpecHashContract -v (the failure
// message prints got hashes).
var legacyHashes = map[string]string{
	"mc-scenario-default-arch": "3401106c517a673c3704a6292bc0b0907a0d647118c18183a1625f8082c27075",
	"mc-majority":              "74a1a78c07b1d8854c9273783af7d827c170c362451fb793d0b40bd4a218d016",
	"mc-inline-stream-sparse":  "db4e476e462e67711299c2ac0b5ee5c6d873a84db886d781b568ab8451c6c538",
	"rare-event":               "70c295ddfc9da96879c01bbfc4947ae7fea233ae8b3d0293cd3fccae227e35d3",
	"experiments":              "b392922529f5d0f2256d8b006d9bc617fe72ea26bd11a7af312efc49cf29fd9e",
	"analytic":                 "7c1fcf0c35b49e30b504947a672970940e02a921482d6debc297c6c91a21f8ed",
}

// TestLegacySpecHashContract proves that pre-refactor 1oo2 (and legacy
// Arch-field) specs hash — and therefore cache-key and job-ID — identically
// after the N-version generalisation.
func TestLegacySpecHashContract(t *testing.T) {
	for name, job := range legacySpecs() {
		got, err := job.Hash()
		if err != nil {
			t.Errorf("%s: Hash: %v", name, err)
			continue
		}
		if want := legacyHashes[name]; got != want {
			t.Errorf("%s: hash drifted:\n got  %s\n want %s", name, got, want)
		}
	}
}

// TestBatchWidthHashContract proves the batchWidth field's hash rules:
// unset, 0, and 1 all hash identically to the legacy spec (width 1 is
// the same computation as off, and omitempty keeps the legacy document
// byte-identical), while an active width >= 2 — which draws a different
// variate sequence — hashes differently.
func TestBatchWidthHashContract(t *testing.T) {
	for name, base := range legacySpecs() {
		withWidth := func(j Job, w int) Job {
			switch j.Kind {
			case JobMonteCarlo:
				spec := *j.MonteCarlo
				spec.BatchWidth = w
				j.MonteCarlo = &spec
			case JobRareEvent:
				spec := *j.RareEvent
				spec.BatchWidth = w
				j.RareEvent = &spec
			case JobExperiments:
				spec := *j.Experiments
				spec.BatchWidth = w
				j.Experiments = &spec
			}
			return j
		}
		legacy := legacyHashes[name]
		for _, w := range []int{0, 1} {
			got, err := withWidth(base, w).Hash()
			if err != nil {
				t.Fatalf("%s width %d: Hash: %v", name, w, err)
			}
			if got != legacy {
				t.Errorf("%s: BatchWidth %d moved the legacy hash:\n got  %s\n want %s", name, w, got, legacy)
			}
		}
		if base.Kind == JobAnalytic {
			continue // analytic jobs have no batch width
		}
		got, err := withWidth(base, 64).Hash()
		if err != nil {
			t.Fatalf("%s width 64: Hash: %v", name, err)
		}
		if got == legacy {
			t.Errorf("%s: BatchWidth 64 did not change the hash — batched results would poison the dense cache", name)
		}
	}
}

// TestBatchWidthValidation: the spec-level bounds are enforced before
// any work or cache access.
func TestBatchWidthValidation(t *testing.T) {
	for _, w := range []int{-1, maxBatchWidth + 1} {
		job := NewMonteCarloJob(MonteCarloSpec{
			Model:    ModelSpec{Scenario: "commercial-grade", ScenarioSeed: 1},
			Versions: 2, Reps: 100, Seed: 1, BatchWidth: w,
		})
		if err := job.Validate(); err == nil {
			t.Errorf("montecarlo spec accepted batch width %d", w)
		}
		rare := NewRareEventJob(RareEventSpec{
			Model:    ModelSpec{Scenario: "safety-grade", ScenarioSeed: 1},
			Versions: 2, Reps: 100, Seed: 1, BatchWidth: w,
		})
		if err := rare.Validate(); err == nil {
			t.Errorf("rare-event spec accepted batch width %d", w)
		}
		exp := NewExperimentsJob(ExperimentsSpec{Seed: 1, Quick: true, BatchWidth: w})
		if err := exp.Validate(); err == nil {
			t.Errorf("experiments spec accepted batch width %d", w)
		}
	}
}
