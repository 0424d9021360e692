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
// diversity/engine/v3, v4, v5, v6 and v7 changed only the domain prefix.
// Regenerate deliberately — only with a hashDomain bump — via: go test
// ./internal/engine -run TestLegacySpecHashContract -v (the failure
// message prints got hashes).
var legacyHashes = map[string]string{
	"mc-scenario-default-arch": "e85f887d64f7c4d653cd8b5e7296dd6c9b69456177a168c0c7682c17dc978814",
	"mc-majority":              "5bb1618aacd65e62aca64e337041f5ca812f1c6b8f1a0e8627a261e028e1ee75",
	"mc-inline-stream-sparse":  "d9e0f8b5e906e1fcfa5f519867ff83203589c283f9694290f0305f2ef9f7d69b",
	"rare-event":               "3aebe4dfb21e49205448c233b958848ad92451998d8028369afa7a503f788ebd",
	"experiments":              "798a3c908330dd83382ef5b873b5dcb41e00648fd49eb6cae99f830d997205a7",
	"analytic":                 "620230b2c9d3790fb563118f170e3e08ad7654f29a22db71b898018f38f608dc",
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

// TestBatchWidthHashContract proves that the batchWidth field, which
// older clients still send and every run now ignores, leaves the job
// hash alone: unset, 0, 1 and 64 all hash to the legacy spec's hash, for
// every spec kind that carries the field.
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
		for _, w := range []int{0, 1, 64} {
			got, err := withWidth(base, w).Hash()
			if err != nil {
				t.Fatalf("%s width %d: Hash: %v", name, w, err)
			}
			if got != legacy {
				t.Errorf("%s: BatchWidth %d moved the legacy hash:\n got  %s\n want %s", name, w, got, legacy)
			}
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
