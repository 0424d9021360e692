// Package system assembles developed program versions into redundant
// system architectures and computes their probability of failure on demand
// at failure-region granularity.
//
// The paper studies the 1-out-of-2 protection configuration of Fig. 1: two
// channels whose binary shutdown outputs are OR-ed, so the system fails on
// a demand only when every channel fails on it. Under the disjoint-region
// model a region causes system failure exactly when the corresponding
// fault is present in all channels. The package generalises this to
// N-version pools combined by an Adjudicator: 1-out-of-N, strict
// majority, k-of-N, and any of these behind an imperfect adjudication
// stage.
package system

import (
	"errors"
	"fmt"

	"diversity/internal/devsim"
	"diversity/internal/faultmodel"
)

// ErrNoVersions is returned when a system is assembled with no versions.
var ErrNoVersions = errors.New("system: at least one version is required")

// System is a redundant software system: a set of versions over a common
// fault universe combined by an adjudicator.
type System struct {
	fs       *faultmodel.FaultSet
	versions []*devsim.Version
	adj      Adjudicator
}

// NewVoted assembles a system from an adjudicator. It returns
// ErrNoVersions for an empty pool, the adjudicator's *VersionCountError
// for a pool size the rule cannot vote over, and an error if any version
// was developed against a different fault universe size than fs.
func NewVoted(fs *faultmodel.FaultSet, adj Adjudicator, versions ...*devsim.Version) (*System, error) {
	if len(versions) == 0 {
		return nil, ErrNoVersions
	}
	if adj == nil {
		return nil, errors.New("system: adjudicator must not be nil")
	}
	if err := adj.Validate(len(versions)); err != nil {
		return nil, err
	}
	for i, v := range versions {
		if v.NumPotential() != fs.N() {
			return nil, fmt.Errorf("system: version %d has %d potential faults, fault set has %d", i, v.NumPotential(), fs.N())
		}
	}
	s := &System{fs: fs, versions: make([]*devsim.Version, len(versions)), adj: adj}
	copy(s.versions, versions)
	return s, nil
}

// NumVersions returns the number of channels.
func (s *System) NumVersions() int { return len(s.versions) }

// Adjudicator returns the system's adjudicator.
func (s *System) Adjudicator() Adjudicator { return s.adj }

// FailsOnFault reports whether the region of potential fault i defeats
// the whole system: the number of versions carrying the fault reaches the
// adjudicator's defeat threshold (all versions for 1-out-of-N, more than
// half for majority). It panics if i is out of range, mirroring slice
// indexing.
func (s *System) FailsOnFault(i int) bool {
	count := 0
	for _, v := range s.versions {
		if v.Has(i) {
			count++
		}
	}
	return s.adj.Defeated(count, len(s.versions))
}

// PFD returns the system probability of failure on demand: the summed
// region probabilities of the faults that defeat the system, composed
// with the adjudication stage's own failure probability when the
// adjudicator carries one (ImperfectAdjudicator).
func (s *System) PFD() float64 {
	sum := 0.0
	for i := 0; i < s.fs.N(); i++ {
		if s.FailsOnFault(i) {
			sum += s.fs.Fault(i).Q
		}
	}
	return ApplyStagePFD(s.adj, sum)
}

// SystemFaultCount returns the number of potential faults that defeat the
// system.
func (s *System) SystemFaultCount() int {
	count := 0
	for i := 0; i < s.fs.N(); i++ {
		if s.FailsOnFault(i) {
			count++
		}
	}
	return count
}
