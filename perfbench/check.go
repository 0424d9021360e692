package main

import (
	"errors"
	"fmt"
	"math"
	"sync"

	"diversity/internal/engine"
	"diversity/internal/system"
)

// falseAlarm is the probability that a correct result fails the check of
// one of its populations.
const falseAlarm = 1e-9

// population is the part of a PFD summary the checks read.
type population struct {
	N    int     `json:"n"`
	Mean float64 `json:"mean"`
}

// closedForm is a PFD population's exact mean and variance, and the
// largest PFD one replication can have.
type closedForm struct {
	mean, variance, max float64
}

// tolerance returns the Bernstein bound ε: the mean of n independent
// replications strays from the closed-form mean by ε or more with
// probability at most falseAlarm. Unlike a z-score with the sample
// standard deviation, it holds for the rare, skewed system PFDs of the
// safety-grade model, where a handful of replications carry all the mass
// and the sample deviation is itself unreliable.
func (c closedForm) tolerance(n int) float64 {
	l := math.Log(2 / falseAlarm)
	b := 2 * c.max * l / 3
	return (b + math.Sqrt(b*b+8*float64(n)*c.variance*l)) / (2 * float64(n))
}

// checker tests every result a workload receives: the version and system
// means against the model's closed forms (FaultSet.MeanPFD(1) and
// system.MeanSystemPFD, with their exact variances), and every result of
// a pooled spec against the first computation of that spec.
type checker struct {
	version, system closedForm

	mu    sync.Mutex
	first map[int]pooled // by pool index
}

// pooled is the identity of a pooled spec's first computed result.
type pooled struct {
	jobID string
	mean  float64
}

func newChecker(w workload) (*checker, error) {
	spec := w.spec(0, -1).job.MonteCarlo
	fs, _, err := spec.Model.Resolve()
	if err != nil {
		return nil, err
	}
	adj, err := engine.ResolveAdjudicator(spec.Arch, spec.Adjudicator, spec.Versions)
	if err != nil {
		return nil, err
	}
	mean1, err := fs.MeanPFD(1)
	if err != nil {
		return nil, err
	}
	meanSys, err := system.MeanSystemPFD(fs, adj, spec.Versions)
	if err != nil {
		return nil, err
	}
	// Faults are introduced independently, so a PFD is a sum of
	// independent scaled Bernoulli terms and the variances add.
	var var1, varSys float64
	for i := range fs.N() {
		f := fs.Fault(i)
		d := system.DefeatProbability(adj, spec.Versions, f.P)
		var1 += f.P * (1 - f.P) * f.Q * f.Q
		varSys += d * (1 - d) * f.Q * f.Q
	}
	return &checker{
		version: closedForm{mean: mean1, variance: var1, max: fs.SumQ()},
		system:  closedForm{mean: meanSys, variance: varSys, max: fs.SumQ()},
		first:   map[int]pooled{},
	}, nil
}

// checkResult tests an engine result.
func (c *checker) checkResult(pool int, res *engine.Result) error {
	if res.MonteCarlo == nil {
		return errors.New("result carries no Monte-Carlo payload")
	}
	v, err := res.MonteCarlo.VersionSummary()
	if err != nil {
		return err
	}
	s, err := res.MonteCarlo.SystemSummary()
	if err != nil {
		return err
	}
	return c.check(pool, res.ID,
		population{N: v.N, Mean: v.Mean},
		population{N: s.N, Mean: s.Mean})
}

// checkView tests a done event's job view.
func (c *checker) checkView(pool int, v doneView) error {
	switch {
	case v.Status != "done":
		return fmt.Errorf("job ended %s: %s", v.Status, v.Error)
	case v.Result == nil || v.Result.MonteCarlo == nil:
		return errors.New("done view carries no Monte-Carlo result")
	case v.Started == nil || v.Finished == nil:
		return errors.New("done view lacks its started or finished time")
	}
	return c.check(pool, v.Result.JobID, v.Result.MonteCarlo.Version, v.Result.MonteCarlo.System)
}

func (c *checker) check(pool int, jobID string, version, sys population) error {
	if err := meanCheck("version", version, c.version); err != nil {
		return err
	}
	if err := meanCheck("system", sys, c.system); err != nil {
		return err
	}
	if pool < 0 {
		return nil
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	first, ok := c.first[pool]
	if !ok {
		c.first[pool] = pooled{jobID: jobID, mean: sys.Mean}
		return nil
	}
	if jobID != first.jobID || sys.Mean != first.mean {
		return fmt.Errorf("pooled spec %d answered job %s with system mean %v; its first computation was job %s with %v",
			pool, jobID, sys.Mean, first.jobID, first.mean)
	}
	return nil
}

// meanCheck tests a sample mean against its closed form.
func meanCheck(what string, p population, want closedForm) error {
	if p.N < 1 {
		return fmt.Errorf("%s population is empty", what)
	}
	tol := want.tolerance(p.N)
	if !(math.Abs(p.Mean-want.mean) <= tol) {
		return fmt.Errorf("%s mean PFD %v of %d replications is off the closed form %v by more than %.3g",
			what, p.Mean, p.N, want.mean, tol)
	}
	return nil
}
