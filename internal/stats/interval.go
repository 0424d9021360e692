package stats

import (
	"fmt"
	"math"
)

// WilsonInterval returns the Wilson score interval for a binomial
// proportion with successes out of trials at the given confidence level.
// It is used for Monte-Carlo estimates of event probabilities such as
// P(no common fault), where the normal ("Wald") interval misbehaves for
// proportions near 0.
func WilsonInterval(successes, trials int, level float64) (lo, hi float64, err error) {
	if trials <= 0 {
		return 0, 0, fmt.Errorf("stats: Wilson interval requires positive trials, got %d", trials)
	}
	if successes < 0 || successes > trials {
		return 0, 0, fmt.Errorf("stats: Wilson interval successes %d out of range [0, %d]", successes, trials)
	}
	if level <= 0 || level >= 1 {
		return 0, 0, fmt.Errorf("stats: Wilson interval level must be in (0, 1), got %v", level)
	}
	z, err := StdNormal.Quantile(1 - (1-level)/2)
	if err != nil {
		return 0, 0, err
	}
	n := float64(trials)
	p := float64(successes) / n
	z2 := z * z
	denom := 1 + z2/n
	center := (p + z2/(2*n)) / denom
	half := z / denom * sqrtNonNeg(p*(1-p)/n+z2/(4*n*n))
	return center - half, center + half, nil
}

func sqrtNonNeg(x float64) float64 {
	if x <= 0 {
		return 0
	}
	return math.Sqrt(x)
}
