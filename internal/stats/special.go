// Package stats provides the probability and statistics substrate for the
// fault-creation model: continuous and discrete distributions with CDFs and
// quantile functions, descriptive statistics, empirical distributions,
// goodness-of-fit tests and Wilson confidence intervals.
//
// The Go standard library deliberately ships no statistics package; the
// paper's Section 5 (confidence bounds under the normal approximation) and
// the Monte-Carlo validation experiments need quantile functions and
// hypothesis tests, so they are implemented here from first principles on
// top of math.Erf, math.Lgamma and classical series/continued-fraction
// expansions (Abramowitz & Stegun; Numerical Recipes conventions).
package stats

import (
	"fmt"
	"math"
)

const (
	// epsSpecial is the relative convergence target for the series and
	// continued-fraction expansions below.
	epsSpecial = 1e-15
	// maxSpecialIter bounds expansion length; the expansions converge in
	// tens of iterations over the parameter ranges this library uses.
	maxSpecialIter = 600
	// tinyFloat guards continued-fraction denominators against zero.
	tinyFloat = 1e-300
)

// GammaP returns the regularized lower incomplete gamma function
// P(a, x) = γ(a, x) / Γ(a) for a > 0, x >= 0.
//
// P(a, x) is the CDF of the Gamma(a, 1) distribution and is the basis of
// the Poisson CDF and the chi-square test used in the goodness-of-fit
// experiments. It returns an error for invalid arguments or (unreachably,
// in practice) non-convergence.
func GammaP(a, x float64) (float64, error) {
	switch {
	case math.IsNaN(a) || math.IsNaN(x):
		return 0, fmt.Errorf("stats: GammaP(%v, %v): NaN argument", a, x)
	case a <= 0:
		return 0, fmt.Errorf("stats: GammaP(%v, %v): shape must be positive", a, x)
	case x < 0:
		return 0, fmt.Errorf("stats: GammaP(%v, %v): x must be non-negative", a, x)
	case x == 0:
		return 0, nil
	case math.IsInf(x, 1):
		return 1, nil
	}
	if x < a+1 {
		p, err := gammaPSeries(a, x)
		return p, err
	}
	q, err := gammaQContinuedFraction(a, x)
	if err != nil {
		return 0, err
	}
	return 1 - q, nil
}

// GammaQ returns the regularized upper incomplete gamma function
// Q(a, x) = 1 - P(a, x).
func GammaQ(a, x float64) (float64, error) {
	switch {
	case math.IsNaN(a) || math.IsNaN(x):
		return 0, fmt.Errorf("stats: GammaQ(%v, %v): NaN argument", a, x)
	case a <= 0:
		return 0, fmt.Errorf("stats: GammaQ(%v, %v): shape must be positive", a, x)
	case x < 0:
		return 0, fmt.Errorf("stats: GammaQ(%v, %v): x must be non-negative", a, x)
	case x == 0:
		return 1, nil
	case math.IsInf(x, 1):
		return 0, nil
	}
	if x < a+1 {
		p, err := gammaPSeries(a, x)
		if err != nil {
			return 0, err
		}
		return 1 - p, nil
	}
	return gammaQContinuedFraction(a, x)
}

// gammaPSeries evaluates P(a, x) by the power series, valid for x < a+1.
func gammaPSeries(a, x float64) (float64, error) {
	lg, _ := math.Lgamma(a)
	ap := a
	sum := 1 / a
	del := sum
	for i := 0; i < maxSpecialIter; i++ {
		ap++
		del *= x / ap
		sum += del
		if math.Abs(del) < math.Abs(sum)*epsSpecial {
			return sum * math.Exp(-x+a*math.Log(x)-lg), nil
		}
	}
	return 0, fmt.Errorf("stats: GammaP(%v, %v): series did not converge", a, x)
}

// gammaQContinuedFraction evaluates Q(a, x) by the Lentz continued
// fraction, valid for x >= a+1.
func gammaQContinuedFraction(a, x float64) (float64, error) {
	lg, _ := math.Lgamma(a)
	b := x + 1 - a
	c := 1 / tinyFloat
	d := 1 / b
	h := d
	for i := 1; i <= maxSpecialIter; i++ {
		an := -float64(i) * (float64(i) - a)
		b += 2
		d = an*d + b
		if math.Abs(d) < tinyFloat {
			d = tinyFloat
		}
		c = b + an/c
		if math.Abs(c) < tinyFloat {
			c = tinyFloat
		}
		d = 1 / d
		del := d * c
		h *= del
		if math.Abs(del-1) < epsSpecial {
			return math.Exp(-x+a*math.Log(x)-lg) * h, nil
		}
	}
	return 0, fmt.Errorf("stats: GammaQ(%v, %v): continued fraction did not converge", a, x)
}

// BetaInc returns the regularized incomplete beta function
// I_x(a, b) for a, b > 0 and x in [0, 1].
//
// I_x(a, b) is the CDF of the Beta(a, b) distribution and also yields the
// binomial CDF, both of which back the Bayesian-assessment extension and
// the distribution tests.
func BetaInc(a, b, x float64) (float64, error) {
	switch {
	case math.IsNaN(a) || math.IsNaN(b) || math.IsNaN(x):
		return 0, fmt.Errorf("stats: BetaInc(%v, %v, %v): NaN argument", a, b, x)
	case a <= 0 || b <= 0:
		return 0, fmt.Errorf("stats: BetaInc(%v, %v, %v): shape parameters must be positive", a, b, x)
	case x < 0 || x > 1:
		return 0, fmt.Errorf("stats: BetaInc(%v, %v, %v): x must be in [0, 1]", a, b, x)
	case x == 0:
		return 0, nil
	case x == 1:
		return 1, nil
	}
	lgA, _ := math.Lgamma(a)
	lgB, _ := math.Lgamma(b)
	lgAB, _ := math.Lgamma(a + b)
	front := math.Exp(lgAB - lgA - lgB + a*math.Log(x) + b*math.Log(1-x))
	if x < (a+1)/(a+b+2) {
		cf, err := betaContinuedFraction(a, b, x)
		if err != nil {
			return 0, err
		}
		return front * cf / a, nil
	}
	cf, err := betaContinuedFraction(b, a, 1-x)
	if err != nil {
		return 0, err
	}
	return 1 - front*cf/b, nil
}

// betaContinuedFraction evaluates the Lentz continued fraction for the
// incomplete beta function.
func betaContinuedFraction(a, b, x float64) (float64, error) {
	qab := a + b
	qap := a + 1
	qam := a - 1
	c := 1.0
	d := 1 - qab*x/qap
	if math.Abs(d) < tinyFloat {
		d = tinyFloat
	}
	d = 1 / d
	h := d
	for m := 1; m <= maxSpecialIter; m++ {
		fm := float64(m)
		m2 := 2 * fm
		aa := fm * (b - fm) * x / ((qam + m2) * (a + m2))
		d = 1 + aa*d
		if math.Abs(d) < tinyFloat {
			d = tinyFloat
		}
		c = 1 + aa/c
		if math.Abs(c) < tinyFloat {
			c = tinyFloat
		}
		d = 1 / d
		h *= d * c
		aa = -(a + fm) * (qab + fm) * x / ((a + m2) * (qap + m2))
		d = 1 + aa*d
		if math.Abs(d) < tinyFloat {
			d = tinyFloat
		}
		c = 1 + aa/c
		if math.Abs(c) < tinyFloat {
			c = tinyFloat
		}
		d = 1 / d
		del := d * c
		h *= del
		if math.Abs(del-1) < epsSpecial {
			return h, nil
		}
	}
	return 0, fmt.Errorf("stats: BetaInc continued fraction did not converge for a=%v b=%v x=%v", a, b, x)
}

// LogBeta returns ln B(a, b) = ln Γ(a) + ln Γ(b) - ln Γ(a+b).
func LogBeta(a, b float64) float64 {
	lgA, _ := math.Lgamma(a)
	lgB, _ := math.Lgamma(b)
	lgAB, _ := math.Lgamma(a + b)
	return lgA + lgB - lgAB
}

// LogChoose returns ln C(n, k) using log-gamma, valid for 0 <= k <= n.
func LogChoose(n, k int) (float64, error) {
	if k < 0 || n < 0 || k > n {
		return 0, fmt.Errorf("stats: LogChoose(%d, %d): arguments out of range", n, k)
	}
	lgN, _ := math.Lgamma(float64(n) + 1)
	lgK, _ := math.Lgamma(float64(k) + 1)
	lgNK, _ := math.Lgamma(float64(n-k) + 1)
	return lgN - lgK - lgNK, nil
}
