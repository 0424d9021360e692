package stats

import (
	"fmt"
	"math"
)

// Beta is a Beta(Alpha, BetaParam) distribution on [0, 1].
//
// Beta distributions serve two roles in this library: as parameter
// generators for fault probabilities in the scenario library, and as
// conjugate posteriors in the Bayesian-assessment extension.
type Beta struct {
	Alpha float64 // first shape parameter (α > 0)
	Beta  float64 // second shape parameter (β > 0)
}

// NewBeta returns a Beta distribution, or an error if either shape
// parameter is non-positive or non-finite.
func NewBeta(alpha, beta float64) (Beta, error) {
	if !(alpha > 0) || !(beta > 0) || math.IsInf(alpha, 0) || math.IsInf(beta, 0) {
		return Beta{}, fmt.Errorf("stats: NewBeta(%v, %v): shapes must be positive and finite", alpha, beta)
	}
	return Beta{Alpha: alpha, Beta: beta}, nil
}

// Mean returns alpha / (alpha + beta).
func (b Beta) Mean() float64 { return b.Alpha / (b.Alpha + b.Beta) }

// Variance returns the distribution variance.
func (b Beta) Variance() float64 {
	s := b.Alpha + b.Beta
	return b.Alpha * b.Beta / (s * s * (s + 1))
}

// PDF returns the density at x in [0, 1] (0 outside).
func (b Beta) PDF(x float64) float64 {
	if x < 0 || x > 1 {
		return 0
	}
	if x == 0 || x == 1 {
		// Density may be 0, finite or infinite at the endpoints
		// depending on the shapes; report the limit.
		switch {
		case x == 0 && b.Alpha < 1, x == 1 && b.Beta < 1:
			return math.Inf(1)
		case x == 0 && b.Alpha > 1, x == 1 && b.Beta > 1:
			return 0
		}
	}
	logPDF := (b.Alpha-1)*math.Log(x) + (b.Beta-1)*math.Log(1-x) - LogBeta(b.Alpha, b.Beta)
	return math.Exp(logPDF)
}

// CDF returns P(X <= x).
func (b Beta) CDF(x float64) (float64, error) {
	if x <= 0 {
		return 0, nil
	}
	if x >= 1 {
		return 1, nil
	}
	return BetaInc(b.Alpha, b.Beta, x)
}

// Quantile returns the p-th quantile by bisection on the CDF, accurate to
// ~1e-12. It returns an error if p is outside [0, 1].
func (b Beta) Quantile(p float64) (float64, error) {
	if math.IsNaN(p) || p < 0 || p > 1 {
		return 0, fmt.Errorf("stats: beta quantile requires p in [0, 1], got %v", p)
	}
	if p == 0 {
		return 0, nil
	}
	if p == 1 {
		return 1, nil
	}
	lo, hi := 0.0, 1.0
	for i := 0; i < 200; i++ {
		mid := (lo + hi) / 2
		c, err := b.CDF(mid)
		if err != nil {
			return 0, err
		}
		if c < p {
			lo = mid
		} else {
			hi = mid
		}
		if hi-lo < 1e-14 {
			break
		}
	}
	return (lo + hi) / 2, nil
}

// Binomial is a Binomial(N, P) distribution: the number of successes in N
// independent trials of probability P.
type Binomial struct {
	N int     // number of trials
	P float64 // per-trial success probability
}

// NewBinomial returns a Binomial distribution, or an error if n < 0 or p is
// outside [0, 1].
func NewBinomial(n int, p float64) (Binomial, error) {
	if n < 0 {
		return Binomial{}, fmt.Errorf("stats: NewBinomial(%d, %v): n must be non-negative", n, p)
	}
	if math.IsNaN(p) || p < 0 || p > 1 {
		return Binomial{}, fmt.Errorf("stats: NewBinomial(%d, %v): p must be in [0, 1]", n, p)
	}
	return Binomial{N: n, P: p}, nil
}

// Mean returns n*p.
func (b Binomial) Mean() float64 { return float64(b.N) * b.P }

// Variance returns n*p*(1-p).
func (b Binomial) Variance() float64 { return float64(b.N) * b.P * (1 - b.P) }

// PMF returns P(X = k).
func (b Binomial) PMF(k int) (float64, error) {
	if k < 0 || k > b.N {
		return 0, nil
	}
	switch b.P {
	case 0:
		if k == 0 {
			return 1, nil
		}
		return 0, nil
	case 1:
		if k == b.N {
			return 1, nil
		}
		return 0, nil
	}
	lc, err := LogChoose(b.N, k)
	if err != nil {
		return 0, err
	}
	return math.Exp(lc + float64(k)*math.Log(b.P) + float64(b.N-k)*math.Log(1-b.P)), nil
}

// CDF returns P(X <= k) via the incomplete beta identity
// P(X <= k) = I_{1-p}(n-k, k+1).
func (b Binomial) CDF(k int) (float64, error) {
	if k < 0 {
		return 0, nil
	}
	if k >= b.N {
		return 1, nil
	}
	if b.P == 0 {
		return 1, nil
	}
	if b.P == 1 {
		return 0, nil // k < N and all mass is at N.
	}
	return BetaInc(float64(b.N-k), float64(k)+1, 1-b.P)
}

// Poisson is a Poisson(Lambda) distribution.
type Poisson struct {
	Lambda float64 // rate (mean) parameter
}

// NewPoisson returns a Poisson distribution, or an error if lambda is
// negative or not finite.
func NewPoisson(lambda float64) (Poisson, error) {
	if math.IsNaN(lambda) || math.IsInf(lambda, 0) || lambda < 0 {
		return Poisson{}, fmt.Errorf("stats: NewPoisson(%v): lambda must be finite and non-negative", lambda)
	}
	return Poisson{Lambda: lambda}, nil
}

// Mean returns lambda.
func (p Poisson) Mean() float64 { return p.Lambda }

// Variance returns lambda.
func (p Poisson) Variance() float64 { return p.Lambda }

// PMF returns P(X = k).
func (p Poisson) PMF(k int) float64 {
	if k < 0 {
		return 0
	}
	if p.Lambda == 0 {
		if k == 0 {
			return 1
		}
		return 0
	}
	lgK, _ := math.Lgamma(float64(k) + 1)
	return math.Exp(float64(k)*math.Log(p.Lambda) - p.Lambda - lgK)
}

// CDF returns P(X <= k) via the incomplete gamma identity
// P(X <= k) = Q(k+1, lambda).
func (p Poisson) CDF(k int) (float64, error) {
	if k < 0 {
		return 0, nil
	}
	if p.Lambda == 0 {
		return 1, nil
	}
	return GammaQ(float64(k)+1, p.Lambda)
}
