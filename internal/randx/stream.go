package randx

import (
	"fmt"
	"math"
	"math/bits"
)

// Stream couples a Source with samplers for the distributions used by the
// fault-creation model and its Monte-Carlo harness. All methods are
// deterministic functions of the seed, so every experiment in this
// repository is exactly reproducible.
//
// A Stream is not safe for concurrent use; give each goroutine its own,
// keyed by the work it draws for with SeedAt.
type Stream struct {
	src *Source

	// Spare normal variate from the last Marsaglia polar draw, if any.
	hasGauss bool
	gauss    float64
}

// NewStream returns a Stream seeded with seed.
func NewStream(seed uint64) *Stream {
	return &Stream{src: NewSource(seed)}
}

// SeedAt reseeds r in place as member index of the family of streams
// keyed by seed, so the randomness of work item index does not depend on
// the order work is done in. The index-th SplitMix64 output from seed,
// computed directly, seeds xoshiro256** exactly as NewStream does.
func (r *Stream) SeedAt(seed, index uint64) {
	key := seed + index*0x9e3779b97f4a7c15
	r.src.reseed(splitMix64(&key))
	r.hasGauss = false
}

// Uint64 returns 64 uniform random bits.
func (r *Stream) Uint64() uint64 { return r.src.Uint64() }

// Float64 returns a uniform variate in [0, 1) with 53 random bits.
func (r *Stream) Float64() float64 {
	return float64(r.src.Uint64()>>11) * 0x1p-53
}

// Float64Open returns a uniform variate in the open interval (0, 1),
// suitable as input to inverse-CDF transforms that diverge at 0 or 1.
func (r *Stream) Float64Open() float64 {
	for {
		u := r.Float64()
		if u > 0 {
			return u
		}
	}
}

// IntN returns a uniform integer in [0, n). It panics if n <= 0, matching
// the contract of math/rand.
func (r *Stream) IntN(n int) int {
	if n <= 0 {
		panic(fmt.Sprintf("randx: IntN called with non-positive n %d", n))
	}
	// Lemire's nearly-divisionless bounded generation.
	bound := uint64(n)
	x := r.src.Uint64()
	hi, lo := bits.Mul64(x, bound)
	if lo < bound {
		threshold := -bound % bound
		for lo < threshold {
			x = r.src.Uint64()
			hi, lo = bits.Mul64(x, bound)
		}
	}
	return int(hi)
}

// Bernoulli returns true with probability p. Values of p outside [0, 1]
// are clamped: p <= 0 never succeeds and p >= 1 always succeeds. The
// clamp branches also skip the uniform draw for degenerate p; hot loops
// whose p is already validated can avoid them with BernoulliValidated.
func (r *Stream) Bernoulli(p float64) bool {
	if p <= 0 {
		return false
	}
	if p >= 1 {
		return true
	}
	return r.Float64() < p
}

// BernoulliValidated returns true with probability p, assuming the caller
// has already established p ∈ [0, 1] — the fault-creation processes
// validate every presence probability once at construction (faultmodel
// validation), so their per-fault inner loops need no per-draw clamp.
// Unlike Bernoulli it always consumes exactly one variate, including for
// p = 0 (never true: Float64 < 0 is impossible) and p = 1 (always true:
// Float64 < 1 always holds).
func (r *Stream) BernoulliValidated(p float64) bool {
	return r.Float64() < p
}

// FillUint64 overwrites dst with uniform 64-bit values, drawing them in
// the same order as repeated Uint64 calls — a batched fill produces
// exactly the sequence the element-wise calls would, so switching a
// consumer between the two never changes its variates for a given seed.
// The point of the batch is cost amortization: one call crosses the
// method boundary once and runs the generator with its state held in
// registers (Source.Fill), instead of reloading it per draw.
// BenchmarkFill measures the per-variate saving against element-wise
// Uint64/Float64 calls.
func (r *Stream) FillUint64(dst []uint64) {
	r.src.Fill(dst)
}

// Hits draws n (at most 64) Bernoulli outcomes with probability exactly
// t * 2^-53 (t = ceil(p * 2^53)) and packs them into the returned
// mask's low n bits; see Source.Hits for the bit-serial scheme. Unlike
// FillUint64 it does not consume the stream like element-wise calls: it
// draws one word per bit of t until every lane is decided, about 7.34
// words for 64 lanes, and none for t = 0 or t >= 2^53.
func (r *Stream) Hits(t uint64, n int) uint64 {
	return r.src.Hits(t, n)
}

// FillFloat64 overwrites dst with uniform variates in [0, 1), drawing
// them in the same order — and from the same underlying 64-bit values —
// as repeated Float64 calls. See FillUint64 for the amortization
// rationale; prefer FillUint64 plus an integer threshold compare when
// the floats would only feed Bernoulli decisions.
func (r *Stream) FillFloat64(dst []float64) {
	for i := range dst {
		dst[i] = float64(r.src.Uint64()>>11) * 0x1p-53
	}
}

// geometricInversionMax is the largest success probability for which
// Geometric uses inverse-CDF sampling. Above it the expected number of
// Bernoulli trials to the first success (1/p <= 4) is cheaper than the
// logarithm the inversion costs, so the sampler falls back to trials.
const geometricInversionMax = 0.25

// Geometric returns a Geometric(p) variate: the number of failures before
// the first success in independent Bernoulli(p) trials (support 0, 1, ...).
// Small p uses single-draw inversion of the CDF via log1p — the skip
// sampler of the sparse development kernel, O(1) however rare the success
// — and large p falls back to literal Bernoulli trials. It panics if p is
// not in (0, 1].
func (r *Stream) Geometric(p float64) int {
	return NewGeometricSampler(p).Next(r)
}

// GeometricSampler draws Geometric(p) variates with the per-p logarithm
// precomputed, for callers that need many gaps at the same p (the sparse
// development kernel draws one gap per surviving fault). The zero value is
// not usable; construct with NewGeometricSampler. A sampler is immutable
// and safe for concurrent use with per-goroutine streams.
type GeometricSampler struct {
	p float64
	// invLogQ is 1/log1p(-p), negative; 0 selects the Bernoulli-trial
	// fallback for large p.
	invLogQ float64
}

// NewGeometricSampler returns a sampler for Geometric(p). It panics if p
// is not in (0, 1].
func NewGeometricSampler(p float64) GeometricSampler {
	if math.IsNaN(p) || p <= 0 || p > 1 {
		panic(fmt.Sprintf("randx: Geometric requires p in (0, 1], got %v", p))
	}
	g := GeometricSampler{p: p}
	if p <= geometricInversionMax {
		g.invLogQ = 1 / math.Log1p(-p)
	}
	return g
}

// P returns the sampler's success probability.
func (g GeometricSampler) P() float64 { return g.p }

// Next draws one Geometric(p) variate from r.
func (g GeometricSampler) Next(r *Stream) int {
	if g.invLogQ == 0 {
		// Large p (or p == 1): literal trials, expected count 1/p <= 4.
		k := 0
		for g.p < 1 && !(r.Float64() < g.p) {
			k++
		}
		return k
	}
	// Inversion: floor(log(U)/log(1-p)) with U uniform on (0, 1) is
	// Geometric(p)-distributed; both logs are negative so the ratio is a
	// non-negative float and int() truncation is the floor.
	return int(math.Log(r.Float64Open()) * g.invLogQ)
}

// Normal returns a standard normal variate via the Marsaglia polar method.
func (r *Stream) Normal() float64 {
	if r.hasGauss {
		r.hasGauss = false
		return r.gauss
	}
	for {
		u := 2*r.Float64() - 1
		v := 2*r.Float64() - 1
		s := u*u + v*v
		if s >= 1 || s == 0 {
			continue
		}
		factor := math.Sqrt(-2 * math.Log(s) / s)
		r.gauss = v * factor
		r.hasGauss = true
		return u * factor
	}
}

// NormalMuSigma returns a normal variate with the given mean and standard
// deviation.
func (r *Stream) NormalMuSigma(mu, sigma float64) float64 {
	return mu + sigma*r.Normal()
}

// Exponential returns an exponential variate with the given rate
// (mean 1/rate). It panics if rate <= 0.
func (r *Stream) Exponential(rate float64) float64 {
	if rate <= 0 {
		panic(fmt.Sprintf("randx: Exponential called with non-positive rate %v", rate))
	}
	return -math.Log(1-r.Float64()) / rate
}

// Gamma returns a Gamma(shape, 1) variate using the Marsaglia–Tsang (2000)
// squeeze method, with the standard boosting trick for shape < 1.
// It panics if shape <= 0.
func (r *Stream) Gamma(shape float64) float64 {
	if shape <= 0 {
		panic(fmt.Sprintf("randx: Gamma called with non-positive shape %v", shape))
	}
	if shape < 1 {
		// Boost: if X ~ Gamma(shape+1) and U uniform, then
		// X*U^(1/shape) ~ Gamma(shape).
		return r.Gamma(shape+1) * math.Pow(r.Float64Open(), 1/shape)
	}
	d := shape - 1.0/3.0
	c := 1 / math.Sqrt(9*d)
	for {
		var x, v float64
		for {
			x = r.Normal()
			v = 1 + c*x
			if v > 0 {
				break
			}
		}
		v = v * v * v
		u := r.Float64Open()
		if u < 1-0.0331*x*x*x*x {
			return d * v
		}
		if math.Log(u) < 0.5*x*x+d*(1-v+math.Log(v)) {
			return d * v
		}
	}
}

// Beta returns a Beta(alpha, beta) variate via the two-Gamma construction.
// It panics if either parameter is non-positive.
func (r *Stream) Beta(alpha, beta float64) float64 {
	x := r.Gamma(alpha)
	y := r.Gamma(beta)
	return x / (x + y)
}

// Binomial returns a Binomial(n, p) variate. For small n it sums Bernoulli
// trials; for large n it uses inversion over the CDF recurrence, which is
// O(np) expected time — adequate for the moderate n used in this library.
// It panics if n < 0 or p is outside [0, 1].
func (r *Stream) Binomial(n int, p float64) int {
	switch {
	case n < 0:
		panic(fmt.Sprintf("randx: Binomial called with negative n %d", n))
	case p < 0 || p > 1 || math.IsNaN(p):
		panic(fmt.Sprintf("randx: Binomial called with invalid p %v", p))
	case p == 0 || n == 0:
		return 0
	case p == 1:
		return n
	}
	// Exploit symmetry so the inversion loop runs over the smaller tail.
	if p > 0.5 {
		return n - r.Binomial(n, 1-p)
	}
	if n <= 64 {
		count := 0
		for i := 0; i < n; i++ {
			if r.Float64() < p {
				count++
			}
		}
		return count
	}
	// Inversion: walk the PMF recurrence until the cumulative mass
	// exceeds a uniform draw.
	q := 1 - p
	s := p / q
	pmf := math.Pow(q, float64(n))
	u := r.Float64()
	cdf := pmf
	for k := 0; k < n; k++ {
		if u <= cdf {
			return k
		}
		pmf *= s * float64(n-k) / float64(k+1)
		cdf += pmf
	}
	return n
}

// Poisson returns a Poisson(lambda) variate. Knuth's product method is used
// for small lambda; larger means split recursively via the additivity of
// the Poisson distribution, keeping the method exact without a normal
// approximation. It panics if lambda < 0.
func (r *Stream) Poisson(lambda float64) int {
	if lambda < 0 || math.IsNaN(lambda) {
		panic(fmt.Sprintf("randx: Poisson called with invalid lambda %v", lambda))
	}
	if lambda == 0 {
		return 0
	}
	const chunk = 30
	count := 0
	for lambda > chunk {
		count += r.poissonKnuth(chunk)
		lambda -= chunk
	}
	return count + r.poissonKnuth(lambda)
}

func (r *Stream) poissonKnuth(lambda float64) int {
	limit := math.Exp(-lambda)
	k := 0
	product := r.Float64Open()
	for product > limit {
		k++
		product *= r.Float64Open()
	}
	return k
}

// Dirichlet fills out with a Dirichlet(alpha) variate (a random probability
// vector). len(out) must equal len(alpha) and every alpha must be positive;
// it panics otherwise.
func (r *Stream) Dirichlet(alpha, out []float64) {
	if len(alpha) != len(out) {
		panic(fmt.Sprintf("randx: Dirichlet length mismatch: %d alphas, %d outputs", len(alpha), len(out)))
	}
	total := 0.0
	for i, a := range alpha {
		out[i] = r.Gamma(a)
		total += out[i]
	}
	for i := range out {
		out[i] /= total
	}
}

// Perm fills out with a uniform random permutation of 0..len(out)-1
// (Fisher–Yates).
func (r *Stream) Perm(out []int) {
	for i := range out {
		j := r.IntN(i + 1)
		out[i] = out[j]
		out[j] = i
	}
}

// Shuffle permutes xs uniformly at random (Fisher–Yates).
func (r *Stream) Shuffle(xs []float64) {
	for i := len(xs) - 1; i > 0; i-- {
		j := r.IntN(i + 1)
		xs[i], xs[j] = xs[j], xs[i]
	}
}
