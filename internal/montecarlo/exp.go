package montecarlo

import "math"

// expPortable returns e^x, bit for bit what math.Exp returns on amd64
// CPUs with FMA, on every architecture. math.Exp is not portable: amd64
// runs one of two assembly paths depending on the CPU's FMA support, and
// other architectures run a different pure-Go algorithm, each rounding
// differently in the last place. The rare-event estimator exponentiates
// every importance weight, so a fixed-seed rare-event result would
// otherwise depend on the machine. This is the amd64 FMA path written
// with math.FMA, which rounds once on every architecture: round x/ln2 to
// the nearest integer k, reduce r = (x - k·ln2)/16 with ln2 split in two,
// evaluate the Taylor series of e^r - 1 by Horner's rule, square four
// times (e^16r - 1 = ((y+2)·y) iterated) and scale by 2^k. Like that
// path it returns +Inf once k reaches 1024, for x above about 709.44
// rather than math.Exp's 709.78 — far above any log importance weight.
func expPortable(x float64) float64 {
	const (
		log2e    = 1.4426950408889634073599246810018920
		ln2Hi    = 0.69314718055966295651160180568695068359375
		ln2Lo    = 0.28235290563031577122588448175013436025525412068e-12
		overflow = 7.09782712893384e+02
	)
	switch {
	case math.IsNaN(x) || math.IsInf(x, 1):
		return x
	case math.IsInf(x, -1):
		return 0
	case x > overflow:
		return math.Inf(1)
	}
	kf := x * log2e
	// The hardware conversion rounds to nearest even and yields the
	// "integer indefinite" value math.MinInt32 when out of range.
	k := math.MinInt32
	if kr := math.RoundToEven(kf); kr >= math.MinInt32 && kr <= math.MaxInt32 {
		k = int(kr)
	}
	fk := float64(k)
	r := math.FMA(-fk, ln2Hi, x)
	r = math.FMA(-fk, ln2Lo, r)
	r *= 0.0625
	p := 2.4801587301587301587e-5
	for _, c := range [...]float64{
		1.9841269841269841270e-4, 1.3888888888888888889e-3, 8.3333333333333333333e-3,
		4.1666666666666666667e-2, 1.6666666666666666667e-1, 0.5, 1.0,
	} {
		p = math.FMA(p, r, c)
	}
	y := r * p
	y *= y + 2
	y *= y + 2
	y *= y + 2
	y = math.FMA(y, y+2, 1)
	// Scale by 2^k the way the assembly does: one exact multiply by a
	// power of two, or two for a subnormal result.
	e := k + 0x3FF
	switch {
	case e >= 0x7FF:
		return math.Inf(1)
	case e <= 0:
		if e < -52 {
			return 0
		}
		y *= math.Float64frombits(uint64(e+0x3FE) << 52)
		e = 1
	}
	return y * math.Float64frombits(uint64(e)<<52)
}
