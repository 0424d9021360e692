package montecarlo

import (
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"math"
	"testing"

	"diversity/internal/randx"
)

// TestExpPortable: expPortable handles the special cases like math.Exp,
// stays within two ulps of math.Exp on whatever machine runs the test
// (the amd64 path's four squarings cost up to two), and
// returns the same bits on every machine — the digest below was taken on
// an amd64 CPU with FMA, where expPortable and math.Exp agreed bit for
// bit on 20 million inputs.
func TestExpPortable(t *testing.T) {
	t.Parallel()

	for _, c := range []struct{ x, want float64 }{
		{0, 1}, {1, math.E}, {math.Inf(1), math.Inf(1)}, {math.Inf(-1), 0},
		{710, math.Inf(1)}, {-746, 0}, {-1e10, 0},
	} {
		if got := expPortable(c.x); got != c.want {
			t.Errorf("expPortable(%v) = %v, want %v", c.x, got, c.want)
		}
	}
	if got := expPortable(math.NaN()); !math.IsNaN(got) {
		t.Errorf("expPortable(NaN) = %v, want NaN", got)
	}

	r := randx.NewStream(29)
	h := sha256.New()
	var buf [8]byte
	for i := 0; i < 1_000_000; i++ {
		// e^x from subnormal up to 709.4, below 1023.5·ln 2 where the
		// amd64 path (and so expPortable) overflows to +Inf.
		x := -745.2 + 1454.6*r.Float64()
		if i%2 == 1 {
			x = -40 * r.Float64() // the range of log importance weights
		}
		got, want := expPortable(x), math.Exp(x)
		if ulps := int64(math.Float64bits(got)) - int64(math.Float64bits(want)); ulps < -2 || ulps > 2 {
			t.Fatalf("expPortable(%v) = %v, math.Exp %v: %d ulps apart", x, got, want, ulps)
		}
		binary.LittleEndian.PutUint64(buf[:], math.Float64bits(got))
		h.Write(buf[:])
	}
	if got, want := fmt.Sprintf("%x", h.Sum(nil)[:8]), expPortableDigest; got != want {
		t.Errorf("expPortable digest %s, pinned %s", got, want)
	}
}

const expPortableDigest = "337805461e09d803"
