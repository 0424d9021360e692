package randx

import (
	"fmt"
	"math"
	"testing"
)

// BenchmarkFill backs the amortization claim in the FillUint64 godoc
// with numbers: one batched fill of width w versus w element-wise
// draws. Report ns/op divided by the width to compare per-variate cost.
func BenchmarkFill(b *testing.B) {
	for _, width := range []int{8, 64, 256} {
		b.Run(fmt.Sprintf("FillUint64/width=%d", width), func(b *testing.B) {
			r := NewStream(1)
			dst := make([]uint64, width)
			b.SetBytes(int64(8 * width))
			for i := 0; i < b.N; i++ {
				r.FillUint64(dst)
			}
		})
		b.Run(fmt.Sprintf("SequentialUint64/width=%d", width), func(b *testing.B) {
			r := NewStream(1)
			dst := make([]uint64, width)
			b.SetBytes(int64(8 * width))
			for i := 0; i < b.N; i++ {
				for j := range dst {
					dst[j] = r.Uint64()
				}
			}
		})
		b.Run(fmt.Sprintf("FillFloat64/width=%d", width), func(b *testing.B) {
			r := NewStream(1)
			dst := make([]float64, width)
			b.SetBytes(int64(8 * width))
			for i := 0; i < b.N; i++ {
				r.FillFloat64(dst)
			}
		})
		b.Run(fmt.Sprintf("SequentialFloat64/width=%d", width), func(b *testing.B) {
			r := NewStream(1)
			dst := make([]float64, width)
			b.SetBytes(int64(8 * width))
			for i := 0; i < b.N; i++ {
				for j := range dst {
					dst[j] = r.Float64()
				}
			}
		})
	}
}

// BenchmarkHits times the bit-serial kernel against the
// fill-then-compare form it replaced: w packed Bernoulli lanes per call
// versus a w-wide FillUint64 followed by a threshold compare per lane.
// Hits draws about log2(w)+1.3 words where the fill draws w, but each
// call ends on a data-dependent branch, so the fill can win at small
// widths; the dense kernel calls Hits at width 64. Report ns/op divided
// by the width for the per-decision cost.
func BenchmarkHits(b *testing.B) {
	thr := uint64(math.Ceil(0.3 * 0x1p53))
	for _, width := range []int{8, 64} {
		b.Run(fmt.Sprintf("Hits/width=%d", width), func(b *testing.B) {
			r := NewStream(1)
			var sink uint64
			for i := 0; i < b.N; i++ {
				sink ^= r.Hits(thr, width)
			}
			_ = sink
		})
		b.Run(fmt.Sprintf("FillThenCompare/width=%d", width), func(b *testing.B) {
			r := NewStream(1)
			dst := make([]uint64, width)
			var sink uint64
			for i := 0; i < b.N; i++ {
				r.FillUint64(dst)
				var m uint64
				for j, u := range dst {
					m |= (u>>11 - thr) >> 63 << uint(j)
				}
				sink ^= m
			}
			_ = sink
		})
	}
}
