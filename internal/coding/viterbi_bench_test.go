package coding

import (
	"math/rand"
	"testing"

	"repro/internal/dsp"
)

// noisyHardLLRs encodes n random bits, zeroing the six before tailEnd (a
// terminating tail; tailEnd 0 adds none), flips one coded bit in 25 and
// returns the hard (±1) LLRs.
func noisyHardLLRs(n, tailEnd int) []float64 {
	r := rand.New(rand.NewSource(1))
	bits := make([]byte, n)
	for i := range bits {
		bits[i] = byte(r.Intn(2))
	}
	for i := max(tailEnd-6, 0); i < tailEnd; i++ {
		bits[i] = 0
	}
	coded := ConvEncode(bits)
	for i := range coded {
		if r.Intn(25) == 0 {
			coded[i] ^= 1
		}
	}
	return HardToLLR(coded)
}

// BenchmarkViterbiDecode measures the hard-decision decode of one 1200-bit
// DATA field (the dominant per-packet receiver kernel).
func BenchmarkViterbiDecode(b *testing.B) {
	llrs := noisyHardLLRs(1200, 0)
	v := NewViterbi()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := v.Decode(llrs); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkViterbiDecodeAnchored400B measures the decode a 400-octet
// 16-QAM 1/2 packet takes in production: 34 symbols × 96 data bits = 3264
// trellis steps, anchored at SERVICE+PSDU+tail = 3222 bits, on noisy hard
// LLRs. The stream is longer than streamEngage, so this is the windowed
// path (decodeWindowed + mergeFlush).
func BenchmarkViterbiDecodeAnchored400B(b *testing.B) {
	const n, anchor = 3264, 3222
	llrs := noisyHardLLRs(n, anchor)
	v := NewViterbi()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := v.DecodeAnchored(llrs, anchor); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkViterbiDecodeScalar is BenchmarkViterbiDecode with the vector
// ACS kernel forced off.
func BenchmarkViterbiDecodeScalar(b *testing.B) {
	dsp.ForceScalar(true)
	defer dsp.ForceScalar(false)
	BenchmarkViterbiDecode(b)
}

// BenchmarkViterbiDecodeAnchored400BScalar is
// BenchmarkViterbiDecodeAnchored400B with the vector ACS kernel forced
// off.
func BenchmarkViterbiDecodeAnchored400BScalar(b *testing.B) {
	dsp.ForceScalar(true)
	defer dsp.ForceScalar(false)
	BenchmarkViterbiDecodeAnchored400B(b)
}
