package dsp

import (
	"fmt"
	"math"
	"sync"
)

// SlidingDFT incrementally advances a DFT window over a sample stream.
// Given the DFT X of the window [t, t+N), the DFT of the window
// [t+m, t+m+N) follows in O(N·m) operations instead of an O(N log N)
// transform, from the per-bin update
//
//	X'[k] = (X[k] + Σ_{j<m} (x[t+N+j] − x[t+j])·e^{−i2πkj/N}) · e^{+i2πkm/N}.
//
// This is the paper's central compute saving opportunity: CPRecycle's P
// FFT windows per OFDM symbol share all but a few (stride) samples, so
// only the first window needs a full transform. The kernels work in the
// rotated domain of a phase-ramped spectrum, where the trailing per-bin
// rotation cancels against the ramp: SlideRotatedPlanar updates every
// bin, SlideRotatedTab a fixed bin selection through a precomputed
// twiddle schedule (SlideTabFor).
//
// The update multiplies exclusively by unit-magnitude twiddles, so the
// numerical drift relative to a direct transform grows only with machine
// epsilon per slide (≈1e-15 relative per step; see the exactness tests).
// Callers performing very long slide chains can reseed with a full FFT
// periodically — the CPRecycle receivers slide at most a few dozen times
// per seed, far below any threshold of concern.
//
// A SlidingDFT is safe for concurrent use once created: the kernels
// write only to the caller's buffers.
type SlidingDFT struct {
	n int
	// wP holds the twiddles w[r] = e^{-i 2π r / n}, r in [0, n), as
	// adjacent (re, im) float pairs — one cache line per random index
	// instead of two gathers from split tables.
	wP []float64
	// tabs caches SlideTabFor schedules: tabKey -> *SlideTab. Hash
	// collisions are resolved by comparing the stored bin selection.
	tabs sync.Map
}

// NewSlidingDFT returns a sliding-DFT kernel for windows of length n.
// Unlike the radix-2 FFT, any positive n is supported.
func NewSlidingDFT(n int) (*SlidingDFT, error) {
	if n <= 0 {
		return nil, fmt.Errorf("dsp: SlidingDFT size %d must be positive", n)
	}
	s := &SlidingDFT{n: n, wP: make([]float64, 2*n)}
	for r := 0; r < n; r++ {
		sv, cv := math.Sincos(2 * math.Pi * float64(r) / float64(n))
		s.wP[2*r], s.wP[2*r+1] = cv, -sv
	}
	return s, nil
}

// MustSlidingDFT is NewSlidingDFT but panics on error.
func MustSlidingDFT(n int) *SlidingDFT {
	s, err := NewSlidingDFT(n)
	if err != nil {
		panic(err)
	}
	return s
}

// slidingCache mirrors planCache: one immutable kernel per window size for
// the whole process, so per-frame demodulators never rebuild the full
// twiddle table.
var slidingCache sync.Map // int -> *SlidingDFT

// SlidingFor returns the process-wide shared sliding-DFT kernel for window
// length n, creating and caching it on first use.
func SlidingFor(n int) (*SlidingDFT, error) {
	if v, ok := slidingCache.Load(n); ok {
		return v.(*SlidingDFT), nil
	}
	s, err := NewSlidingDFT(n)
	if err != nil {
		return nil, err
	}
	v, _ := slidingCache.LoadOrStore(n, s)
	return v.(*SlidingDFT), nil
}

// Size returns the window length the kernel was built for.
func (s *SlidingDFT) Size() int { return s.n }
