package dsp

import "math"

// Reference oracles for the planar kernels. They work on interleaved
// []complex128 with plain complex arithmetic and build their own twiddle
// tables, so they share no code with the kernels under test. Their
// per-element operation order is the one the planar kernels expand by
// hand, so results agree exactly (value equality; only the sign of a zero
// may differ).

// oracleTwiddles returns w[r] = e^{-i 2π r / n} for r in [0, n).
func oracleTwiddles(n int) []complex128 {
	w := make([]complex128, n)
	for r := range w {
		s, c := math.Sincos(2 * math.Pi * float64(r) / float64(n))
		w[r] = complex(c, -s)
	}
	return w
}

// fftOracle returns the radix-2 decimation-in-time DFT of x (power-of-two
// length) in a fresh slice: forward X[k] = Σ_n x[n]·e^{-i2πkn/N}, or with
// inverse set x[n] = (1/N) Σ_k X[k]·e^{+i2πkn/N}.
func fftOracle(x []complex128, inverse bool) []complex128 {
	n := len(x)
	out := append([]complex128(nil), x...)
	bits := 0
	for 1<<bits < n {
		bits++
	}
	for i := range out {
		r := 0
		for b := 0; b < bits; b++ {
			if i&(1<<b) != 0 {
				r |= 1 << (bits - 1 - b)
			}
		}
		if i < r {
			out[i], out[r] = out[r], out[i]
		}
	}
	tw := make([]complex128, n/2)
	for k := range tw {
		s, c := math.Sincos(2 * math.Pi * float64(k) / float64(n))
		tw[k] = complex(c, -s)
		if inverse {
			tw[k] = complex(c, s)
		}
	}
	for size := 2; size <= n; size <<= 1 {
		half := size / 2
		step := n / size
		for start := 0; start < n; start += size {
			k := 0
			for j := start; j < start+half; j++ {
				t := tw[k] * out[j+half]
				out[j+half] = out[j] - t
				out[j] = out[j] + t
				k += step
			}
		}
	}
	if inverse {
		scale := complex(1/float64(n), 0)
		for i := range out {
			out[i] *= scale
		}
	}
	return out
}

// dftNaive computes the forward DFT directly in O(n²), for any length.
func dftNaive(x []complex128) []complex128 {
	n := len(x)
	out := make([]complex128, n)
	for k := 0; k < n; k++ {
		var acc complex128
		for t := 0; t < n; t++ {
			theta := 2 * math.Pi * float64(k) * float64(t) / float64(n)
			s, c := math.Sincos(theta)
			acc += x[t] * complex(c, -s)
		}
		out[k] = acc
	}
	return out
}

// slideRotatedBins is the interleaved rotated-domain slide restricted to
// the listed bins (all bins when sel lists every index): bins[k] +=
// Σ_{j<m} diffs[j]·e^{+i 2π k (δ−j) / N} for k in sel, with the same
// modular twiddle walk SlideRotatedPlanar and SlideTabFor use.
func slideRotatedBins(bins, diffs []complex128, delta int, sel []int) {
	n := len(bins)
	w := oracleTwiddles(n)
	base := ((n-delta%n)%n + n) % n
	for _, k := range sel {
		acc := bins[k]
		idx := (base * k) % n
		for j := range diffs {
			acc += diffs[j] * w[idx]
			idx += k
			if idx >= n {
				idx -= n
			}
		}
		bins[k] = acc
	}
}

// slideOracle is the classic interleaved sliding-DFT update: bins holds
// the DFT of the window at t, and after the call the DFT of the window at
// t+m, m = len(outgoing), per
// X'[k] = (X[k] + Σ_{j<m} (incoming[j] − outgoing[j])·e^{−i2πkj/N})·e^{+i2πkm/N}.
func slideOracle(bins, outgoing, incoming []complex128) {
	n := len(bins)
	w := oracleTwiddles(n)
	m := len(outgoing)
	for k := range bins {
		acc := bins[k]
		for j := 0; j < m; j++ {
			acc += (incoming[j] - outgoing[j]) * w[(k*j)%n]
		}
		bins[k] = acc * w[(k*(n-m))%n]
	}
}

// fft and ifft run the planar transforms on a fresh copy of x through the
// process-wide plan cache; the property tests use them as the FFT under
// test.
func fft(x []complex128) []complex128 {
	return planarTransform(x, true)
}

func ifft(x []complex128) []complex128 {
	return planarTransform(x, false)
}

func planarTransform(x []complex128, forward bool) []complex128 {
	p := planarOf(x)
	if forward {
		MustPlanFor(len(x)).ForwardPlanar(p)
	} else {
		MustPlanFor(len(x)).InversePlanar(p)
	}
	out := make([]complex128, len(x))
	Interleave(out, p)
	return out
}

// allBins returns the selection [0, n).
func allBins(n int) []int {
	sel := make([]int, n)
	for k := range sel {
		sel[k] = k
	}
	return sel
}
