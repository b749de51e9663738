package dsp

import "fmt"

// Planar holds a complex vector in planar (structure-of-arrays) layout:
// the real parts in Re and the imaginary parts in Im, index-aligned. The
// receiver hot kernels operate on this layout — two flat float64 streams
// vectorise and schedule better than interleaved []complex128, whose
// re/im pairs the compiler must keep as scalar pairs — and convert back
// to []complex128 only at algorithm boundaries (Interleave/Deinterleave).
//
// Invariants: len(Re) == len(Im), and Re and Im must not overlap. A
// Planar value is two slice headers; copying it aliases the same planes.
type Planar struct {
	Re, Im []float64
}

// NewPlanar returns a zeroed planar vector of length n with both planes
// carved from one allocation.
func NewPlanar(n int) Planar {
	buf := make([]float64, 2*n)
	return Planar{Re: buf[:n:n], Im: buf[n:]}
}

// Len returns the logical (complex) length.
func (p Planar) Len() int { return len(p.Re) }

// At returns element i as a complex128.
func (p Planar) At(i int) complex128 { return complex(p.Re[i], p.Im[i]) }

// Set stores v at element i.
func (p Planar) Set(i int, v complex128) {
	p.Re[i] = real(v)
	p.Im[i] = imag(v)
}

// Deinterleave splits src into dst's planes. Lengths must match. The
// conversion is exact (a bit-copy of each component).
func Deinterleave(dst Planar, src []complex128) {
	if dst.Len() != len(src) {
		panic(fmt.Sprintf("dsp: Deinterleave dst length %d, src length %d", dst.Len(), len(src)))
	}
	re, im := dst.Re, dst.Im
	for i, v := range src {
		re[i] = real(v)
		im[i] = imag(v)
	}
}

// Interleave merges src's planes into dst. Lengths must match. The
// conversion is exact (a bit-copy of each component).
func Interleave(dst []complex128, src Planar) {
	if src.Len() != len(dst) {
		panic(fmt.Sprintf("dsp: Interleave dst length %d, src length %d", len(dst), src.Len()))
	}
	re, im := src.Re, src.Im
	for i := range dst {
		dst[i] = complex(re[i], im[i])
	}
}

// CopyPlanar copies src into dst (lengths must match).
func CopyPlanar(dst, src Planar) {
	if dst.Len() != src.Len() {
		panic(fmt.Sprintf("dsp: CopyPlanar dst length %d, src length %d", dst.Len(), src.Len()))
	}
	copy(dst.Re, src.Re)
	copy(dst.Im, src.Im)
}

// Scale multiplies p in place by the real factor g. Values match the
// interleaved Scale exactly (the sign of a zero result may differ, which
// compares equal).
func (p Planar) Scale(g float64) {
	for i := range p.Re {
		p.Re[i] *= g
	}
	for i := range p.Im {
		p.Im[i] *= g
	}
}

// ForwardPlanar computes the in-place forward DFT
// X[k] = Σ_n x[n]·e^{-i2πkn/N} of a planar vector whose length equals the
// plan size, with radix-2 decimation-in-time butterflies. On machines
// with SIMD support the butterfly stages run in assembly (see
// dispatch.go); the result is bit-identical either way.
func (p *FFTPlan) ForwardPlanar(x Planar) {
	if x.Len() != p.n {
		panic(fmt.Sprintf("dsp: ForwardPlanar length %d, plan size %d", x.Len(), p.n))
	}
	p.transformPlanar(x.Re, x.Im, true)
}

// InversePlanar computes the in-place inverse DFT including the 1/N
// scaling, x[n] = (1/N) Σ_k X[k]·e^{+i2πkn/N}.
func (p *FFTPlan) InversePlanar(x Planar) {
	if x.Len() != p.n {
		panic(fmt.Sprintf("dsp: InversePlanar length %d, plan size %d", x.Len(), p.n))
	}
	p.transformPlanar(x.Re, x.Im, false)
	x.Scale(1 / float64(p.n))
}

// transformPlanar runs the butterflies with each complex operation
// expanded to the float operations the compiler emits for complex128
// arithmetic ((ac−bd, ad+bc) products, adds/subs in the same order), so
// the values match an interleaved transform of the same schedule (the
// test oracle).
func (p *FFTPlan) transformPlanar(re, im []float64, fwd bool) {
	if p.transformPlanarSIMD(re, im, fwd) {
		return
	}
	twP := p.fwdP
	if !fwd {
		twP = p.invP
	}
	n := p.n
	bitrevPlanar(p.revPairs, re, im)
	if n < 2 {
		return
	}
	// First stage (size 2): its only twiddle is w⁰ = (1, −0), whose
	// multiply reproduces the operand's value exactly, so the butterflies
	// reduce to add/sub pairs (value-identical to the generic stage).
	for j := 0; j+1 < n; j += 2 {
		xr, xi := re[j+1], im[j+1]
		re[j+1] = re[j] - xr
		im[j+1] = im[j] - xi
		re[j] = re[j] + xr
		im[j] = im[j] + xi
	}
	// Remaining stages run twiddle-outer: each twiddle is loaded once and
	// applied to every butterfly group at its offset (stride size), so the
	// inner loop touches only the data planes. Butterflies within a stage
	// are independent, so reordering them leaves every result bit-identical
	// to the one-group-at-a-time interleaved transform.
	for size := 4; size <= n; size <<= 1 {
		half := size / 2
		step := n / size
		for j := 0; j < half; j++ {
			wr, wi := twP[2*step*j], twP[2*step*j+1]
			for lo := j; lo+half < n; lo += size {
				hi := lo + half
				xr, xi := re[hi], im[hi]
				tr := wr*xr - wi*xi
				ti := wr*xi + wi*xr
				re[hi] = re[lo] - tr
				im[hi] = im[lo] - ti
				re[lo] = re[lo] + tr
				im[lo] = im[lo] + ti
			}
		}
	}
}

// SlideRotatedPlanar advances a ROTATED spectrum in place: bins holds
// R_δ·DFT(window at t), where R_δ[k] = e^{+i 2π k δ / N} is a phase ramp
// of integer slope δ (e.g. an OFDM segment correction), and after the
// call it holds R_{δ−m}·DFT(window at t+m), with m = diffs.Len().
//
// In the rotated domain the slide needs NO per-bin output rotation — the
// window advance and the ramp slope decrement cancel — so the whole
// update is m multiply-adds per bin:
//
//	bins'[k] = bins[k] + Σ_{j<m} diffs[j]·e^{+i 2π k (δ−j) / N}.
//
// diffs must hold x[t+N+j] − x[t+j] (the entering minus the leaving
// sample), pre-scaled by whatever constant the caller keeps the spectrum
// in (e.g. 1/N for ofdm demodulation). delta is δ, the ramp slope before
// the slide; any integer is accepted and reduced mod N. m may be any
// value in [0, N].
func (s *SlidingDFT) SlideRotatedPlanar(bins, diffs Planar, delta int) {
	n := s.n
	if bins.Len() != n {
		panic(fmt.Sprintf("dsp: SlideRotatedPlanar bins length %d, kernel size %d", bins.Len(), n))
	}
	m := diffs.Len()
	if m == 0 {
		return
	}
	if m > n {
		panic(fmt.Sprintf("dsp: SlideRotatedPlanar step %d exceeds window size %d", m, n))
	}
	wp := s.wP
	// e^{+i 2π k c / N} is table entry (n − c mod n)·k mod n. For j =
	// 0..m-1 the slope c = δ−j raises the table step by 1 per j, so for
	// bin k the index walks start, start+k, start+2k, … where start
	// corresponds to c = δ.
	base := (n - delta%n) % n
	if base < 0 {
		base += n
	}
	bre, bim := bins.Re, bins.Im
	start := 0
	if m == 4 {
		// The dominant receiver shape: the four diffs are loop-invariant
		// across bins, so the specialisation holds them in registers and
		// unrolls the twiddle walk (additions in the same j order as the
		// generic loop — value-identical).
		d0r, d0i := diffs.Re[0], diffs.Im[0]
		d1r, d1i := diffs.Re[1], diffs.Im[1]
		d2r, d2i := diffs.Re[2], diffs.Im[2]
		d3r, d3i := diffs.Re[3], diffs.Im[3]
		for k := 0; k < n; k++ {
			accR, accI := bre[k], bim[k]
			idx := start
			tr, ti := wp[2*idx], wp[2*idx+1]
			accR += d0r*tr - d0i*ti
			accI += d0r*ti + d0i*tr
			idx += k
			if idx >= n {
				idx -= n
			}
			tr, ti = wp[2*idx], wp[2*idx+1]
			accR += d1r*tr - d1i*ti
			accI += d1r*ti + d1i*tr
			idx += k
			if idx >= n {
				idx -= n
			}
			tr, ti = wp[2*idx], wp[2*idx+1]
			accR += d2r*tr - d2i*ti
			accI += d2r*ti + d2i*tr
			idx += k
			if idx >= n {
				idx -= n
			}
			tr, ti = wp[2*idx], wp[2*idx+1]
			accR += d3r*tr - d3i*ti
			accI += d3r*ti + d3i*tr
			bre[k] = accR
			bim[k] = accI
			start += base
			if start >= n {
				start -= n
			}
		}
		return
	}
	dre, dim := diffs.Re, diffs.Im
	for k := 0; k < n; k++ {
		accR, accI := bre[k], bim[k]
		idx := start
		for j := 0; j < m; j++ {
			tr, ti := wp[2*idx], wp[2*idx+1]
			dr, di := dre[j], dim[j]
			accR += dr*tr - di*ti
			accI += dr*ti + di*tr
			idx += k
			if idx >= n {
				idx -= n
			}
		}
		bre[k] = accR
		bim[k] = accI
		start += base
		if start >= n {
			start -= n
		}
	}
}
