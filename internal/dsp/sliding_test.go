package dsp

import (
	"math"
	"testing"
)

// randSignal returns a deterministic complex test signal of length n.
func randSignal(r *Rand, n int) []complex128 {
	x := make([]complex128, n)
	for i := range x {
		x[i] = complex(r.NormFloat64(), r.NormFloat64())
	}
	return x
}

// rampMod applies R_δ[k] = e^{+i 2π k δ / n} to bins, with δ first
// reduced to [0, n) (R_δ is n-periodic in δ), so long slide chains keep
// the ramp angle small and exact.
func rampMod(bins []complex128, delta, n int) {
	CorrectTestRamp(bins, ((delta%n)+n)%n, n)
}

// slideDiffs returns x[t+n+j] − x[t+j] for j < m: the entering minus the
// leaving sample of a slide by m from the window at t.
func slideDiffs(x []complex128, t, n, m int) Planar {
	d := NewPlanar(m)
	for j := 0; j < m; j++ {
		d.Set(j, x[t+n+j]-x[t+j])
	}
	return d
}

// TestSlidingDFTMatchesForward slides a window over a long random stream
// with every stride in 1..5 across several window sizes, comparing each
// slid (rotated) spectrum against a ramped direct transform of the same
// window. The tolerance bounds the per-slide numerical drift of the
// recurrence; hundreds of consecutive slides stay far below 1e-9.
func TestSlidingDFTMatchesForward(t *testing.T) {
	r := NewRand(42)
	for _, n := range []int{8, 64, 256} {
		x := randSignal(r, n+1024)
		for _, stride := range []int{1, 2, 3, 4, 5} {
			s := MustSlidingDFT(n)
			bins := planarOf(x[:n])
			MustFFTPlan(n).ForwardPlanar(bins)
			got := make([]complex128, n)
			delta := 0
			slides := 0
			for start := 0; start+stride+n <= len(x); start += stride {
				s.SlideRotatedPlanar(bins, slideDiffs(x, start, n, stride), delta)
				delta -= stride
				slides++
				// Spot-check every few slides (and always the last) to keep
				// the oracle cost down.
				if slides%7 != 0 && start+2*stride+n <= len(x) {
					continue
				}
				want := fft(x[start+stride : start+stride+n])
				rampMod(want, delta, n)
				Interleave(got, bins)
				if d := MaxAbsDiff(got, want); d > 1e-9 {
					t.Fatalf("n=%d stride=%d after %d slides: max diff %g", n, stride, slides, d)
				}
			}
			if slides < 100 {
				t.Fatalf("n=%d stride=%d: only %d slides exercised", n, stride, slides)
			}
		}
	}
}

// TestSlidingDFTMixedSteps advances by a different step each slide,
// including m = 0 (no-op) and a full window m = N.
func TestSlidingDFTMixedSteps(t *testing.T) {
	const n = 64
	r := NewRand(7)
	x := randSignal(r, 4*n)
	s := MustSlidingDFT(n)
	bins := planarOf(x[:n])
	MustFFTPlan(n).ForwardPlanar(bins)
	got := make([]complex128, n)
	delta := 0
	start := 0
	for _, m := range []int{0, 1, 3, 4, 2, n, 5, 1} {
		if start+m+n > len(x) {
			break
		}
		s.SlideRotatedPlanar(bins, slideDiffs(x, start, n, m), delta)
		delta -= m
		start += m
		want := fft(x[start : start+n])
		rampMod(want, delta, n)
		Interleave(got, bins)
		if d := MaxAbsDiff(got, want); d > 1e-10 {
			t.Fatalf("after step %d (window at %d): max diff %g", m, start, d)
		}
	}
}

// TestSlidingDFTNonPow2 checks the kernel against the naive DFT for a
// window size the radix-2 FFT cannot handle.
func TestSlidingDFTNonPow2(t *testing.T) {
	const n = 12
	r := NewRand(3)
	x := randSignal(r, 5*n)
	s := MustSlidingDFT(n)
	bins := planarOf(dftNaive(x[:n]))
	got := make([]complex128, n)
	delta := 0
	for start := 0; start+1+n <= 3*n; start++ {
		s.SlideRotatedPlanar(bins, slideDiffs(x, start, n, 1), delta)
		delta--
		want := dftNaive(x[start+1 : start+1+n])
		rampMod(want, delta, n)
		Interleave(got, bins)
		if d := MaxAbsDiff(got, want); d > 1e-9 {
			t.Fatalf("start %d: max diff %g", start+1, d)
		}
	}
}

func TestPlanForCachesAndTransforms(t *testing.T) {
	p1, err := PlanFor(128)
	if err != nil {
		t.Fatal(err)
	}
	p2 := MustPlanFor(128)
	if p1 != p2 {
		t.Fatal("PlanFor returned distinct plans for one size")
	}
	if _, err := PlanFor(100); err == nil {
		t.Fatal("PlanFor accepted a non-power-of-two size")
	}
	// A cached plan must behave exactly like a fresh one.
	r := NewRand(9)
	x := randSignal(r, 128)
	fresh := planarOf(x)
	MustFFTPlan(128).ForwardPlanar(fresh)
	cached := planarOf(x)
	p1.ForwardPlanar(cached)
	requirePlanarBitsEqual(t, "cached plan vs fresh plan", cached, fresh)
}

// wrapPhaseLoop is the original O(|θ|/π) reference implementation.
func wrapPhaseLoop(theta float64) float64 {
	for theta > math.Pi {
		theta -= 2 * math.Pi
	}
	for theta <= -math.Pi {
		theta += 2 * math.Pi
	}
	return theta
}

func TestWrapPhaseMatchesLoop(t *testing.T) {
	r := NewRand(17)
	for i := 0; i < 20000; i++ {
		theta := (r.Float64() - 0.5) * 8 * math.Pi
		got, want := WrapPhase(theta), wrapPhaseLoop(theta)
		tol := 0.0
		if math.Abs(theta) >= 3*math.Pi {
			tol = 1e-12 // far range uses math.Mod, LSB differences allowed
		}
		if math.Abs(got-want) > tol {
			t.Fatalf("WrapPhase(%v) = %v, loop reference %v", theta, got, want)
		}
	}
	// One-turn-off inputs must be bit-identical to the reference (these feed
	// the KDE kernels).
	for i := 0; i < 20000; i++ {
		theta := (r.Float64() - 0.5) * 4 * math.Pi
		if got, want := WrapPhase(theta), wrapPhaseLoop(theta); got != want {
			t.Fatalf("WrapPhase(%v) = %v, want bit-identical %v", theta, got, want)
		}
	}
	if got := WrapPhase(1e9); got <= -math.Pi || got > math.Pi {
		t.Fatalf("WrapPhase(1e9) = %v out of range", got)
	}
}

func TestFreqShiftPhasorAccuracy(t *testing.T) {
	r := NewRand(23)
	n := 256
	x := randSignal(r, 5000)
	got := append([]complex128(nil), x...)
	FreqShift(got, 3.7, n, 129)
	want := append([]complex128(nil), x...)
	for ti := range want {
		theta := 2 * math.Pi * 3.7 / float64(n) * float64(129+ti)
		s, c := math.Sincos(theta)
		want[ti] *= complex(c, s)
	}
	if d := MaxAbsDiff(got, want); d > 1e-12 {
		t.Fatalf("phasor recurrence drifts by %g from exact rotation", d)
	}
}

// BenchmarkFreqShift measures the interleaved frequency shift over a
// 4096-sample stream.
func BenchmarkFreqShift(b *testing.B) {
	r := NewRand(1)
	x := randSignal(r, 4096)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		FreqShift(x, 0.37, 256, 0)
	}
}

// TestSlideRotatedMatchesRampedForward checks the rotated-domain slide:
// starting from a ramped spectrum R_δ·DFT(w₀), successive slides must
// track R_{δ−Σm}·DFT(w_t) as computed directly, and the sparse
// precomputed-schedule slide must match the full one exactly at its
// selected bins.
func TestSlideRotatedMatchesRampedForward(t *testing.T) {
	const n = 64
	r := NewRand(11)
	x := randSignal(r, 6*n)
	s := MustSlidingDFT(n)

	delta := 16
	start0 := fft(x[:n])
	CorrectTestRamp(start0, delta, n)
	bins := planarOf(start0)

	sel := []int{0, 1, 5, 17, 40, 63}
	sparse := planarOf(start0)

	start := 0
	got := make([]complex128, n)
	for _, m := range []int{1, 4, 2, 3, 4, 1, 1} {
		d := slideDiffs(x, start, n, m)
		tab, err := s.SlideTabFor(delta, m, sel)
		if err != nil {
			t.Fatal(err)
		}
		s.SlideRotatedPlanar(bins, d, delta)
		s.SlideRotatedTab(sparse, sparse, d, tab)
		delta -= m
		start += m

		want := fft(x[start : start+n])
		CorrectTestRamp(want, delta, n)
		Interleave(got, bins)
		if diff := MaxAbsDiff(got, want); diff > 1e-10 {
			t.Fatalf("after slide to %d (δ=%d): diff %g", start, delta, diff)
		}
		for _, k := range sel {
			if d := cmplxAbs(sparse.At(k) - bins.At(k)); d != 0 {
				t.Fatalf("sparse bin %d differs from full update by %g", k, d)
			}
		}
	}
}

func cmplxAbs(v complex128) float64 {
	return math.Sqrt(real(v)*real(v) + imag(v)*imag(v))
}
