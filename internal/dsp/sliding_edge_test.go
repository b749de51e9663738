package dsp

import (
	"fmt"
	"testing"
)

// TestSlideRotatedBinsEdgeCases covers the selection-driven corner cases
// of the sparse rotated slide (SlideTabFor + SlideRotatedTab): an empty
// selection is a no-op, the full-bin selection is exactly equivalent to
// SlideRotatedPlanar, delta values at or beyond the window size reduce
// mod N (including negative deltas) in both kernels, and steps outside
// [1, N] are refused.
func TestSlideRotatedBinsEdgeCases(t *testing.T) {
	const n = 64
	r := NewRand(37)
	x := randSignal(r, 3*n)
	s := MustSlidingDFT(n)
	diffs := planarOf([]complex128{x[n] - x[0], x[n+1] - x[1], x[n+2] - x[2]})
	before := fft(x[:n])
	requireUnchanged := func(ctx string, p Planar) {
		t.Helper()
		for k, v := range before {
			if p.At(k) != v {
				t.Fatalf("%s changed bin %d: %v, was %v", ctx, k, p.At(k), v)
			}
		}
	}
	slideTab := func(bins Planar, delta int, sel []int) {
		t.Helper()
		tab, err := s.SlideTabFor(delta, diffs.Len(), sel)
		if err != nil {
			t.Fatal(err)
		}
		s.SlideRotatedTab(bins, bins, diffs, tab)
	}

	// Empty selection: no bin may change.
	bins := planarOf(before)
	slideTab(bins, 7, nil)
	slideTab(bins, 7, []int{})
	requireUnchanged("empty selection", bins)

	// Full-bin selection ≡ SlideRotatedPlanar, bit for bit.
	full := allBins(n)
	want := planarOf(before)
	s.SlideRotatedPlanar(want, diffs, 7)
	slideTab(bins, 7, full)
	requirePlanarBitsEqual(t, "full selection", bins, want)

	// Delta wraps: δ, δ±N and δ+2N must produce identical updates, and
	// δ = N must behave as δ = 0.
	for _, base := range []int{0, 1, n - 1} {
		ref := planarOf(before)
		slideTab(ref, base, full)
		for _, delta := range []int{base + n, base + 2*n, base - n} {
			got := planarOf(before)
			slideTab(got, delta, full)
			requirePlanarBitsEqual(t, fmt.Sprintf("tab delta %d (δ=%d)", delta, base), got, ref)
			got = planarOf(before)
			s.SlideRotatedPlanar(got, diffs, delta)
			requirePlanarBitsEqual(t, fmt.Sprintf("planar delta %d (δ=%d)", delta, base), got, ref)
		}
	}

	// m = 0 is a no-op for the full slide and refused as a table step; m >
	// N panics in the full slide and is refused as a table step.
	bins2 := planarOf(before)
	s.SlideRotatedPlanar(bins2, NewPlanar(0), 5)
	requireUnchanged("zero-step slide", bins2)
	if _, err := s.SlideTabFor(5, 0, full); err == nil {
		t.Fatal("zero step accepted")
	}
	if _, err := s.SlideTabFor(5, n+1, full); err == nil {
		t.Fatal("oversized step accepted")
	}
	func() {
		defer func() {
			if recover() == nil {
				t.Fatal("oversized step did not panic")
			}
		}()
		s.SlideRotatedPlanar(bins2, NewPlanar(n+1), 5)
	}()
}

func TestCyclicShiftInto(t *testing.T) {
	r := NewRand(41)
	x := randSignal(r, 17)
	for _, k := range []int{0, 1, 5, 16, 17, 18, -1, -17, -40, 200} {
		want := CyclicShift(x, k)
		got := make([]complex128, len(x))
		CyclicShiftInto(got, x, k)
		if d := MaxAbsDiff(got, want); d != 0 {
			t.Fatalf("k=%d: CyclicShiftInto differs from CyclicShift by %g", k, d)
		}
		// Reference semantics: out[i] = x[(i+k) mod n].
		for i := range got {
			j := ((i+k)%len(x) + len(x)) % len(x)
			if got[i] != x[j] {
				t.Fatalf("k=%d: out[%d] = %v, want x[%d] = %v", k, i, got[i], j, x[j])
			}
		}
	}
	// Empty input and length mismatch.
	CyclicShiftInto(nil, nil, 3)
	func() {
		defer func() {
			if recover() == nil {
				t.Fatal("length mismatch did not panic")
			}
		}()
		CyclicShiftInto(make([]complex128, 3), x, 1)
	}()
}
