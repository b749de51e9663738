package ofdm

import (
	"testing"

	"repro/internal/dsp"
)

func testStream(seed int64, n int) []complex128 {
	r := dsp.NewRand(seed)
	x := make([]complex128, n)
	for i := range x {
		x[i] = complex(r.NormFloat64(), r.NormFloat64())
	}
	return x
}

// interleaved returns an interleaved copy of a planar window.
func interleaved(p dsp.Planar) []complex128 {
	out := make([]complex128, p.Len())
	dsp.Interleave(out, p)
	return out
}

// segmentRef is the retired one-FFT-per-window segment demodulation, kept
// in the tests as the independent reference for the batch sliding-DFT
// path: a full FFT of the window starting cpOffset samples into the CP
// (1/N scaled) followed by the Eq. 2 phase-ramp correction, as a complex
// multiply per bin. The ramp comes from the same cached tables the batch
// path uses, so the seed window is bit-identical to the batch path's.
func segmentRef(d *Demodulator, rx []complex128, symStart, cpOffset int) ([]complex128, error) {
	out, err := d.WindowAt(rx, symStart+cpOffset)
	if err != nil {
		return nil, err
	}
	if delta := d.Grid().CP - cpOffset; delta != 0 {
		t := rampPairedFor(len(out), delta)
		for k := range out {
			out[k] *= complex(t[2*k], t[2*k+1])
		}
	}
	return out, nil
}

// TestSegmentsMatchesRepeatedSegment pins the batch sliding-DFT path to the
// original one-FFT-per-window path across grids, strides and symbol
// positions. The first window is bit-identical (same seed FFT); the slid
// windows must agree to sliding-DFT drift tolerance.
func TestSegmentsMatchesRepeatedSegment(t *testing.T) {
	for _, tc := range []struct {
		name   string
		g      Grid
		stride int
	}{
		{"native-stride1", Native80211Grid(), 1},
		{"native-stride3", Native80211Grid(), 3},
		{"wide4-stride4", WideGrid(64, 16, 4, 64), 4},
		{"wide4-stride2", WideGrid(64, 16, 4, 64), 2},
		{"wide2-stride5", WideGrid(64, 16, 2, 32), 5},
	} {
		t.Run(tc.name, func(t *testing.T) {
			d := MustDemodulator(tc.g)
			rx := testStream(99, 4*tc.g.SymLen())
			offs, err := SegmentPlan(tc.g.CP, tc.stride, 16, 0)
			if err != nil {
				t.Fatal(err)
			}
			var dst []dsp.Planar
			for _, symStart := range []int{0, tc.g.SymLen(), 2 * tc.g.SymLen()} {
				dst, err = d.SegmentsPlanar(rx, symStart, offs, dst)
				if err != nil {
					t.Fatal(err)
				}
				for i, off := range offs {
					want, err := segmentRef(d, rx, symStart, off)
					if err != nil {
						t.Fatal(err)
					}
					diff := dsp.MaxAbsDiff(interleaved(dst[i]), want)
					if i == 0 && diff != 0 {
						t.Fatalf("offset %d (seed window): diff %g, want bit-identical", off, diff)
					}
					if diff > 1e-12 {
						t.Fatalf("offset %d: batch window differs from direct FFT by %g", off, diff)
					}
				}
			}
		})
	}
}

func TestSegmentsValidation(t *testing.T) {
	g := Native80211Grid()
	d := MustDemodulator(g)
	rx := testStream(1, 3*g.SymLen())
	if _, err := d.SegmentsPlanar(rx, 0, nil, nil); err == nil {
		t.Fatal("empty offsets accepted")
	}
	if _, err := d.SegmentsPlanar(rx, 0, []int{4, 4}, nil); err == nil {
		t.Fatal("non-increasing offsets accepted")
	}
	if _, err := d.SegmentsPlanar(rx, 0, []int{-1, 4}, nil); err == nil {
		t.Fatal("negative offset accepted")
	}
	if _, err := d.SegmentsPlanar(rx, 0, []int{4, g.CP + 1}, nil); err == nil {
		t.Fatal("offset beyond CP accepted")
	}
	if _, err := d.SegmentsPlanar(rx, len(rx)-g.NFFT, []int{0, g.CP}, nil); err == nil {
		t.Fatal("window past the stream end accepted")
	}
}

func TestWindowIntoMatchesWindowAt(t *testing.T) {
	g := WideGrid(64, 16, 2, 0)
	d := MustDemodulator(g)
	rx := testStream(5, 2*g.SymLen())
	want, err := d.WindowAt(rx, 17)
	if err != nil {
		t.Fatal(err)
	}
	got := make([]complex128, g.NFFT)
	if err := d.WindowInto(got, rx, 17); err != nil {
		t.Fatal(err)
	}
	if dsp.MaxAbsDiff(got, want) != 0 {
		t.Fatal("WindowInto differs from WindowAt")
	}
	if err := d.WindowInto(make([]complex128, 3), rx, 0); err == nil {
		t.Fatal("short dst accepted")
	}
}

// TestPlanarScratchDoesNotAllocate pins the per-symbol transmit and
// single-window receive paths at zero allocations: the modulator's and a
// warmed demodulator's planar scratch is reused, never reallocated.
func TestPlanarScratchDoesNotAllocate(t *testing.T) {
	g := WideGrid(64, 16, 4, 64)
	m := MustModulator(g)
	bins := testStream(3, g.NFFT)
	out := make([]complex128, g.SymLen())
	if a := testing.AllocsPerRun(100, func() { m.SymbolFromBinsInto(out, bins) }); a != 0 {
		t.Fatalf("SymbolFromBinsInto: %v allocs per symbol, want 0", a)
	}

	d := MustDemodulator(g)
	rx := testStream(4, 2*g.SymLen())
	win := make([]complex128, g.NFFT)
	if err := d.WindowInto(win, rx, 0); err != nil {
		t.Fatal(err)
	}
	a := testing.AllocsPerRun(100, func() {
		if err := d.WindowInto(win, rx, g.CP); err != nil {
			t.Fatal(err)
		}
	})
	if a != 0 {
		t.Fatalf("WindowInto: %v allocs per window, want 0", a)
	}
}

// benchGridAndPlan is the Fig. 8 receiver numerology: 4× composite band,
// 16 segments at native-sample stride.
func benchGridAndPlan(b *testing.B) (Grid, []int, []complex128) {
	b.Helper()
	g := WideGrid(64, 16, 4, 64)
	offs, err := SegmentPlan(g.CP, 4, 16, 8)
	if err != nil {
		b.Fatal(err)
	}
	return g, offs, testStream(2, 4*g.SymLen())
}

// BenchmarkSegmentRepeatedFFT is the pre-batch hot path: one independent
// FFT (plus a fresh allocation and a phase-ramp pass) per segment window.
func BenchmarkSegmentRepeatedFFT(b *testing.B) {
	g, offs, rx := benchGridAndPlan(b)
	d := MustDemodulator(g)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, off := range offs {
			if _, err := segmentRef(d, rx, g.SymLen(), off); err != nil {
				b.Fatal(err)
			}
		}
	}
}

// BenchmarkSegmentsBatch is the sliding-DFT batch path (SegmentsPlanar)
// for the same set of windows, reusing the destination buffers.
func BenchmarkSegmentsBatch(b *testing.B) {
	g, offs, rx := benchGridAndPlan(b)
	d := MustDemodulator(g)
	var dst []dsp.Planar
	var err error
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		dst, err = d.SegmentsPlanar(rx, g.SymLen(), offs, dst)
		if err != nil {
			b.Fatal(err)
		}
	}
}

// TestSegmentsOnMatchesSegments pins the sparse-bin batch against the full
// batch at the selected bins (identical arithmetic → identical values).
func TestSegmentsOnMatchesSegments(t *testing.T) {
	g := WideGrid(64, 16, 4, 64)
	d1 := MustDemodulator(g)
	d2 := MustDemodulator(g)
	rx := testStream(7, 4*g.SymLen())
	offs, err := SegmentPlan(g.CP, 4, 16, 8)
	if err != nil {
		t.Fatal(err)
	}
	var sel []int
	for sc := -26; sc <= 26; sc++ {
		if sc != 0 {
			sel = append(sel, g.Bin(sc))
		}
	}
	full, err := d1.SegmentsPlanar(rx, g.SymLen(), offs, nil)
	if err != nil {
		t.Fatal(err)
	}
	sparse, err := d2.SegmentsOnPlanar(rx, g.SymLen(), offs, sel, nil)
	if err != nil {
		t.Fatal(err)
	}
	for i := range offs {
		for _, k := range sel {
			if sparse[i].At(k) != full[i].At(k) {
				t.Fatalf("window %d bin %d: sparse %v != full %v", i, k, sparse[i].At(k), full[i].At(k))
			}
		}
	}
	// Seed window must be complete even in sparse mode.
	if dsp.MaxAbsDiff(interleaved(sparse[0]), interleaved(full[0])) != 0 {
		t.Fatal("sparse seed window is not complete")
	}
	if _, err := d2.SegmentsOnPlanar(rx, 0, offs, []int{-1}, nil); err == nil {
		t.Fatal("negative bin selection accepted")
	}
	if _, err := d2.SegmentsOnPlanar(rx, 0, offs, nil, nil); err == nil {
		t.Fatal("nil selection accepted")
	}
}
