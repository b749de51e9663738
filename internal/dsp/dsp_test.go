package dsp

import (
	"math"
	"math/cmplx"
	"testing"
	"testing/quick"
)

const tol = 1e-9

func approxEq(a, b complex128, eps float64) bool {
	return cmplx.Abs(a-b) <= eps
}

func TestIsPow2(t *testing.T) {
	cases := map[int]bool{
		-4: false, 0: false, 1: true, 2: true, 3: false,
		4: true, 63: false, 64: true, 1024: true, 1000: false,
	}
	for n, want := range cases {
		if got := IsPow2(n); got != want {
			t.Errorf("IsPow2(%d) = %v, want %v", n, got, want)
		}
	}
}

func TestNextPow2(t *testing.T) {
	cases := map[int]int{1: 1, 2: 2, 3: 4, 5: 8, 64: 64, 65: 128, 1000: 1024}
	for n, want := range cases {
		if got := NextPow2(n); got != want {
			t.Errorf("NextPow2(%d) = %d, want %d", n, got, want)
		}
	}
}

func TestNextPow2PanicsOnNonPositive(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for NextPow2(0)")
		}
	}()
	NextPow2(0)
}

func TestNewFFTPlanRejectsNonPow2(t *testing.T) {
	if _, err := NewFFTPlan(48); err == nil {
		t.Fatal("expected error for size 48")
	}
	if _, err := NewFFTPlan(0); err == nil {
		t.Fatal("expected error for size 0")
	}
}

func TestFFTImpulse(t *testing.T) {
	// FFT of a unit impulse is all ones.
	x := make([]complex128, 16)
	x[0] = 1
	X := fft(x)
	for k, v := range X {
		if !approxEq(v, 1, tol) {
			t.Fatalf("bin %d = %v, want 1", k, v)
		}
	}
}

func TestFFTSingleTone(t *testing.T) {
	// A complex exponential at bin k0 concentrates all energy in bin k0.
	const n, k0 = 64, 5
	x := make([]complex128, n)
	for t2 := range x {
		theta := 2 * math.Pi * float64(k0) * float64(t2) / float64(n)
		x[t2] = cmplx.Exp(complex(0, theta))
	}
	X := fft(x)
	for k, v := range X {
		want := complex(0, 0)
		if k == k0 {
			want = complex(float64(n), 0)
		}
		if !approxEq(v, want, 1e-8) {
			t.Fatalf("bin %d = %v, want %v", k, v, want)
		}
	}
}

func TestFFTMatchesNaiveDFT(t *testing.T) {
	r := NewRand(1)
	for _, n := range []int{2, 4, 8, 64, 256} {
		x := r.CNVector(n, 1)
		fast := fft(x)
		slow := dftNaive(x)
		if d := MaxAbsDiff(fast, slow); d > 1e-7 {
			t.Fatalf("n=%d: FFT differs from naive DFT by %g", n, d)
		}
	}
}

func TestFFTRoundTripProperty(t *testing.T) {
	r := NewRand(2)
	f := func(seed int64) bool {
		rr := NewRand(seed)
		n := 1 << (1 + rr.Intn(9)) // 2..1024
		x := rr.CNVector(n, 1)
		y := ifft(fft(x))
		return MaxAbsDiff(x, y) < 1e-8
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40, Rand: r.Rand}); err != nil {
		t.Fatal(err)
	}
}

func TestFFTLinearityProperty(t *testing.T) {
	f := func(seed int64) bool {
		rr := NewRand(seed)
		n := 64
		a := rr.CNVector(n, 1)
		b := rr.CNVector(n, 1)
		alpha := complex(rr.NormFloat64(), rr.NormFloat64())
		sum := make([]complex128, n)
		for i := range sum {
			sum[i] = alpha*a[i] + b[i]
		}
		lhs := fft(sum)
		fa, fb := fft(a), fft(b)
		rhs := make([]complex128, n)
		for i := range rhs {
			rhs[i] = alpha*fa[i] + fb[i]
		}
		return MaxAbsDiff(lhs, rhs) < 1e-8
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

func TestParsevalProperty(t *testing.T) {
	// Energy in time equals energy in frequency divided by N.
	f := func(seed int64) bool {
		rr := NewRand(seed)
		n := 128
		x := rr.CNVector(n, 1)
		et := Energy(x)
		ef := Energy(fft(x)) / float64(n)
		return math.Abs(et-ef) < 1e-8*et+1e-12
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

func TestCyclicShiftTheoremProperty(t *testing.T) {
	// FFT of a circular left-shift by k multiplies bin f by e^{+i2πfk/N}.
	f := func(seed int64) bool {
		rr := NewRand(seed)
		n := 64
		k := rr.Intn(n)
		x := rr.CNVector(n, 1)
		shifted := fft(CyclicShift(x, k))
		base := fft(x)
		for bin := 0; bin < n; bin++ {
			theta := 2 * math.Pi * float64(bin) * float64(k) / float64(n)
			want := base[bin] * cmplx.Exp(complex(0, theta))
			if !approxEq(shifted[bin], want, 1e-7) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}

func TestCyclicShiftInverse(t *testing.T) {
	r := NewRand(3)
	x := r.CNVector(32, 1)
	y := CyclicShift(CyclicShift(x, 5), -5)
	if MaxAbsDiff(x, y) > tol {
		t.Fatal("shift then unshift is not identity")
	}
	z := CyclicShift(x, 32)
	if MaxAbsDiff(x, z) > tol {
		t.Fatal("full-length shift is not identity")
	}
}

func TestPlanReuseMatchesOneShot(t *testing.T) {
	r := NewRand(4)
	p := MustFFTPlan(64)
	for i := 0; i < 5; i++ {
		x := r.CNVector(64, 1)
		want := fft(x)
		got := planarOf(x)
		p.ForwardPlanar(got)
		requirePlanarEqual(t, "plan reuse", got, want)
	}
}

func TestForwardPanicsOnWrongLength(t *testing.T) {
	p := MustFFTPlan(8)
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for wrong length")
		}
	}()
	p.ForwardPlanar(NewPlanar(4))
}

func TestFreqShiftMovesTone(t *testing.T) {
	const n = 64
	x := make([]complex128, n)
	for i := range x {
		x[i] = 1 // DC tone
	}
	FreqShift(x, 3, n, 0)
	X := fft(x)
	if cmplx.Abs(X[3]) < float64(n)-1e-6 {
		t.Fatalf("expected energy at bin 3, |X[3]| = %v", cmplx.Abs(X[3]))
	}
	for k := range X {
		if k != 3 && cmplx.Abs(X[k]) > 1e-6 {
			t.Fatalf("leakage at bin %d: %v", k, cmplx.Abs(X[k]))
		}
	}
}

func TestFreqShiftPhaseContinuity(t *testing.T) {
	// Shifting one long block equals shifting two halves with startSample.
	r := NewRand(5)
	x := r.CNVector(100, 1)
	whole := make([]complex128, len(x))
	copy(whole, x)
	FreqShift(whole, 2.5, 64, 0)

	a := make([]complex128, 50)
	b := make([]complex128, 50)
	copy(a, x[:50])
	copy(b, x[50:])
	FreqShift(a, 2.5, 64, 0)
	FreqShift(b, 2.5, 64, 50)
	joined := append(a, b...)
	if MaxAbsDiff(whole, joined) > 1e-9 {
		t.Fatal("FreqShift not phase-continuous across blocks")
	}
}

func TestPowerAndEnergy(t *testing.T) {
	x := []complex128{3 + 4i, 0, 0, 0}
	if got := Energy(x); math.Abs(got-25) > tol {
		t.Fatalf("Energy = %v, want 25", got)
	}
	if got := Power(x); math.Abs(got-6.25) > tol {
		t.Fatalf("Power = %v, want 6.25", got)
	}
	if Power(nil) != 0 {
		t.Fatal("Power(nil) should be 0")
	}
}

func TestDBRoundTrip(t *testing.T) {
	for _, db := range []float64{-30, -10, 0, 3, 20} {
		if got := DB(FromDB(db)); math.Abs(got-db) > 1e-9 {
			t.Fatalf("DB(FromDB(%v)) = %v", db, got)
		}
	}
	if !math.IsInf(DB(0), -1) {
		t.Fatal("DB(0) should be -Inf")
	}
}

func TestScale(t *testing.T) {
	x := []complex128{1 + 1i, 2}
	Scale(x, 0.5)
	if !approxEq(x[0], 0.5+0.5i, tol) || !approxEq(x[1], 1, tol) {
		t.Fatalf("Scale wrong: %v", x)
	}
}

func TestAddIntoClipsOutOfRange(t *testing.T) {
	dst := make([]complex128, 4)
	AddInto(dst, []complex128{1, 2, 3}, -1) // first sample falls off the left
	want := []complex128{2, 3, 0, 0}
	if MaxAbsDiff(dst, want) > tol {
		t.Fatalf("AddInto negative offset: %v", dst)
	}
	dst2 := make([]complex128, 4)
	AddInto(dst2, []complex128{1, 2, 3}, 2) // last sample falls off the right
	want2 := []complex128{0, 0, 1, 2}
	if MaxAbsDiff(dst2, want2) > tol {
		t.Fatalf("AddInto tail clip: %v", dst2)
	}
}

func TestConvKnown(t *testing.T) {
	x := []complex128{1, 2, 3}
	h := []complex128{1, 1}
	got := Conv(x, h)
	want := []complex128{1, 3, 5, 3}
	if MaxAbsDiff(got, want) > tol {
		t.Fatalf("Conv = %v, want %v", got, want)
	}
	if Conv(nil, h) != nil {
		t.Fatal("Conv with empty input should be nil")
	}
}

func TestConvCommutesProperty(t *testing.T) {
	f := func(seed int64) bool {
		rr := NewRand(seed)
		a := rr.CNVector(1+rr.Intn(20), 1)
		b := rr.CNVector(1+rr.Intn(20), 1)
		return MaxAbsDiff(Conv(a, b), Conv(b, a)) < 1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

func TestAutoCorrDetectsRepetition(t *testing.T) {
	r := NewRand(6)
	half := r.CNVector(32, 1)
	x := append(append([]complex128{}, half...), half...)
	c := AutoCorr(x, 32, 32)
	e := Energy(half)
	if math.Abs(cmplx.Abs(c)-e) > 1e-9 {
		t.Fatalf("|AutoCorr| = %v, want %v for perfect repetition", cmplx.Abs(c), e)
	}
}

func TestCrossCorrSelf(t *testing.T) {
	r := NewRand(7)
	x := r.CNVector(16, 1)
	c := CrossCorr(x, x)
	if math.Abs(real(c)-Energy(x)) > 1e-9 || math.Abs(imag(c)) > 1e-9 {
		t.Fatalf("CrossCorr(x,x) = %v, want energy %v", c, Energy(x))
	}
}

func TestStatsHelpers(t *testing.T) {
	x := []float64{2, 4, 4, 4, 5, 5, 7, 9}
	if m := Mean(x); math.Abs(m-5) > tol {
		t.Fatalf("Mean = %v", m)
	}
	if v := Variance(x); math.Abs(v-32.0/7.0) > tol {
		t.Fatalf("Variance = %v", v)
	}
	if s := StdDev(x); math.Abs(s-math.Sqrt(32.0/7.0)) > tol {
		t.Fatalf("StdDev = %v", s)
	}
	if Mean(nil) != 0 || Variance([]float64{1}) != 0 {
		t.Fatal("empty/degenerate stats should be 0")
	}
}

func TestCentroid(t *testing.T) {
	pts := []complex128{1 + 1i, -1 + 1i, 1 - 1i, -1 - 1i}
	if c := Centroid(pts); cmplx.Abs(c) > tol {
		t.Fatalf("Centroid of symmetric set = %v, want 0", c)
	}
	if Centroid(nil) != 0 {
		t.Fatal("Centroid(nil) should be 0")
	}
}

func TestWrapPhase(t *testing.T) {
	cases := []struct{ in, want float64 }{
		{0, 0},
		{math.Pi, math.Pi},
		{-math.Pi, math.Pi},
		{3 * math.Pi, math.Pi},
		{2 * math.Pi, 0},
		{-0.5, -0.5},
	}
	for _, c := range cases {
		if got := WrapPhase(c.in); math.Abs(got-c.want) > 1e-12 {
			t.Errorf("WrapPhase(%v) = %v, want %v", c.in, got, c.want)
		}
	}
}

func TestRandDeterminism(t *testing.T) {
	a := NewRand(42).CNVector(8, 1)
	b := NewRand(42).CNVector(8, 1)
	if MaxAbsDiff(a, b) != 0 {
		t.Fatal("same seed must produce identical sequences")
	}
}

func TestCNVariance(t *testing.T) {
	r := NewRand(8)
	const n = 200000
	x := r.CNVector(n, 2.0)
	p := Power(x)
	if math.Abs(p-2.0) > 0.05 {
		t.Fatalf("CN power = %v, want ~2.0", p)
	}
	if r.CN(0) != 0 {
		t.Fatal("CN with zero variance should be 0")
	}
}

func TestRandBits(t *testing.T) {
	r := NewRand(9)
	bits := r.Bits(1000)
	ones := 0
	for _, b := range bits {
		if b != 0 && b != 1 {
			t.Fatalf("bit value %d out of range", b)
		}
		ones += int(b)
	}
	if ones < 400 || ones > 600 {
		t.Fatalf("bit balance suspicious: %d ones of 1000", ones)
	}
}
