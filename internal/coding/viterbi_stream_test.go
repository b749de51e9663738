package coding

import (
	"bytes"
	"math/rand"
	"testing"
)

// flatAnchoredRef reproduces the flat (full-buffer) anchored decode
// regardless of stream length, as the reference for the windowed decoder:
// best-final-state traceback above the anchor, zero-state traceback below.
func flatAnchoredRef(llrs []float64, anchorBit int) []byte {
	n := len(llrs) / 2
	var fm [numStates]float64
	dp := forwardPass(llrs, n, &fm)
	decisions := *dp
	bits := make([]byte, n)
	traceback(decisions[anchorBit:], bits[anchorBit:], bestState(&fm))
	traceback(decisions[:anchorBit], bits[:anchorBit], 0)
	putDecisions(dp)
	return bits
}

// flatRef is the flat terminated / best-final decode reference.
func flatRef(llrs []float64, fromBest bool) []byte {
	n := len(llrs) / 2
	var fm [numStates]float64
	dp := forwardPass(llrs, n, &fm)
	bits := make([]byte, n)
	state := 0
	if fromBest {
		state = bestState(&fm)
	}
	traceback(*dp, bits, state)
	putDecisions(dp)
	return bits
}

// streamLLRs builds an LLR stream of n trellis steps: a noisy encoding of
// random bits (so survivor paths look like real decodes), with a fraction
// of erasures and sign flips.
func streamLLRs(rng *rand.Rand, n int) []float64 {
	bits := make([]byte, n)
	for i := range bits {
		bits[i] = byte(rng.Intn(2))
	}
	// Ensure the tail drives the encoder toward the zero state so the
	// terminated reference is meaningful for part of the cases.
	for i := n - 6; i > 0 && i < n; i++ {
		bits[i] = 0
	}
	llrs := HardToLLR(ConvEncode(bits))
	for i := range llrs {
		switch rng.Intn(10) {
		case 0:
			llrs[i] = -llrs[i] // channel error
		case 1:
			llrs[i] = 0 // erasure
		case 2:
			llrs[i] *= rng.Float64() * 3 // soft confidence
		}
	}
	return llrs
}

// TestDecodeWindowedMatchesFlat pins the windowed decoder to the flat
// reference bit for bit, across window sizes (including ones forcing many
// merge flushes), anchor positions (interior, zero, end-adjacent) and both
// terminal-state rules. This is the exactness contract of the streaming
// traceback: the survivor-merge finalisation must never emit a bit the
// full-buffer traceback would decide differently.
func TestDecodeWindowedMatchesFlat(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	for _, n := range []int{40, 700, 3000} {
		llrs := streamLLRs(rng, n)
		for _, window := range []int{1, 150, 4096} { // 1 clamps to the minimum window
			for _, anchor := range []int{0, 37, n / 2, n - 7, n} {
				if anchor > n {
					continue
				}
				var want []byte
				if anchor == n {
					want = flatRef(llrs, true)
				} else {
					want = flatAnchoredRef(llrs, anchor)
				}
				got := decodeWindowed(llrs, anchor, true, window)
				if !bytes.Equal(got, want) {
					t.Fatalf("n=%d window=%d anchor=%d: windowed decode diverges from flat", n, window, anchor)
				}
			}
			// Terminated rule (traceback from state 0 at the end).
			want := flatRef(llrs, false)
			got := decodeWindowed(llrs, n, false, window)
			if !bytes.Equal(got, want) {
				t.Fatalf("n=%d window=%d terminated: windowed decode diverges from flat", n, window)
			}
		}
	}
}

// TestDecodeWindowedAllErasures feeds a stream of pure erasures (every
// path metric tied at every step): deterministic tie-breaking must still
// merge the survivors and the output must match the flat reference.
func TestDecodeWindowedAllErasures(t *testing.T) {
	n := 2000
	llrs := make([]float64, 2*n)
	got := decodeWindowed(llrs, n, false, 150)
	if !bytes.Equal(got, flatRef(llrs, false)) {
		t.Fatal("all-erasure windowed decode diverges from flat")
	}
}

// TestDecodeLongStreamsUseWindowAndMatch exercises the public entry points
// above the streamEngage threshold — the paths real long-PSDU decodes take
// — against the flat references, including a full encode/decode round trip.
func TestDecodeLongStreamsUseWindowAndMatch(t *testing.T) {
	v := NewViterbi()
	rng := rand.New(rand.NewSource(123))
	n := streamEngage + 517
	llrs := streamLLRs(rng, n)

	got, err := v.Decode(llrs)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, flatRef(llrs, false)) {
		t.Fatal("long terminated Decode diverges from flat")
	}

	v.Terminated = false
	got, err = v.Decode(llrs)
	v.Terminated = true
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, flatRef(llrs, true)) {
		t.Fatal("long unterminated Decode diverges from flat")
	}

	anchor := n - 100
	got, err = v.DecodeAnchored(llrs, anchor)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, flatAnchoredRef(llrs, anchor)) {
		t.Fatal("long DecodeAnchored diverges from flat")
	}

	// Noiseless round trip through the long path: decoded bits must
	// reproduce the encoder input exactly.
	bits := make([]byte, n)
	for i := range bits {
		bits[i] = byte(rng.Intn(2))
	}
	for i := n - 6; i < n; i++ {
		bits[i] = 0 // tail back to the zero state
	}
	dec, err := v.Decode(HardToLLR(ConvEncode(bits)))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(dec, bits) {
		t.Fatal("long noiseless round trip failed")
	}
}
