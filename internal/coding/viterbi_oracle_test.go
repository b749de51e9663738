package coding

import (
	"bytes"
	"math"
	"math/rand"
	"runtime"
	"sync"
	"testing"

	"repro/internal/dsp"
)

// The reference oracle: the byte-decision decoder the packed decoder
// replaced, kept verbatim in its arithmetic — one winning-predecessor byte
// per state per step and a branch on c0 <= c1 — so the packed layout, the
// branchless scalar twin and the vector kernel are all pinned to it.

// refForward runs the oracle's forward pass over n steps, returning the
// byte decisions (decisions[t*numStates+ns] = winning predecessor of ns
// at step t) and the final path metrics.
func refForward(llrs []float64, n int) ([]uint8, [numStates]float64) {
	const inf = math.MaxFloat64 / 4
	var metricA, metricB [numStates]float64
	metric, nextMetric := &metricA, &metricB
	for s := 1; s < numStates; s++ {
		metric[s] = inf
	}
	decisions := make([]uint8, n*numStates)
	var cost [4]float64
	for t := 0; t < n; t++ {
		la, lb := llrs[2*t], llrs[2*t+1]
		cost[1] = la
		cost[2] = lb
		cost[3] = la + lb
		dec := decisions[t*numStates : (t+1)*numStates]
		for in := 0; in < 2; in++ {
			outs := &outsIn[in]
			base := in << 5
			for k := 0; k < numStates/2; k++ {
				s0 := 2 * k
				s1 := s0 + 1
				c0 := metric[s0] + cost[outs[s0]&3]
				c1 := metric[s1] + cost[outs[s1]&3]
				if c0 <= c1 {
					nextMetric[base+k] = c0
					dec[base+k] = uint8(s0)
				} else {
					nextMetric[base+k] = c1
					dec[base+k] = uint8(s1)
				}
			}
		}
		metric, nextMetric = nextMetric, metric
	}
	return decisions, *metric
}

// refDecode is the oracle's flat decode with decode's rules: bits in
// [anchorBit, n) traced from the best final state when fromBest is true
// and from state 0 otherwise, bits below the anchor from state 0.
func refDecode(llrs []float64, anchorBit int, fromBest bool) []byte {
	n := len(llrs) / 2
	decisions, metric := refForward(llrs, n)
	bits := make([]byte, n)
	state := 0
	if fromBest {
		state = bestState(&metric)
	}
	for t := n - 1; t >= 0; t-- {
		if anchorBit < n && t == anchorBit-1 {
			state = 0
		}
		bits[t] = byte(state >> 5)
		state = int(decisions[t*numStates+state])
	}
	return bits
}

// unpackDecisions expands a decision word into the oracle's byte layout:
// the winning predecessor of every state.
func unpackDecisions(word uint64) (col [numStates]uint8) {
	for ns := range col {
		col[ns] = uint8(predecessor(word, ns))
	}
	return col
}

// packDecisions folds a byte-layout column into a decision word: bit ns
// is the low bit of the winning predecessor, set when the odd one won.
func packDecisions(col []uint8) (word uint64) {
	for ns, p := range col {
		word |= uint64(p&1) << uint(ns)
	}
	return word
}

func TestDecisionWordPackRoundTrip(t *testing.T) {
	// Known vector: states 0, 1 and 33 took their odd predecessor.
	word := uint64(1) | 1<<1 | 1<<33
	col := unpackDecisions(word)
	for ns, want := range map[int]uint8{0: 1, 1: 3, 2: 4, 32: 0, 33: 3, 63: 62} {
		if col[ns] != want {
			t.Fatalf("state %d: predecessor %d, want %d", ns, col[ns], want)
		}
	}
	if got := packDecisions(col[:]); got != word {
		t.Fatalf("pack(unpack(%064b)) = %064b", word, got)
	}
	rng := rand.New(rand.NewSource(5))
	for i := 0; i < 1000; i++ {
		w := rng.Uint64()
		c := unpackDecisions(w)
		if got := packDecisions(c[:]); got != w {
			t.Fatalf("pack(unpack(%064b)) = %064b", w, got)
		}
	}
	// Every oracle column is a packed word's expansion: the byte layout
	// only ever records one of a state's two predecessors.
	llrs := streamLLRs(rng, 300)
	dec, _ := refForward(llrs, 300)
	for s := 0; s < 300; s++ {
		col := dec[s*numStates : (s+1)*numStates]
		if got := unpackDecisions(packDecisions(col)); !bytes.Equal(got[:], col) {
			t.Fatalf("step %d: oracle column does not survive pack/unpack", s)
		}
	}
}

// sameMetric reports whether two path metrics are identical bit for bit,
// counting any two NaNs as equal (their payloads are not part of the
// contract).
func sameMetric(a, b float64) bool {
	return math.Float64bits(a) == math.Float64bits(b) || (a != a && b != b)
}

// kernel is one ACS implementation and the dsp.ForceScalar setting that
// selects it.
type kernel struct {
	name   string
	scalar bool
}

// kernels lists the ACS implementations this machine can run. It clears
// dsp.ForceScalar to ask whether the vector kernel is available.
func kernels() []kernel {
	ks := []kernel{{"scalar", true}}
	dsp.ForceScalar(false)
	if dsp.SIMDEnabled() {
		ks = append(ks, kernel{dsp.SIMDName(), false})
	}
	return ks
}

// checkAgainstOracle decodes llrs with every kernel — the flat forward
// pass, the flat decode, the windowed decode at window and the public
// entry points — and fails on any decision, metric or bit that differs
// from the oracle.
func checkAgainstOracle(t *testing.T, llrs []float64, anchorBit int, fromBest bool, window int) {
	t.Helper()
	defer dsp.ForceScalar(false)
	n := len(llrs) / 2
	refDec, refMetric := refForward(llrs, n)
	want := refDecode(llrs, anchorBit, fromBest)
	for _, k := range kernels() {
		dsp.ForceScalar(k.scalar)
		var metric [numStates]float64
		dp := forwardPass(llrs, n, &metric)
		for s, w := range *dp {
			if w != packDecisions(refDec[s*numStates:(s+1)*numStates]) {
				t.Fatalf("%s: step %d decision word %064b differs from the oracle", k.name, s, w)
			}
		}
		putDecisions(dp)
		for s := range metric {
			if !sameMetric(metric[s], refMetric[s]) {
				t.Fatalf("%s: final metric of state %d is %v, oracle %v", k.name, s, metric[s], refMetric[s])
			}
		}
		if got := decode(llrs, anchorBit, fromBest); !bytes.Equal(got, want) {
			t.Fatalf("%s: flat decode (anchor %d, fromBest %v) differs from the oracle", k.name, anchorBit, fromBest)
		}
		if got := decodeWindowed(llrs, anchorBit, fromBest, window); !bytes.Equal(got, want) {
			t.Fatalf("%s: windowed decode (anchor %d, fromBest %v, window %d) differs from the oracle", k.name, anchorBit, fromBest, window)
		}
		v := &Viterbi{Terminated: !fromBest}
		if anchorBit == n {
			got, err := v.Decode(llrs)
			if err != nil || !bytes.Equal(got, want) {
				t.Fatalf("%s: Decode differs from the oracle (err %v)", k.name, err)
			}
		} else if fromBest {
			got, err := v.DecodeAnchored(llrs, anchorBit)
			if err != nil || !bytes.Equal(got, want) {
				t.Fatalf("%s: DecodeAnchored differs from the oracle (err %v)", k.name, err)
			}
		}
	}
}

// fuzzLLR maps one fuzz byte to an LLR, covering hard decisions, erasures
// of both signs, soft values that tie often, and magnitudes that overflow
// the path metrics.
func fuzzLLR(b byte) float64 {
	sign := 1.0
	if b&1 == 1 {
		sign = -1
	}
	switch b >> 5 {
	case 0, 1, 2:
		return sign // hard
	case 3:
		return math.Copysign(0, sign) // erasure, ±0
	case 4:
		return float64(int(b>>1&15)-8) / 4 // soft, a coarse grid full of ties
	case 5:
		return sign * float64(b>>1&15) * 0.37 // soft, irregular
	case 6:
		return sign * []float64{1e300, math.MaxFloat64, math.MaxFloat64 / 4, 1e-300}[b>>1&3]
	default:
		return sign * math.Inf(1)
	}
}

// FuzzViterbiACS pins the vector kernel and the scalar twin to the
// byte-decision oracle: identical decision words, final path metrics and
// decoded bits for flat, windowed and anchored decodes. data[0] places
// the anchor, data[1] picks the window and the traceback rule, and every
// following byte is one LLR (fuzzLLR).
func FuzzViterbiACS(f *testing.F) {
	rng := rand.New(rand.NewSource(7))
	seed := func(head0, head1 byte, body []byte) {
		f.Add(append([]byte{head0, head1}, body...))
	}
	hard := make([]byte, 600)
	soft := make([]byte, 600)
	mixed := make([]byte, 800)
	for i := range hard {
		hard[i] = byte(rng.Intn(96))
		soft[i] = byte(128 + rng.Intn(64))
	}
	rng.Read(mixed)
	seed(200, 0, hard)
	seed(255, 1, hard)
	seed(128, 3, soft)
	seed(17, 2, mixed)
	seed(255, 0, make([]byte, 400))            // all ties: hard +1 everywhere
	seed(90, 5, bytes.Repeat([]byte{96}, 400)) // all erasures (+0)
	seed(90, 4, bytes.Repeat([]byte{97, 96}, 200))
	seed(40, 6, bytes.Repeat([]byte{192, 193, 1, 0}, 100)) // large magnitudes
	seed(0, 7, []byte{255, 224, 1, 0})                     // infinities
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 2 {
			return
		}
		// 600 steps span several merge flushes at the small windows and
		// keep each run (and the fuzzer's input minimisation) quick.
		body := data[2:]
		if len(body) > 1200 {
			body = body[:1200]
		}
		llrs := make([]float64, len(body)&^1)
		for i := range llrs {
			llrs[i] = fuzzLLR(body[i])
		}
		n := len(llrs) / 2
		anchor := n
		fromBest := data[1]&1 == 1
		if data[0] < 250 {
			anchor = int(data[0]) * n / 250
			fromBest = true
		}
		window := []int{2 * numStates, 150, 256, 4096}[data[1]>>1&3]
		checkAgainstOracle(t, llrs, anchor, fromBest, window)
	})
}

// TestDecodeMatchesOracle runs the public entry points over noisy
// streams below and above streamEngage against the oracle, with every
// kernel.
func TestDecodeMatchesOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for _, n := range []int{1, 7, 200, streamEngage, streamEngage + 1, 3264} {
		llrs := streamLLRs(rng, n)
		for _, anchor := range []int{0, n / 3, n - 1, n} {
			checkAgainstOracle(t, llrs, anchor, true, streamWindow)
		}
		checkAgainstOracle(t, llrs, n, false, streamWindow)
	}
}

// TestViterbiConcurrentDecodes shares one Viterbi across goroutines that
// decode flat and windowed streams while another flips dsp.ForceScalar,
// so the decision-word pool and the per-decode kernel choice are
// exercised concurrently (run it under -race). Every result must match
// the oracle whichever kernel served it.
func TestViterbiConcurrentDecodes(t *testing.T) {
	defer dsp.ForceScalar(false)
	rng := rand.New(rand.NewSource(13))
	type job struct {
		llrs   []float64
		anchor int
		want   []byte
	}
	var jobs []job
	for _, n := range []int{300, 3264} {
		llrs := streamLLRs(rng, n)
		jobs = append(jobs, job{llrs, n, refDecode(llrs, n, false)}, job{llrs, n - 42, refDecode(llrs, n-42, true)})
	}
	v := NewViterbi()
	stop := make(chan struct{})
	var toggler sync.WaitGroup
	toggler.Add(1)
	go func() {
		defer toggler.Done()
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
				dsp.ForceScalar(i&1 == 0)
				runtime.Gosched()
			}
		}
	}()
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 20; i++ {
				j := jobs[(g+i)%len(jobs)]
				got, err := v.DecodeAnchored(j.llrs, j.anchor)
				if err != nil || !bytes.Equal(got, j.want) {
					t.Errorf("goroutine %d: decode %d (anchor %d) differs from the oracle (err %v)", g, i, j.anchor, err)
					return
				}
			}
		}()
	}
	wg.Wait()
	close(stop)
	toggler.Wait()
}
