package coding

import (
	"fmt"
	"math"
	"sync"
)

// decisionsPool recycles the survivor-decision buffers between decodes:
// one uint64 decision word per trellis step (8 B, ~9.6 KB per 1200-bit
// decode). The pool stores *[]uint64 boxes that are themselves recycled —
// callers hand the same pointer back — so steady state allocates neither
// the buffer nor an interface box.
var decisionsPool sync.Pool

// getDecisions returns a boxed decision buffer with capacity for at least
// n trellis steps, sliced to length n.
func getDecisions(n int) *[]uint64 {
	if v := decisionsPool.Get(); v != nil {
		bp := v.(*[]uint64)
		if cap(*bp) >= n {
			*bp = (*bp)[:n]
			return bp
		}
	}
	buf := make([]uint64, n)
	return &buf
}

// putDecisions recycles a box obtained from getDecisions. The caller must
// not retain the box or its buffer.
func putDecisions(bp *[]uint64) {
	decisionsPool.Put(bp)
}

// outsIn[in][s] is the branch output pair outA|outB<<1 of the transition
// from state s on input bit in, laid out per input bit — the order the
// destination-state ACS loop walks sequentially.
var outsIn = func() (t [2][numStates]byte) {
	for in := 0; in < 2; in++ {
		for s := 0; s < numStates; s++ {
			reg := uint32(in)<<6 | uint32(s)
			t[in][s] = parity(reg&polyA) | parity(reg&polyB)<<1
		}
	}
	return t
}()

// Viterbi is a maximum-likelihood decoder for the 802.11 rate-1/2 K=7
// convolutional code. It consumes per-bit log-likelihood ratios (positive =
// bit 0 more likely; 0 = erasure, as produced by Depuncture), so a single
// implementation serves both hard decisions (±1 LLRs) and soft decisions.
//
// The decoder assumes the encoder started in the all-zero state and, when
// Terminated is set, that six zero tail bits returned it there. Decodes
// only read the Viterbi, so one value may serve concurrent decodes.
type Viterbi struct {
	// Terminated selects traceback from state 0 (true, the 802.11 case
	// with tail bits) or from the best final state (false).
	Terminated bool
}

// NewViterbi returns a decoder for terminated streams.
func NewViterbi() *Viterbi {
	return &Viterbi{Terminated: true}
}

// Decode recovers the information bits (including any tail bits the encoder
// appended) from mother-code LLRs. len(llrs) must be even; nInfo =
// len(llrs)/2 bits are returned.
//
// The add-compare-select loop iterates over destination states: state ns
// has exactly the two predecessors s = 2·(ns mod 32) and s+1 with input
// bit ns>>5 (from next = (in<<6|s)>>1), so each trellis column is a flat
// pass of two adds and one compare per state with no infinity screening.
// The survivor of every state at a step is one bit of that step's
// decision word (the input bit is implied by the state). Branch costs and
// tie-breaking (lowest predecessor wins) are arithmetically identical to
// the reference per-source-state formulation, so decoded output is
// bit-for-bit unchanged.
func (v *Viterbi) Decode(llrs []float64) ([]byte, error) {
	if len(llrs)%2 != 0 {
		return nil, fmt.Errorf("coding: Viterbi needs an even LLR count, got %d", len(llrs))
	}
	n := len(llrs) / 2
	return decode(llrs, n, !v.Terminated), nil
}

// decode decodes n = len(llrs)/2 steps with the flat decoder, or with the
// windowed one above streamEngage. Bits in [anchorBit, n) are traced from
// the best final state when fromBest is true and from state 0 otherwise;
// bits in [0, anchorBit) are traced from the known zero state at
// anchorBit (anchorBit = n means no anchor).
func decode(llrs []float64, anchorBit int, fromBest bool) []byte {
	n := len(llrs) / 2
	if n == 0 {
		return nil
	}
	if n > streamEngage {
		return decodeWindowed(llrs, anchorBit, fromBest, streamWindow)
	}
	var metric [numStates]float64
	dp := forwardPass(llrs, n, &metric)
	defer putDecisions(dp)
	decisions := *dp
	bits := make([]byte, n)
	state := 0
	if fromBest {
		state = bestState(&metric)
	}
	if anchorBit < n {
		traceback(decisions[anchorBit:], bits[anchorBit:], state)
		n, state = anchorBit, 0
	}
	traceback(decisions[:n], bits[:n], state)
	return bits
}

// forwardPass runs the add-compare-select recursion over n trellis steps,
// leaving the final path metrics in metric and returning the boxed
// decision words (return the box to putDecisions when done).
func forwardPass(llrs []float64, n int, metric *[numStates]float64) *[]uint64 {
	var scratch [numStates]float64
	initMetrics(metric)
	// Recycled across decodes; every word [0, n) is overwritten below
	// before the traceback reads it.
	dp := getDecisions(n)
	acsRun(vectorACS(), metric, &scratch, llrs[:2*n], *dp)
	return dp
}

// initMetrics sets the path metrics of a stream that starts in state 0.
func initMetrics(metric *[numStates]float64) {
	const inf = math.MaxFloat64 / 4
	metric[0] = 0
	for s := 1; s < numStates; s++ {
		metric[s] = inf
	}
}

// acsRun advances the path metrics in metric over len(dec) trellis steps
// whose LLR pairs are llrs (2·len(dec) values), writing one decision word
// per step into dec. scratch is the second metric buffer the recursion
// alternates with; metric holds the final metrics on return. vector
// selects the vector kernel; decoders read vectorACS once per decode, so
// dsp.ForceScalar never switches kernels mid-stream.
func acsRun(vector bool, metric, scratch *[numStates]float64, llrs []float64, dec []uint64) {
	if vector {
		acsStepsVector(metric, scratch, llrs, dec)
	} else {
		acsSteps(metric, scratch, llrs, dec)
	}
}

// acsSteps is the portable ACS recursion: one acsColumn per step. The
// vector kernel is bit-identical to it.
func acsSteps(metric, scratch *[numStates]float64, llrs []float64, dec []uint64) {
	cur, next := metric, scratch
	// Per-step branch costs indexed by the branch output pair outA|outB<<1:
	// cost[o] = (la if o&1) + (lb if o&2). For o = 3 the two LLRs are
	// summed before the path metric, reassociating the reference
	// implementation's conditional adds — exact for hard (±1) LLRs and
	// within an ulp for soft ones.
	var cost [4]float64
	for t := range dec {
		la, lb := llrs[2*t], llrs[2*t+1]
		cost[1] = la
		cost[2] = lb
		cost[3] = la + lb
		dec[t] = acsColumn(cur, next, &cost)
		cur, next = next, cur
	}
	if cur != metric {
		*metric = *cur
	}
}

// acsColumn advances one trellis column and returns its decision word:
// bit ns is set when the odd predecessor 2·(ns mod 32)+1 survives, i.e.
// when !(c0 <= c1), so ties go to the lowest predecessor. Destination
// states split by their implied input bit (the top bit); each half walks
// the source metrics sequentially in pairs. The survivor is selected by
// indexing with the decision bit, so no branch depends on the data.
func acsColumn(metric, next *[numStates]float64, cost *[4]float64) uint64 {
	var word uint64
	for in := 0; in < 2; in++ {
		outs := &outsIn[in]
		base := in << 5
		nm := next[base : base+numStates/2 : base+numStates/2]
		for k := range nm {
			s0 := 2 * k
			c := [2]float64{
				metric[s0] + cost[outs[s0]&3],
				metric[s0+1] + cost[outs[s0+1]&3],
			}
			var odd uint64
			if !(c[0] <= c[1]) {
				odd = 1
			}
			nm[k] = c[odd]
			word |= odd << (base + k)
		}
	}
	return word
}

// traceback walks the survivor path that ends in state after the last of
// the steps whose decision words are decisions, filling the matching
// bits (same length).
func traceback(decisions []uint64, bits []byte, state int) {
	for t := len(decisions) - 1; t >= 0; t-- {
		bits[t] = byte(state >> 5)
		state = predecessor(decisions[t], state)
	}
}

// predecessor returns the surviving predecessor of state under the
// decision word of its step.
func predecessor(word uint64, state int) int {
	return (state&31)<<1 | int(word>>uint(state)&1)
}

// DecodeAnchored is Decode for streams whose encoder register is known to
// return to the all-zero state after anchorBit information bits, with
// further (uninformative) bits after it — the 802.11 DATA field, where
// SERVICE+PSDU+tail end in state zero and only scrambled pad bits follow.
// Bits [0, anchorBit) are traced back from that known zero state, so
// channel errors on the trailing pad can never corrupt payload bits (with
// best-final-state traceback they can when the pad is shorter than the
// survivor-merge depth). The trailing bits are traced from the best final
// state as in unterminated decoding.
func (v *Viterbi) DecodeAnchored(llrs []float64, anchorBit int) ([]byte, error) {
	n := len(llrs) / 2
	if anchorBit < 0 || anchorBit > n {
		return nil, fmt.Errorf("coding: anchor %d outside [0,%d]", anchorBit, n)
	}
	if len(llrs)%2 != 0 {
		return nil, fmt.Errorf("coding: Viterbi needs an even LLR count, got %d", len(llrs))
	}
	// With the anchor at the end, the whole stream is terminated.
	return decode(llrs, anchorBit, anchorBit < n), nil
}

// DecodePuncturedAnchored depunctures llrs for rate r (nInfo information
// bits) and decodes with the zero-state anchor after anchorBit bits.
func (v *Viterbi) DecodePuncturedAnchored(llrs []float64, r CodeRate, nInfo, anchorBit int) ([]byte, error) {
	mother, err := Depuncture(llrs, r, 2*nInfo)
	if err != nil {
		return nil, err
	}
	return v.DecodeAnchored(mother, anchorBit)
}

// DecodeHard is a convenience wrapper that decodes hard-decision
// mother-code bits.
func (v *Viterbi) DecodeHard(coded []byte) ([]byte, error) {
	return v.Decode(HardToLLR(coded))
}

// DecodePunctured depunctures llrs for rate r (nInfo information bits,
// including tail) and decodes.
func (v *Viterbi) DecodePunctured(llrs []float64, r CodeRate, nInfo int) ([]byte, error) {
	mother, err := Depuncture(llrs, r, 2*nInfo)
	if err != nil {
		return nil, err
	}
	return v.Decode(mother)
}
