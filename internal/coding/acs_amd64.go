//go:build !purego

package coding

import "repro/internal/dsp"

// vectorACS reports whether a decode should run the AVX2 kernel:
// dsp.SIMDEnabled, which on amd64 means AVX2 was detected and
// dsp.ForceScalar is off.
func vectorACS() bool { return dsp.SIMDEnabled() }

// acsStepsVector is acsSteps on the AVX2 kernel: one assembly call for
// the whole run of steps.
func acsStepsVector(metric, scratch *[numStates]float64, llrs []float64, dec []uint64) {
	n := len(dec)
	if n == 0 {
		return
	}
	_ = llrs[2*n-1]
	acsAVX2(metric, scratch, &llrs[0], &dec[0], &acsPerm, n)
	if n&1 == 1 {
		*metric = *scratch
	}
}

// acsAVX2 (acs_amd64.s) runs n ACS steps on the LLR pairs at llrs,
// alternating the path metrics between metric and scratch (after an odd
// n the final metrics are in scratch) and storing one decision word per
// step at dec. It performs exactly acsColumn's floating-point operations
// per state, so its metrics and decisions are bit-identical to acsSteps.
//
//go:noescape
func acsAVX2(metric, scratch *[numStates]float64, llrs *float64, dec *uint64, perm *[numStates / 8][4][8]uint32, n int)

// acsPerm holds the VPERMPS index vectors that gather each state's branch
// cost from the step's cost vector (0, la, lb, la+lb). Group g covers
// destination states 4g..4g+3 (input bit 0) and 32+4g..32+4g+3 (input
// bit 1); its four vectors select the costs of the even predecessors and
// of the odd predecessors for input 0, then the same for input 1. A cost
// o occupies float32 lanes 2o and 2o+1.
var acsPerm = func() (p [numStates / 8][4][8]uint32) {
	for g := range p {
		for j := range p[g] {
			in, odd := j>>1, j&1
			for l := 0; l < 4; l++ {
				o := uint32(outsIn[in][2*(4*g+l)+odd])
				p[g][j][2*l], p[g][j][2*l+1] = 2*o, 2*o+1
			}
		}
	}
	return p
}()
