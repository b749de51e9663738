//go:build purego || !amd64

package coding

// This build has no vector ACS kernel: either the purego tag compiled it
// out or the target architecture has none (arm64 runs the scalar twin).

// vectorACS always declines, so every decode runs acsSteps.
func vectorACS() bool { return false }

// acsStepsVector exists so acsRun's (statically dead, since vectorACS is
// always false here) vector branch compiles.
func acsStepsVector(metric, scratch *[numStates]float64, llrs []float64, dec []uint64) {
	panic("coding: acsStepsVector called without a vector kernel")
}
