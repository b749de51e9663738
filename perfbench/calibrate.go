package main

import (
	"math"
	"slices"
	"time"
)

// The benchmark runs on shared machines whose speed drifts by tens of
// percent over minutes. Each run therefore times a fixed calibration
// loop — code in this package, not in the program — between its
// operations, and reports its end-to-end times in calibrated
// milliseconds: measured ms × (calRefMS ÷ the run's calibration
// time)^calExponent. A program change moves calibrated times exactly as
// it moves measured ones; a machine that runs slower for a while moves
// both the operations and the loop. The report line keeps the measured
// values.

// calRefMS is the calibration time calibrated values are expressed
// against: a calibrated millisecond is a measured millisecond on a
// machine where one calibration run takes calRefMS.
const calRefMS = 1.0

// calExponent is how strongly the workloads' times follow the loop's.
// On the 2-core VM the benchmark was defined on, the loop slowed about
// twice as much (in log terms) as packets did when the machine drifted:
// over 36 runs in four batches, scaling by the square root of the
// loop's slowdown gave the smallest spread of packet latency on both
// packet workloads (0.07–0.10 of the median, against 0.11–0.21
// measured and 0.10–0.24 scaled fully).
const calExponent = 0.5

// calScale is the factor a run's measured times are multiplied by.
func calScale(calMS float64) float64 { return math.Pow(calRefMS/calMS, calExponent) }

// calEvery: each packet-workload goroutine times the calibrator after
// every calEvery-th packet it runs.
const calEvery = 8

// calibrator is the calibration loop: radix-2 transforms and a 64-state
// add-compare-select pass over a buffer that stays in cache, so it
// tracks the processor's speed rather than memory traffic.
type calibrator struct {
	tw  []complex128
	buf []complex128
	// sink keeps the loop's result live so the compiler cannot drop it.
	sink float64
}

const (
	calN      = 1024
	calBlocks = 4  // a 64 KiB buffer
	calPasses = 16 // transforms per block per run
)

func newCalibrator() *calibrator {
	c := &calibrator{tw: make([]complex128, calN/2), buf: make([]complex128, calBlocks*calN)}
	for k := range c.tw {
		s, co := math.Sincos(-2 * math.Pi * float64(k) / calN)
		c.tw[k] = complex(co, s)
	}
	return c
}

// run does one unit of calibration work.
func (c *calibrator) run() {
	buf := c.buf
	for i := range buf {
		buf[i] = complex(float64(i%7), float64(i%5))
	}
	for pass := 0; pass < calPasses; pass++ {
		for b := 0; b < len(buf); b += calN {
			fft(buf[b:b+calN], c.tw)
		}
	}
	var metric, next [64]float64
	acc := 0.0
	for step := 0; step < 400; step++ {
		x := real(buf[step*97%len(buf)])
		for s := 0; s < 64; s++ {
			a := metric[(2*s)%64] + x
			b := metric[(2*s+1)%64] - x
			if a <= b {
				next[s] = a
			} else {
				next[s] = b
			}
		}
		metric, next = next, metric
		acc += metric[0]
	}
	c.sink += acc + real(buf[len(buf)-1])
}

// timeMS returns the duration of one run in milliseconds.
func (c *calibrator) timeMS() float64 {
	t0 := time.Now()
	c.run()
	return ms(time.Since(t0))
}

// calibration is a run's calibration time: the lower quartile of its
// samples. Samples taken while the collector or another goroutine
// competed for the processor sit above it; a machine that runs slower
// for the whole run moves it.
func calibration(samples []float64) float64 { return quantile(slices.Clone(samples), 0.25) }

// calSamples collects one goroutine's calibration times.
type calSamples struct {
	c  *calibrator
	ms []float64
}

func newCalSamples() *calSamples { return &calSamples{c: newCalibrator()} }

func (s *calSamples) take() { s.ms = append(s.ms, s.c.timeMS()) }

// fft is an in-place iterative radix-2 transform of len(x) points.
func fft(x []complex128, tw []complex128) {
	n := len(x)
	for i, j := 1, 0; i < n; i++ {
		bit := n >> 1
		for ; j&bit != 0; bit >>= 1 {
			j ^= bit
		}
		j ^= bit
		if i < j {
			x[i], x[j] = x[j], x[i]
		}
	}
	for size := 2; size <= n; size <<= 1 {
		step := n / size
		half := size / 2
		for start := 0; start < n; start += size {
			for k := 0; k < half; k++ {
				t := tw[k*step] * x[start+k+half]
				x[start+k+half] = x[start+k] - t
				x[start+k] += t
			}
		}
	}
}
