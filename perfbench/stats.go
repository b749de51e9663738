package main

import (
	"bufio"
	"fmt"
	"math"
	"os"
	"runtime"
	"runtime/debug"
	"runtime/metrics"
	"slices"
	"strconv"
	"strings"
	"time"
)

// ms converts a duration to float milliseconds.
func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// quantile returns the q-quantile of xs by linear interpolation between
// closest ranks (xs is sorted in place).
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	slices.Sort(xs)
	pos := q * float64(len(xs)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return xs[lo] + (xs[hi]-xs[lo])*(pos-float64(lo))
}

// sample is one timed operation of a closed loop.
type sample struct {
	end    time.Duration // when it completed, from the loop's start
	ms     float64       // its latency
	weight float64       // the work it completed (packets)
}

// windows is how many equal time windows a run's samples are split
// into; a windowed statistic is the median of its per-window values, so
// a burst of interference from outside the benchmark that covers less
// than half the windows does not move it.
const windows = 5

// windowMedian returns the median over the run's windows of stat
// applied to each window's latencies, total weight and span in seconds.
// Empty windows are skipped.
func windowMedian(ss []sample, wall time.Duration, stat func(lat []float64, weight, seconds float64) float64) float64 {
	return median(windowValues(ss, wall, windows, stat))
}

// windowValues splits the run into n windows and returns stat of every
// non-empty one. A window's span runs from the last completion before
// it (or the run's start) to its own last completion, so its weight
// over its span is a rate that does not jump by a whole operation when
// one completes just past the window's edge.
func windowValues(ss []sample, wall time.Duration, n int, stat func(lat []float64, weight, seconds float64) float64) []float64 {
	width := wall / time.Duration(n)
	var vals []float64
	var prevLast time.Duration
	for w := 0; w < n; w++ {
		lo, hi := time.Duration(w)*width, time.Duration(w+1)*width
		if w == n-1 {
			hi = wall + 1
		}
		var lat []float64
		weight := 0.0
		last := lo
		for _, s := range ss {
			if s.end >= lo && s.end < hi {
				lat = append(lat, s.ms)
				weight += s.weight
				last = max(last, s.end)
			}
		}
		if len(lat) > 0 && last > prevLast {
			vals = append(vals, stat(lat, weight, (last-prevLast).Seconds()))
			prevLast = last
		}
	}
	return vals
}

// windowedP50 is the median over windows of each window's median latency.
func windowedP50(ss []sample, wall time.Duration) float64 {
	return windowMedian(ss, wall, func(lat []float64, _, _ float64) float64 { return quantile(lat, 0.5) })
}

// windowedRate is the median over windows of each window's completed
// weight per second.
func windowedRate(ss []sample, wall time.Duration) float64 {
	return windowMedian(ss, wall, func(_ []float64, weight, seconds float64) float64 { return weight / seconds })
}

// windowedP95 is the median over windows of each window's 95th
// percentile, with as many windows (at most 5) as keep 200 operations in
// each, so every window's p95 has ten samples beyond it.
func windowedP95(ss []sample, wall time.Duration) float64 {
	w := min(windows, max(len(ss)/200, 1))
	return median(windowValues(ss, wall, w, func(lat []float64, _, _ float64) float64 { return quantile(lat, 0.95) }))
}

// latencies returns the latencies of ss.
func latencies(ss []sample) []float64 {
	out := make([]float64, len(ss))
	for i, s := range ss {
		out[i] = s.ms
	}
	return out
}

// tailReportable reports whether the q-quantile of n samples has at
// least ten samples beyond it, the rule for publishing a tail percentile.
func tailReportable(n int, q float64) bool { return float64(n)*(1-q) >= 10 }

// median of a copy of xs.
func median(xs []float64) float64 { return quantile(slices.Clone(xs), 0.5) }

// sum adds xs.
func sum(xs []float64) float64 {
	s := 0.0
	for _, x := range xs {
		s += x
	}
	return s
}

// statusMB reads a memory field ("VmHWM", "VmRSS") of
// /proc/self/status in MB.
func statusMB(field string) (float64, error) {
	f, err := os.Open("/proc/self/status")
	if err != nil {
		return 0, fmt.Errorf("reading %s: %w", field, err)
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		fields := strings.Fields(sc.Text())
		if len(fields) < 2 || fields[0] != field+":" {
			continue
		}
		kb, err := strconv.ParseFloat(fields[1], 64)
		if err != nil {
			return 0, fmt.Errorf("reading %s: %w", field, err)
		}
		return kb * 1024 / 1e6, nil
	}
	return 0, fmt.Errorf("no %s in /proc/self/status", field)
}

// rssSampler samples the resident set during a timed loop, at most
// every rssEvery. Set-up garbage is returned to the system before the
// loop starts (startRSS), so the samples are the loop's.
type rssSampler struct {
	start time.Time
	last  time.Time
	// samples hold the resident set in MB (in the ms field) and when it
	// was read (end).
	samples []sample
	err     error
}

const rssEvery = 100 * time.Millisecond

// startRSS frees set-up garbage and takes the first sample.
func startRSS() *rssSampler {
	runtime.GC()
	debug.FreeOSMemory()
	s := &rssSampler{start: time.Now()}
	s.take()
	return s
}

// maybe samples if rssEvery has passed since the last sample.
func (s *rssSampler) maybe() {
	if time.Since(s.last) >= rssEvery {
		s.take()
	}
}

func (s *rssSampler) take() {
	s.last = time.Now()
	v, err := statusMB("VmRSS")
	if err != nil {
		s.err = err
		return
	}
	s.samples = append(s.samples, sample{end: s.last.Sub(s.start), ms: v})
}

// typical is the median over the loop's windows of each window's median
// resident set.
func (s *rssSampler) typical() float64 {
	return windowMedian(s.samples, s.last.Sub(s.start), func(mb []float64, _, _ float64) float64 { return quantile(mb, 0.5) })
}

// allocSample is a process-wide allocation and GC reading.
type allocSample struct {
	objects, bytes, gcCycles uint64
}

var allocMetricNames = []string{
	"/gc/heap/allocs:objects",
	"/gc/heap/allocs:bytes",
	"/gc/cycles/total:gc-cycles",
}

// readAllocs samples the runtime's cumulative allocation counters.
func readAllocs() allocSample {
	s := make([]metrics.Sample, len(allocMetricNames))
	for i, n := range allocMetricNames {
		s[i].Name = n
	}
	metrics.Read(s)
	return allocSample{objects: s[0].Value.Uint64(), bytes: s[1].Value.Uint64(), gcCycles: s[2].Value.Uint64()}
}

// add sums two counter deltas.
func (a allocSample) add(b allocSample) allocSample {
	return allocSample{objects: a.objects + b.objects, bytes: a.bytes + b.bytes, gcCycles: a.gcCycles + b.gcCycles}
}

// sub returns the counters accumulated since b.
func (a allocSample) sub(b allocSample) allocSample {
	return allocSample{objects: a.objects - b.objects, bytes: a.bytes - b.bytes, gcCycles: a.gcCycles - b.gcCycles}
}

// environment describes the machine and toolchain a run measured on.
func environment() map[string]any {
	return map[string]any{
		"nproc":      runtime.NumCPU(),
		"gomaxprocs": runtime.GOMAXPROCS(0),
		"go":         runtime.Version(),
		"os_arch":    runtime.GOOS + "/" + runtime.GOARCH,
	}
}
