package main

import (
	"fmt"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/experiments"
	"repro/internal/interference"
	"repro/internal/wifi"
)

// packetSpec builds one packet workload's measurement point.
type packetSpec struct {
	name string
	// config returns the point for a seed, with a fresh waveform pool
	// when the workload uses one.
	config func(seed int64, psduBytes int) (experiments.LinkConfig, error)
}

// maxPackets is the plan's packet count: an upper bound the timed run
// never reaches. RunPacket takes any index; the count only bounds
// RunRange and sizes the auto intra-packet parallelism, which Workers
// already fixes.
const maxPackets = 1 << 30

var packetArms = []experiments.ReceiverKind{experiments.Standard, experiments.CPRecycle}

// aciPacket is the Fig. 8 point: one adjacent-channel interferer three
// channels away at −15 dB SIR, QPSK 1/2, the pool-less draw path.
var aciPacket = packetSpec{
	name: "aci-packet",
	config: func(seed int64, psduBytes int) (experiments.LinkConfig, error) {
		m, err := wifi.MCSByName("QPSK 1/2")
		if err != nil {
			return experiments.LinkConfig{}, err
		}
		return experiments.LinkConfig{
			Scenario:  experiments.ACIScenario(-15, interference.Channel80211Offset(3), experiments.OperatingSNR(m.Name)),
			MCS:       m,
			PSDUBytes: psduBytes,
			Packets:   maxPackets,
			Seed:      seed,
			Receivers: packetArms,
			Workers:   loopGoroutines(),
		}, nil
	},
}

// cciPacket is the Fig. 11 point: one co-channel interferer at 15 dB
// SIR, 16-QAM 1/2, interferer tiles drawn from a shared waveform pool.
var cciPacket = packetSpec{
	name: "cci-packet",
	config: func(seed int64, psduBytes int) (experiments.LinkConfig, error) {
		m, err := wifi.MCSByName("16-QAM 1/2")
		if err != nil {
			return experiments.LinkConfig{}, err
		}
		sc := experiments.CCIScenario(15, experiments.OperatingSNR(m.Name))
		sc.Pool = wifi.NewWaveformPool(wifi.DefaultPoolSize, seed^poolSeedMix)
		return experiments.LinkConfig{
			Scenario:  sc,
			MCS:       m,
			PSDUBytes: psduBytes,
			Packets:   maxPackets,
			Seed:      seed,
			Receivers: packetArms,
			Workers:   loopGoroutines(),
		}, nil
	},
}

// poolSeedMix derives a waveform-pool seed from the workload seed.
const poolSeedMix = 0x5eed

// packetSetup plans the point and warms it: the pool's lazy encoding and
// the process-wide transform caches fill on the first packets, so one
// packet per driving goroutine runs before timing starts.
func packetSetup(ps packetSpec, o options) (experiments.LinkConfig, *experiments.PSRPlan, error) {
	cfg, err := ps.config(o.seed, o.sizes.psduBytes)
	if err != nil {
		return cfg, nil, err
	}
	plan, err := experiments.PlanPSR(cfg)
	if err != nil {
		return cfg, nil, err
	}
	ok := make([]bool, len(cfg.Receivers))
	for i := 0; i < loopGoroutines(); i++ {
		if err := plan.RunPacket(i, ok); err != nil {
			return cfg, nil, fmt.Errorf("warm-up packet %d: %w", i, err)
		}
	}
	return cfg, plan, nil
}

// repeatedSetup runs setup reps times, discarding each result before
// the next set-up, and returns the last result and every set-up
// duration.
func repeatedSetup[T any](reps int, setup func() (T, error), discard func(T)) (T, []float64, error) {
	var last T
	var times []float64
	for i := 0; i < reps; i++ {
		if i > 0 && discard != nil {
			discard(last)
		}
		t0 := time.Now()
		v, err := setup()
		if err != nil {
			return last, nil, err
		}
		times = append(times, time.Since(t0).Seconds())
		last = v
	}
	return last, times, nil
}

// pktRecord is one executed packet: its index, per-arm success bits and
// timing.
type pktRecord struct {
	idx  int
	mask uint64
	sample
}

func maskOf(ok []bool) uint64 {
	var m uint64
	for i, v := range ok {
		if v {
			m |= 1 << i
		}
	}
	return m
}

// closedLoop runs op on consecutive indices from n goroutines until at
// least d has passed and at least minOps indices ran. Each goroutine
// claims its next index only after its previous operation completed, so
// the indices run are exactly [0, count). With replayEvery > 0 each
// goroutine also runs op again on every replayEvery-th index it ran,
// right after the first run. between, when set, is called by each
// goroutine after every first run (and its replay); the ran count
// starts at 1. It returns the first runs sorted by index, the replays,
// and the wall time.
func closedLoop(n int, d time.Duration, minOps, replayEvery int, op func(g, idx int) (uint64, error), between func(g, ran int)) (first, replays []pktRecord, wall time.Duration, err error) {
	var next atomic.Int64
	var wg sync.WaitGroup
	recs := make([][]pktRecord, n)
	reps := make([][]pktRecord, n)
	errs := make([]error, n)
	start := time.Now()
	timed := func(g, idx int) (pktRecord, error) {
		t0 := time.Now()
		m, err := op(g, idx)
		end := time.Since(start)
		if err != nil {
			return pktRecord{}, fmt.Errorf("packet %d: %w", idx, err)
		}
		return pktRecord{idx: idx, mask: m, sample: sample{end: end, ms: ms(time.Since(t0)), weight: 1}}, nil
	}
	for g := 0; g < n; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for ran := 1; time.Since(start) < d || next.Load() < int64(minOps); ran++ {
				r, err := timed(g, int(next.Add(1)-1))
				if err != nil {
					errs[g] = err
					return
				}
				recs[g] = append(recs[g], r)
				if replayEvery > 0 && ran%replayEvery == 0 {
					if r, err = timed(g, r.idx); err != nil {
						errs[g] = err
						return
					}
					reps[g] = append(reps[g], r)
				}
				if between != nil {
					between(g, ran)
				}
			}
		}(g)
	}
	wg.Wait()
	wall = time.Since(start)
	for g := range recs {
		if errs[g] != nil {
			return nil, nil, wall, errs[g]
		}
		first = append(first, recs[g]...)
		replays = append(replays, reps[g]...)
	}
	slices.SortFunc(first, func(a, b pktRecord) int { return a.idx - b.idx })
	return first, replays, wall, nil
}

// samples returns the timing of recs.
func samples(recs []pktRecord) []sample {
	out := make([]sample, len(recs))
	for i, r := range recs {
		out[i] = r.sample
	}
	return out
}

// forEach runs op(g, k) once for every k in [0, count) from n
// goroutines, g naming the goroutine.
func forEach(n, count int, op func(g, k int) error) error {
	var next atomic.Int64
	var wg sync.WaitGroup
	errs := make([]error, n)
	for g := 0; g < n; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for {
				k := int(next.Add(1) - 1)
				if k >= count {
					return
				}
				if err := op(g, k); err != nil {
					errs[g] = err
					return
				}
			}
		}(g)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// runPacketLoop is the production loop: RunPacket on consecutive indices
// from every driving goroutine, replaying every replayEvery-th.
func runPacketLoop(plan *experiments.PSRPlan, arms int, d time.Duration, minOps, replayEvery int, between func(g, ran int)) ([]pktRecord, []pktRecord, time.Duration, error) {
	oks := make([][]bool, loopGoroutines())
	for g := range oks {
		oks[g] = make([]bool, arms)
	}
	return closedLoop(loopGoroutines(), d, minOps, replayEvery, func(g, idx int) (uint64, error) {
		if err := plan.RunPacket(idx, oks[g]); err != nil {
			return 0, err
		}
		return maskOf(oks[g]), nil
	}, between)
}

// runPacket measures a packet workload.
func runPacket(ps packetSpec, o options) (*outcome, error) {
	if o.trace {
		return tracePacket(ps, o)
	}
	out := newOutcome()
	type setupResult struct {
		cfg  experiments.LinkConfig
		plan *experiments.PSRPlan
	}
	su, setupTimes, err := repeatedSetup(o.sizes.setupReps, func() (setupResult, error) {
		cfg, plan, err := packetSetup(ps, o)
		return setupResult{cfg, plan}, err
	}, nil)
	if err != nil {
		return nil, err
	}
	cfg, plan := su.cfg, su.plan
	arms := len(cfg.Receivers)

	// Between packets each goroutine times the calibrator (every
	// calEvery-th packet) and goroutine 0 samples the resident set.
	cals := make([]*calSamples, loopGoroutines())
	for g := range cals {
		cals[g] = newCalSamples()
	}
	rss := startRSS()
	recs, replays, wall, err := runPacketLoop(plan, arms, time.Duration(o.seconds*float64(time.Second)), o.sizes.minOps, o.sizes.replayEvery,
		func(g, ran int) {
			if ran%calEvery == 0 {
				cals[g].take()
			}
			if g == 0 {
				rss.maybe()
			}
		})
	if err != nil {
		return nil, err
	}
	rss.take()
	if rss.err != nil {
		return nil, rss.err
	}
	var calMS []float64
	for _, c := range cals {
		calMS = append(calMS, c.ms...)
	}
	if len(calMS) == 0 {
		cals[0].take()
		calMS = cals[0].ms
	}
	n := len(recs)
	out.attempted += n
	// Each replay must decide exactly as its packet's first run did.
	for _, r := range replays {
		out.check(r.mask == recs[r.idx].mask, "replay of packet %d decided %b, first run %b", r.idx, r.mask, recs[r.idx].mask)
	}

	// Check: the run's per-arm tallies equal experiments.RunPSR over the
	// same packets.
	tally := make([]int, arms)
	for _, r := range recs {
		for a := 0; a < arms; a++ {
			if r.mask&(1<<a) != 0 {
				tally[a]++
			}
		}
	}
	ref := cfg
	ref.Packets = n
	pts, err := experiments.RunPSR(ref)
	if err != nil {
		return nil, fmt.Errorf("RunPSR check: %w", err)
	}
	for a, p := range pts {
		out.check(p.OK == tally[a] && p.N == n, "%s: run tallied %d/%d, RunPSR %d/%d", p.Kind, tally[a], n, p.OK, p.N)
		out.detail["psr_ok."+p.Kind.String()] = metric{Value: float64(tally[a]), Unit: "count", Samples: n}
	}

	// Times are reported in calibrated ms (see calibrate.go).
	cal := calibration(calMS)
	scale := calScale(cal)
	all := append(samples(recs), samples(replays)...)
	lat := latencies(samples(recs))
	setup := median(setupTimes)
	rate := windowedRate(all, wall)
	p50, p95 := windowedP50(samples(recs), wall), windowedP95(samples(recs), wall)
	r50 := windowedP50(samples(replays), wall)
	m := len(replays)
	out.metrics["setup_s"] = metric{setup * scale, "s", len(setupTimes)}
	out.metrics["pkt_per_s"] = metric{rate / scale, "1/s", len(all)}
	out.metrics["op_ms_p50"] = metric{p50 * scale, "ms", n}
	out.metrics["rss_mb"] = metric{rss.typical(), "MB", len(rss.samples)}

	// The workload's own names, as measured, with sample counts.
	out.detail["calibration_ms"] = metric{cal, "ms", len(calMS)}
	out.detail["setup_s"] = metric{setup, "s", len(setupTimes)}
	out.detail["pkt_per_s"] = metric{rate, "1/s", len(all)}
	out.detail["pkt_ms_p50"] = metric{p50, "ms", n}
	out.detail["pkt_ms_p95"] = metric{p95, "ms", n}
	if tailReportable(n, 0.99) {
		out.detail["pkt_ms_p99"] = metric{quantile(lat, 0.99), "ms", n}
	} else {
		out.notes = append(out.notes, fmt.Sprintf("pkt_ms_p99 omitted: %d packets leave fewer than 10 beyond it", n))
	}
	out.detail["replay_ms_p50"] = metric{r50, "ms", m}
	out.detail["rss_mb"] = out.metrics["rss_mb"]
	vmHWM, err := statusMB("VmHWM")
	if err != nil {
		return nil, err
	}
	out.detail["peak_rss_mb"] = metric{vmHWM, "MB", 1}
	out.detail["goroutines"] = metric{float64(loopGoroutines()), "count", 1}
	return out, nil
}

// captureSegments returns the segment plan the CPRecycle arm decodes
// with, read through a CoreTweak that copies and does not mutate the
// configuration, on a plan separate from the timed one.
func captureSegments(cfg experiments.LinkConfig) ([]int, error) {
	var segs []int
	var mu sync.Mutex
	cfg.CoreTweak = func(c *core.Config) {
		mu.Lock()
		segs = slices.Clone(c.Segments)
		mu.Unlock()
	}
	plan, err := experiments.PlanPSR(cfg)
	if err != nil {
		return nil, err
	}
	if err := plan.RunPacket(0, make([]bool, len(cfg.Receivers))); err != nil {
		return nil, err
	}
	if segs == nil {
		return nil, fmt.Errorf("no CPRecycle arm exposed its segment plan")
	}
	return segs, nil
}
