package main

import (
	"fmt"
	"slices"
	"strings"
	"sync"
	"time"

	"repro/internal/coding"
	"repro/internal/core"
	"repro/internal/dsp"
	"repro/internal/experiments"
	"repro/internal/modem"
	"repro/internal/obs"
	"repro/internal/rx"
	"repro/internal/wifi"
)

// Span names of the traced packet, one per public call RunPacket makes.
const (
	spanPacket   = "experiments.packet"
	spanRand     = "dsp.NewRand"
	spanPSDU     = "wifi.BuildPSDU"
	spanTx       = "interference.Scenario.Run"
	spanFrame    = "rx.NewFrame"
	spanTrain    = "core.Train"
	spanReceiver = "core.NewReceiverFrom"
	spanDecode   = "rx.DecodeData." // + arm
)

// deciderSpan names an arm's per-symbol decision span.
func deciderSpan(k experiments.ReceiverKind) string {
	if k == experiments.Standard {
		return "rx.decide.standard"
	}
	return "core.decide." + k.String()
}

// tracedPacket executes packet pkt exactly as (*PSRPlan).RunPacket does
// for the Standard and CPRecycle arms on the serial decode path, with a
// span around each call. segs is the plan's segment plan. It writes each
// arm's success into ok and returns the first arm's deinterleaved coded
// bits, the input of that arm's Viterbi decode.
func tracedPacket(cfg experiments.LinkConfig, segs []int, rec *recorder, pkt int, ok []bool) ([]byte, error) {
	root := rec.begin(spanPacket, -1, pkt)
	defer rec.end(root)

	s := rec.begin(spanRand, root, pkt)
	r := dsp.NewRand(cfg.Seed*1_000_003 + int64(pkt))
	rec.end(s)
	s = rec.begin(spanPSDU, root, pkt)
	psdu := wifi.BuildPSDU(r.Bytes(cfg.PSDUBytes - 4))
	rec.end(s)
	s = rec.begin(spanTx, root, pkt)
	c, err := cfg.Scenario.Run(r, psdu, cfg.MCS)
	rec.end(s)
	if err != nil {
		return nil, err
	}
	s = rec.begin(spanFrame, root, pkt)
	f, err := rx.NewFrame(c.Grid, c.Samples, c.FrameStart)
	rec.end(s)
	if err != nil {
		return nil, err
	}

	var training *core.Training
	var firstKept [][]int
	for ai, k := range cfg.Receivers {
		var decider rx.SymbolDecider
		switch k {
		case experiments.Standard:
			decider = rx.StandardDecider{}
		case experiments.CPRecycle:
			if training == nil {
				s = rec.begin(spanTrain, root, pkt)
				training, err = core.Train(f, segs)
				rec.end(s)
				if err != nil {
					return nil, err
				}
			}
			s = rec.begin(spanReceiver, root, pkt)
			cpr, err := core.NewReceiverFrom(f, training, core.Config{Segments: slices.Clone(segs)})
			rec.end(s)
			if err != nil {
				return nil, err
			}
			decider = cpr
		default:
			return nil, fmt.Errorf("traced packet: arm %s is not traced", k)
		}
		s = rec.begin(spanDecode+k.String(), root, pkt)
		td := &timedDecider{inner: decider, rec: rec, name: deciderSpan(k), parent: s, trace: pkt, keep: ai == 0}
		res, err := rx.DecodeData(f, cfg.MCS, len(psdu), td)
		rec.end(s)
		if err != nil {
			return nil, err
		}
		ok[ai] = res.FCSOK && string(res.PSDU) == string(psdu)
		if ai == 0 {
			firstKept = td.kept
		}
	}
	return codedBits(cfg.MCS, firstKept), nil
}

// codedBits turns one arm's per-symbol lattice decisions into the
// deinterleaved coded bit stream DecodeData hands to the Viterbi decoder.
func codedBits(mcs wifi.MCS, decisions [][]int) []byte {
	cons := modem.New(mcs.Scheme)
	il := coding.MustInterleaver(mcs.Ncbps, mcs.Nbpsc)
	bitBuf := make([]byte, cons.BitsPerSymbol())
	coded := make([]byte, 0, len(decisions)*mcs.Ncbps)
	blk := make([]byte, 0, mcs.Ncbps)
	for _, idxs := range decisions {
		blk = blk[:0]
		for _, idx := range idxs {
			blk = append(blk, cons.BitsOf(idx, bitBuf)...)
		}
		coded = append(coded, il.Deinterleave(blk)...)
	}
	return coded
}

// agreement folds a ratio of two measurements of one quantity so that 1
// is perfect agreement and either direction of disagreement lowers it.
func agreement(r float64) float64 { return min(r, 1/r) }

// stageSum reads the _sum of one cpr_sweep_stage_seconds series from the
// program's own metrics registry.
func stageSum(snap map[string]float64, stage string) (float64, error) {
	key := fmt.Sprintf(`cpr_sweep_stage_seconds_sum{stage=%q}`, stage)
	v, ok := snap[key]
	if !ok {
		return 0, fmt.Errorf("metrics snapshot has no %s", key)
	}
	return v, nil
}

// tracePacket is the traced run of a packet workload. On one set-up it
// measures, in order:
//
//	A. for the run's time, the traced decomposition of packets [0, P),
//	   each followed on its goroutine by RunPacket on the same packet;
//	B. the Viterbi decode of each traced packet's coded bits, alone;
//	C. a few packets' RunPacket and Scenario.Run serially, for their
//	   allocations.
func tracePacket(ps packetSpec, o options) (*outcome, error) {
	out := newOutcome()
	cfg, plan, err := packetSetup(ps, o)
	if err != nil {
		return nil, err
	}
	segs, err := captureSegments(cfg)
	if err != nil {
		return nil, err
	}
	arms := len(cfg.Receivers)
	n := loopGoroutines()

	// A: each goroutine runs the traced decomposition of its next packet,
	// then RunPacket on the same packet: the check, and the untraced
	// reference measured under the same machine conditions. The only
	// RunPacket calls in this phase are on the traced packets, so the
	// program's stage histograms cover exactly those packets.
	epoch := time.Now()
	recs := make([]*recorder, n)
	oks := make([][]bool, n)
	runOK := make([][]bool, n)
	untraced := make([][]float64, n)
	mismatched := make([][]string, n)
	for g := range recs {
		recs[g] = newRecorder(epoch)
		oks[g] = make([]bool, arms)
		runOK[g] = make([]bool, arms)
	}
	var codedMu sync.Mutex
	coded := map[int][]byte{}
	before := obs.Snapshot()
	gc0 := readAllocs()
	traced, _, _, err := closedLoop(n, time.Duration(o.seconds*float64(time.Second)), o.sizes.minOps, 0, func(g, idx int) (uint64, error) {
		bits, err := tracedPacket(cfg, segs, recs[g], idx, oks[g])
		if err != nil {
			return 0, err
		}
		t0 := time.Now()
		if err := plan.RunPacket(idx, runOK[g]); err != nil {
			return 0, err
		}
		untraced[g] = append(untraced[g], ms(time.Since(t0)))
		if got, want := maskOf(runOK[g]), maskOf(oks[g]); got != want {
			mismatched[g] = append(mismatched[g], fmt.Sprintf("traced packet %d decided %b, RunPacket %b", idx, want, got))
		}
		codedMu.Lock()
		coded[idx] = bits
		codedMu.Unlock()
		return maskOf(oks[g]), nil
	}, nil)
	if err != nil {
		return nil, err
	}
	gcCycles := readAllocs().sub(gc0).gcCycles
	after := obs.Snapshot()
	p := len(traced)
	var untracedMS, tracedMS []float64
	var mismatches []string
	for g, rec := range recs {
		untracedMS = append(untracedMS, untraced[g]...)
		mismatches = append(mismatches, mismatched[g]...)
		for i, s := range rec.spans {
			if s.name == spanPacket {
				tracedMS = append(tracedMS, ms(rec.dur(i)))
			}
		}
	}
	out.attempted += p - len(mismatches)
	for _, m := range mismatches {
		out.check(false, "%s", m)
	}
	untracedP50 := median(untracedMS)

	// B: Viterbi alone on each traced packet's first-arm coded bits.
	nSyms := cfg.MCS.SymbolsForPSDU(cfg.PSDUBytes)
	nInfo := nSyms * cfg.MCS.Ndbps
	anchor := wifi.DataAnchorBit(cfg.PSDUBytes, nInfo)
	vitMS := make([]float64, p)
	if err := forEach(n, p, func(g, k int) error {
		llrs := coding.HardToLLR(coded[k])
		t0 := time.Now()
		_, err := coding.NewViterbi().DecodePuncturedAnchored(llrs, cfg.MCS.Rate, nInfo, anchor)
		vitMS[k] = ms(time.Since(t0))
		return err
	}); err != nil {
		return nil, err
	}

	// C: allocations of RunPacket and of its transmit path, serially so
	// no other goroutine's allocations count.
	var txBytes uint64
	var pkt allocSample
	ok := make([]bool, arms)
	for k := 0; k < o.sizes.allocPackets; k++ {
		a0 := readAllocs()
		if err := plan.RunPacket(k, ok); err != nil {
			return nil, err
		}
		a1 := readAllocs()
		pkt = pkt.add(a1.sub(a0))
		r := dsp.NewRand(cfg.Seed*1_000_003 + int64(k))
		psdu := wifi.BuildPSDU(r.Bytes(cfg.PSDUBytes - 4))
		a0 = readAllocs()
		if _, err := cfg.Scenario.Run(r, psdu, cfg.MCS); err != nil {
			return nil, err
		}
		txBytes += readAllocs().sub(a0).bytes
	}
	perAlloc := float64(max(o.sizes.allocPackets, 1))

	// Per-packet means of each layer's span time.
	total := map[string]time.Duration{}
	self := map[string]time.Duration{}
	for _, rec := range recs {
		children := make(map[int]time.Duration)
		for _, s := range rec.spans {
			d := s.end - s.start
			total[s.name] += d
			if s.parent >= 0 && (strings.HasPrefix(s.name, "rx.decide.") || strings.HasPrefix(s.name, "core.decide.")) {
				children[s.parent] += d
			}
		}
		for i, s := range rec.spans {
			if strings.HasPrefix(s.name, spanDecode) {
				self[s.name] += rec.dur(i) - children[i]
			}
		}
	}
	perPkt := func(d time.Duration) float64 { return ms(d) / float64(p) }
	txMS := perPkt(total[spanTx])
	frameMS := perPkt(total[spanFrame])
	trainMS := perPkt(total[spanTrain])
	accounted := txMS + frameMS + trainMS
	layer := map[string]float64{
		"interference.tx_ms":           txMS,
		"interference.tx_alloc_kb":     float64(txBytes) / 1024 / perAlloc,
		"rx.frame_ms":                  frameMS,
		"core.train_ms":                trainMS,
		"coding.viterbi_ms":            sum(vitMS) / float64(p),
		"experiments.allocs_per_pkt":   float64(pkt.objects) / perAlloc,
		"experiments.alloc_kb_per_pkt": float64(pkt.bytes) / 1024 / perAlloc,
		"gc.cycles_per_kpkt":           float64(gcCycles) * 1000 / float64(2*p),
		"trace.overhead":               sum(untracedMS) / sum(tracedMS),
	}
	for _, k := range cfg.Receivers {
		decide := perPkt(total[deciderSpan(k)])
		decodeSelf := perPkt(self[spanDecode+k.String()])
		accounted += decide + decodeSelf
		if k == experiments.Standard {
			layer["rx.decide_ms.standard"] = decide
		} else {
			layer["core.decide_ms."+k.String()] = decide
		}
		layer["rx.decode_self_ms."+k.String()] = decodeSelf
	}
	layer["trace.accounted"] = agreement(accounted / untracedP50)

	// Agreement with the program's own stage histograms over the same
	// packets (phase A's RunPacket calls ran exactly the traced indices).
	for _, st := range []struct{ stage, metric, span string }{
		{"tx", "obs.tx_agree", spanTx},
		{"train", "obs.train_agree", spanTrain},
	} {
		a, err := stageSum(after, st.stage)
		if err != nil {
			return nil, err
		}
		b, err := stageSum(before, st.stage)
		if err != nil {
			return nil, err
		}
		layer[st.metric] = agreement(total[st.span].Seconds() / (a - b))
	}

	if err := fillLayers(out, layer, p); err != nil {
		return nil, err
	}
	out.detail["untraced.pkt_ms_p50"] = metric{untracedP50, "ms", p}
	out.detail["traced.pkt_ms_p50"] = metric{median(tracedMS), "ms", p}
	out.detail["traced.layer_sum_ms"] = metric{accounted, "ms", p}
	return out, writeSpans(spanFile(o, ps.name), recs)
}
