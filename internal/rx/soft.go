package rx

import (
	"fmt"
	"math/cmplx"
	"sort"
	"time"

	"repro/internal/coding"
	"repro/internal/modem"
	"repro/internal/wifi"
)

// SoftSymbolDecider extends SymbolDecider with per-subcarrier decision
// confidences, enabling soft-decision Viterbi decoding. Confidences are
// non-negative relative weights: 0 marks an erasure (the decision carries
// no information), larger values mark more trustworthy subcarriers. Only
// relative magnitudes within a frame matter.
//
// Soft decoding is an extension beyond the paper (its GNU Radio receiver
// and CPRecycle's symbol-level ML output are hard-decision); it lets the
// Viterbi decoder discount the subcarriers the interference model marks as
// hopeless instead of consuming their bit errors at full weight.
type SoftSymbolDecider interface {
	SymbolDecider
	// DecideSymbolSoft returns lattice decisions plus a confidence per
	// data subcarrier.
	DecideSymbolSoft(f *Frame, symIdx int, cons *modem.Constellation) (idxs []int, conf []float64, err error)
}

// DecideSymbolSoft implements SoftSymbolDecider for the standard receiver:
// the confidence of each subcarrier is its distance margin between the two
// nearest lattice points.
func (StandardDecider) DecideSymbolSoft(f *Frame, symIdx int, cons *modem.Constellation) ([]int, []float64, error) {
	obs, err := f.ObserveSymbol(symIdx, f.Grid().CP)
	if err != nil {
		return nil, nil, err
	}
	idxs := make([]int, len(obs.Data))
	conf := make([]float64, len(obs.Data))
	for i, v := range obs.Data {
		best := cons.Nearest(v)
		idxs[i] = best
		d1 := cmplx.Abs(v - cons.Point(best))
		d2 := d1
		first := true
		for li, p := range cons.Points() {
			if li == best {
				continue
			}
			d := cmplx.Abs(v - p)
			if first || d < d2 {
				d2 = d
				first = false
			}
		}
		conf[i] = (d2 - d1) / cons.MinDistance()
	}
	return idxs, conf, nil
}

// DecodeDataSoft mirrors DecodeData but uses the decider's per-subcarrier
// confidences as bit weights for the Viterbi decoder. Deciders that do not
// implement SoftSymbolDecider fall back to hard (unit-weight) decoding.
func DecodeDataSoft(f *Frame, mcs wifi.MCS, psduLen int, decider SymbolDecider) (Result, error) {
	soft, ok := decider.(SoftSymbolDecider)
	if !ok {
		return DecodeData(f, mcs, psduLen, decider)
	}
	nSyms := mcs.SymbolsForPSDU(psduLen)
	cons := modem.New(mcs.Scheme)
	il := coding.MustInterleaver(mcs.Ncbps, mcs.Nbpsc)
	nb := cons.BitsPerSymbol()

	obsStart := time.Now()
	llrs := make([]float64, nSyms*mcs.Ncbps)
	bitBuf := make([]byte, nb)
	blk := make([]float64, mcs.Ncbps)
	for k := 0; k < nSyms; k++ {
		idxs, conf, err := soft.DecideSymbolSoft(f, k, cons)
		if err != nil {
			return Result{}, fmt.Errorf("rx: symbol %d: %w", k, err)
		}
		if len(idxs) != f.DataSubcarrierCount() || len(conf) != len(idxs) {
			return Result{}, fmt.Errorf("rx: symbol %d: soft decider returned %d/%d entries", k, len(idxs), len(conf))
		}
		w := normalizeConfidences(conf)
		for i, idx := range idxs {
			cons.BitsOf(idx, bitBuf)
			for b, bit := range bitBuf {
				v := w[i]
				if bit == 1 {
					v = -v
				}
				blk[i*nb+b] = v
			}
		}
		il.DeinterleaveLLRInto(llrs[k*mcs.Ncbps:(k+1)*mcs.Ncbps], blk)
	}
	stageObserve.ObserveSince(obsStart)

	defer stageDecode.ObserveSince(time.Now())
	nInfo := nSyms * mcs.Ndbps
	vit := coding.NewViterbi()
	bits, err := vit.DecodePuncturedAnchored(llrs, mcs.Rate, nInfo, wifi.DataAnchorBit(psduLen, nInfo))
	if err != nil {
		return Result{}, err
	}
	return finishData(bits, psduLen)
}

// normalizeConfidences maps raw confidences to weights with median 1,
// clipped to [0, 4] so a few very confident subcarriers cannot drown the
// rest of the trellis.
func normalizeConfidences(conf []float64) []float64 {
	sorted := append([]float64(nil), conf...)
	sort.Float64s(sorted)
	med := sorted[len(sorted)/2]
	if med <= 1e-9 {
		med = 1e-9
	}
	out := make([]float64, len(conf))
	for i, c := range conf {
		w := c / med
		if w < 0 {
			w = 0
		}
		if w > 4 {
			w = 4
		}
		out[i] = w
	}
	return out
}
