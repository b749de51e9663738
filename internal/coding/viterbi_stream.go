package coding

import (
	"math"
	"math/bits"
)

// The windowed decoder bounds survivor memory for long streams: instead of
// one flat decision word per step for the whole stream, it retains a
// sliding window of streamWindow trellis columns and finalises the prefix
// whenever the buffer fills, using the survivor-merge property — once the
// backward paths of ALL states at the current frontier coincide at some
// earlier column, every future traceback that enters through the frontier
// (terminated, best-final-state and zero-anchored alike) follows that
// common path below the merge column, so the bits it implies are final
// and their decisions can be dropped. The emitted stream is therefore
// bit-identical to the flat decoder's, not a truncation approximation
// like fixed-depth "decide after D" windowed Viterbi. In the (physically
// implausible, but constructible) event that the survivors refuse to
// merge within the window, the buffer doubles — exactness is never
// traded for the memory bound.
//
// streamWindow is ≫ the rate-1/2 K=7 code's ~5·K ≈ 35-step survivor merge
// depth, so in practice a merge is always found within a small prefix of
// the window and the amortised finalisation cost is O(1) word operations
// per bit.
const streamWindow = 512

// streamEngage is the stream length (in trellis steps) above which Decode
// and DecodeAnchored switch to the windowed decoder: below it the flat
// pooled buffer (≤ streamEngage decision words = 8 KiB) is cheaper than
// merge-checking; above it survivor memory stays O(streamWindow) words
// regardless of PSDU length, where the flat buffer would keep growing
// (8 B per payload bit — 256 kB for a 4000-octet A-MPDU).
const streamEngage = 2 * streamWindow

// decodeWindowed decodes n = len(llrs)/2 steps with the sliding survivor
// window. Bits in [anchorBit, n) are traced from the best final state when
// fromBest is true and from state 0 otherwise; bits in [0, anchorBit) are
// traced from the known zero state at anchorBit (pass anchorBit = n for
// plain terminated/unterminated decoding). Output is bit-identical to the
// flat decoder with the same parameters. Survivor memory is
// O(window + (n − anchorBit)) columns: decisions above the anchor must
// stay buffered until the final state is known, so callers anchoring far
// from the end keep proportionally more.
func decodeWindowed(llrs []float64, anchorBit int, fromBest bool, window int) []byte {
	n := len(llrs) / 2
	var metric, scratch [numStates]float64
	initMetrics(&metric)
	if window < 2*numStates {
		window = 2 * numStates
	}
	vector := vectorACS()
	dp := getDecisions(window)
	dec := *dp
	out := make([]byte, n)
	base := 0 // first trellis step whose decisions are still buffered
	for t := 0; t < n; {
		if t == anchorBit && t > base {
			// Anchor crossing: every payload bit below the anchor is
			// determined by the zero state forced here, independent of
			// anything later — flush them and drop their decisions.
			traceback(dec[:t-base], out[base:t], 0)
			base = t
		}
		if t-base == len(dec) {
			emitted := mergeFlush(dec, out[base:t])
			if emitted > 0 {
				copy(dec, dec[emitted:t-base])
				base += emitted
			}
			if len(dec)-(t-base) < len(dec)/4 {
				// Survivors refuse to merge: grow rather than emit
				// not-yet-final bits (see package comment — exactness
				// beats the bound). The box keeps the grown buffer so the
				// pool recycles it.
				grown := make([]uint64, 2*len(dec))
				copy(grown, dec[:t-base])
				dec = grown
				*dp = dec
			}
		}
		// Run the ACS kernel up to the next event: the anchor crossing,
		// a full buffer or the end of the stream.
		end := min(n, base+len(dec))
		if t < anchorBit && anchorBit < end {
			end = anchorBit
		}
		acsRun(vector, &metric, &scratch, llrs[2*t:2*end], dec[t-base:end-base])
		t = end
	}

	// Final flush of the retained tail. For anchored decodes the payload
	// below the anchor was already emitted: the forward loop always
	// reaches t == anchorBit, so the anchor-crossing flush has run and
	// base >= anchorBit here — only the pad region remains.
	st := 0
	if fromBest {
		st = bestState(&metric)
	}
	traceback(dec[:n-base], out[base:n], st)
	putDecisions(dp)
	return out
}

// bestState returns the state with the lowest path metric (lowest state
// wins ties, as in the flat decoder).
func bestState(metric *[numStates]float64) int {
	state, best := 0, math.Inf(1)
	for s, m := range metric {
		if m < best {
			best, state = m, s
		}
	}
	return state
}

// mergeFlush scans the buffered decisions (one word per step of out,
// buffer-relative indexing) for the latest column where the backward
// paths of all frontier states coincide, i.e. where the set of states on
// a survivor path shrinks to one. Bits strictly below that column are
// final for any traceback entering through the frontier; they are written
// to out and their count returned, so the caller can drop their
// decisions. Returns 0 when the survivors have not merged.
func mergeFlush(dec []uint64, out []byte) int {
	live := ^uint64(0) // every frontier state
	for t := len(out) - 1; t > 0; t-- {
		live = predecessors(live, dec[t])
		if live&(live-1) == 0 {
			traceback(dec[:t], out[:t], bits.TrailingZeros64(live))
			return t
		}
	}
	return 0
}

// predecessors maps a set of states (bit s set for state s) to the set of
// their surviving predecessors under one step's decision word. State ns
// survives through 2·(ns mod 32) when its decision bit is clear and
// through 2·(ns mod 32)+1 when it is set.
func predecessors(set, word uint64) uint64 {
	even, odd := set&^word, set&word
	return spreadEven(uint32(even)|uint32(even>>32)) | spreadEven(uint32(odd)|uint32(odd>>32))<<1
}

// spreadEven moves bit k of v to bit 2k.
func spreadEven(v uint32) uint64 {
	x := uint64(v)
	x = (x | x<<16) & 0x0000ffff0000ffff
	x = (x | x<<8) & 0x00ff00ff00ff00ff
	x = (x | x<<4) & 0x0f0f0f0f0f0f0f0f
	x = (x | x<<2) & 0x3333333333333333
	x = (x | x<<1) & 0x5555555555555555
	return x
}
