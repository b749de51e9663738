package wifi

import (
	"fmt"
	"slices"

	"repro/internal/coding"
	"repro/internal/dsp"
	"repro/internal/modem"
	"repro/internal/ofdm"
)

// TxConfig configures a PPDU transmitter.
type TxConfig struct {
	// Grid is the OFDM numerology/placement (native or wide-band embedded).
	Grid ofdm.Grid
	// MCS selects modulation and code rate for the DATA field.
	MCS MCS
	// ScramblerSeed is the 7-bit scrambler initial state; 0 selects the
	// default seed.
	ScramblerSeed uint8
	// Gain scales the output waveform; 0 selects the gain that gives unit
	// average transmit power.
	Gain float64
}

// PPDU is an encoded 802.11a/g frame: baseband samples plus the layout
// metadata receivers and experiments need.
type PPDU struct {
	Samples []complex128
	Cfg     TxConfig
	PSDULen int
	// NumDataSymbols counts DATA OFDM symbols (excluding SIGNAL).
	NumDataSymbols int
	// PreambleLen is the STF+LTF length in samples.
	PreambleLen int
	// SignalStart is the sample index of the SIGNAL symbol's CP start.
	SignalStart int
	// DataStart is the sample index of the first DATA symbol's CP start.
	DataStart int
}

// DataSymbolStart returns the sample index of DATA symbol k's CP start.
func (p *PPDU) DataSymbolStart(k int) int {
	return p.DataStart + k*p.Cfg.Grid.SymLen()
}

// BuildPSDU appends the CRC-32 FCS to a payload, forming the PSDU whose
// success/failure defines the paper's packet success rate.
func BuildPSDU(payload []byte) []byte { return coding.AppendFCS(payload) }

// DataAnchorBit returns the information-bit position at which the DATA
// field's convolutional encoder register is back in the all-zero state:
// after SERVICE(16) + PSDU + the six zero tail bits, clamped to nInfo for
// degenerate layouts. Decoders anchor their payload traceback there
// (coding.Viterbi.DecodeAnchored) so errors on the scrambled pad bits
// cannot corrupt the payload.
func DataAnchorBit(psduLen, nInfo int) int {
	a := 16 + 8*psduLen + 6
	if a > nInfo {
		a = nInfo
	}
	return a
}

// BuildPPDU encodes a PSDU into a complete PPDU waveform. It allocates
// the waveform and the encoder scratch; Builder.BuildInto writes into a
// caller's buffer instead.
func BuildPPDU(cfg TxConfig, psdu []byte) (*PPDU, error) {
	if _, err := layout(cfg, len(psdu)); err != nil {
		return nil, err
	}
	n := PPDULen(cfg.Grid, cfg.MCS, len(psdu))
	var b Builder
	p, err := b.BuildInto(make([]complex128, n), cfg, psdu, 0, n)
	if err != nil {
		return nil, err
	}
	return &p, nil
}

// layout validates cfg and a PSDU length and returns the frame's layout,
// without samples.
func layout(cfg TxConfig, psduLen int) (PPDU, error) {
	if err := cfg.Grid.Validate(); err != nil {
		return PPDU{}, err
	}
	if psduLen < 1 || psduLen > MaxPSDULen {
		return PPDU{}, fmt.Errorf("wifi: PSDU length %d outside [1,%d]", psduLen, MaxPSDULen)
	}
	p := PPDU{Cfg: cfg, PSDULen: psduLen}
	p.NumDataSymbols = cfg.MCS.SymbolsForPSDU(psduLen)
	p.PreambleLen = ofdm.PreambleLen(cfg.Grid)
	p.SignalStart = p.PreambleLen
	p.DataStart = p.SignalStart + cfg.Grid.SymLen()
	return p, nil
}

// Builder encodes PPDUs into caller-owned buffers. It keeps the encoder's
// scratch — modulators, constellations, the DATA bit pipeline and one
// symbol of samples — across frames, so a transmitter that builds a
// frame per packet allocates nothing once warm. The zero value is ready
// to use. A Builder is not safe for concurrent use.
type Builder struct {
	mods map[ofdm.Grid]*ofdm.Modulator // a victim and its interferers sit on different grids
	cons map[modem.Scheme]*modem.Constellation

	bins   []complex128 // one symbol's FFT bins
	sym    []complex128 // one symbol's samples, for symbols a window cuts
	bits   []byte       // DATA field: SERVICE + PSDU + tail + pad
	mother []byte       // rate-1/2 coded DATA bits
	coded  []byte       // punctured coded DATA bits
	blk    []byte       // one interleaved symbol of coded bits
}

// BuildInto encodes psdu like BuildPPDU and writes the PPDU's samples
// [lo, hi) into dst[lo:hi]; dst must hold the whole PPDU (PPDULen samples)
// and is not touched outside the window. The DATA bit pipeline
// (scrambler, convolutional code, puncturing) always runs over the whole
// field, but only the preamble, SIGNAL and DATA symbols that overlap the
// window are modulated, so a window costs a fraction of the frame. The
// window's samples are bit-identical to the same samples of BuildPPDU.
// The returned PPDU's Samples is dst[:PPDULen].
func (b *Builder) BuildInto(dst []complex128, cfg TxConfig, psdu []byte, lo, hi int) (PPDU, error) {
	p, err := layout(cfg, len(psdu))
	if err != nil {
		return PPDU{}, err
	}
	total := PPDULen(cfg.Grid, cfg.MCS, len(psdu))
	if len(dst) < total {
		return PPDU{}, fmt.Errorf("wifi: %d-sample buffer for a %d-sample PPDU", len(dst), total)
	}
	if lo < 0 || lo > hi || hi > total {
		return PPDU{}, fmt.Errorf("wifi: window [%d,%d) outside the %d-sample PPDU", lo, hi, total)
	}
	p.Samples = dst[:total]
	mod, err := b.modulator(cfg.Grid)
	if err != nil {
		return PPDU{}, err
	}
	gain := cfg.Gain
	if gain == 0 {
		gain = mod.GainForUnitPower(52)
	}
	symLen := cfg.Grid.SymLen()

	// Preamble: scale the cached waveform directly into place.
	gc := complex(gain, 0)
	pre := ofdm.Preamble(mod)
	for i := lo; i < min(hi, len(pre)); i++ {
		dst[i] = pre[i] * gc
	}

	// SIGNAL symbol: BPSK, pilot polarity p₀.
	if overlaps(p.SignalStart, symLen, lo, hi) {
		sigBits, err := EncodeSignalSymbolBits(cfg.MCS, len(psdu))
		if err != nil {
			return PPDU{}, err
		}
		b.putSymbol(dst, p.SignalStart, lo, hi, mod, b.constellation(modem.BPSK), sigBits, 0, gain)
	}

	// DATA field bit pipeline (§18.3.5.4-7), over the whole field whatever
	// the window: the scrambler and the code carry state from bit to bit.
	nBits := p.NumDataSymbols * cfg.MCS.Ndbps
	b.bits = resize(b.bits, nBits) // SERVICE(16 zeros) + PSDU + tail + pad
	clear(b.bits)
	for i, v := range psdu {
		for j := 0; j < 8; j++ {
			b.bits[16+8*i+j] = (v >> j) & 1
		}
	}
	tailPos := 16 + 8*len(psdu)
	coding.NewScrambler(cfg.ScramblerSeed).Apply(b.bits)
	for i := 0; i < 6; i++ { // tail bits are forced to zero after scrambling
		b.bits[tailPos+i] = 0
	}
	b.mother = coding.AppendConvEncode(slices.Grow(b.mother[:0], 2*nBits), b.bits)
	b.coded = coding.AppendPunctured(slices.Grow(b.coded[:0], 2*nBits), b.mother, cfg.MCS.Rate)
	il := coding.MustInterleaver(cfg.MCS.Ncbps, cfg.MCS.Nbpsc)
	cons := b.constellation(cfg.MCS.Scheme)

	b.blk = resize(b.blk, cfg.MCS.Ncbps)
	for k := 0; k < p.NumDataSymbols; k++ {
		start := p.DataStart + k*symLen
		if start >= hi {
			break
		}
		if !overlaps(start, symLen, lo, hi) {
			continue
		}
		il.InterleaveInto(b.blk, b.coded[k*cfg.MCS.Ncbps:(k+1)*cfg.MCS.Ncbps])
		b.putSymbol(dst, start, lo, hi, mod, cons, b.blk, k+1, gain)
	}
	return p, nil
}

// modulator returns the Builder's modulator for g, making one the first
// time g is seen, and sizes the symbol scratch for g.
func (b *Builder) modulator(g ofdm.Grid) (*ofdm.Modulator, error) {
	mod := b.mods[g]
	if mod == nil {
		var err error
		if mod, err = ofdm.NewModulator(g); err != nil {
			return nil, err
		}
		if b.mods == nil {
			b.mods = make(map[ofdm.Grid]*ofdm.Modulator)
		}
		b.mods[g] = mod
	}
	b.bins = resize(b.bins, g.NFFT)
	b.sym = resize(b.sym, g.SymLen())
	return mod, nil
}

// constellation returns the Builder's constellation for s.
func (b *Builder) constellation(s modem.Scheme) *modem.Constellation {
	c := b.cons[s]
	if c == nil {
		c = modem.New(s)
		if b.cons == nil {
			b.cons = make(map[modem.Scheme]*modem.Constellation)
		}
		b.cons[s] = c
	}
	return c
}

// putSymbol modulates the symbol whose samples are [start, start+SymLen)
// of the PPDU and writes its overlap with the window [lo, hi) into dst. A
// symbol inside the window is synthesised in place; one the window cuts
// goes through the Builder's symbol scratch.
func (b *Builder) putSymbol(dst []complex128, start, lo, hi int, mod *ofdm.Modulator, cons *modem.Constellation, bits []byte, n int, gain float64) {
	end := start + len(b.sym)
	if start >= lo && end <= hi {
		assembleSymbolInto(dst[start:end], b.bins, mod, cons, bits, n, gain)
		return
	}
	assembleSymbolInto(b.sym, b.bins, mod, cons, bits, n, gain)
	from, to := max(start, lo), min(end, hi)
	copy(dst[from:to], b.sym[from-start:to-start])
}

// overlaps reports whether [start, start+n) meets the window [lo, hi).
func overlaps(start, n, lo, hi int) bool { return start < hi && start+n > lo }

// resize returns buf with length n, reallocating only when it is too short.
func resize[T any](buf []T, n int) []T {
	if cap(buf) < n {
		return make([]T, n)
	}
	return buf[:n]
}

// assembleSymbolInto maps one symbol's interleaved coded bits onto the 48
// data subcarriers, adds the four pilots for symbol counter n, modulates
// and scales, writing the SymLen samples into out. bins is caller scratch
// of length NFFT.
func assembleSymbolInto(out, bins []complex128, mod *ofdm.Modulator, cons *modem.Constellation, bits []byte, n int, gain float64) {
	scs := ofdm.DataSubcarriers()
	nb := cons.BitsPerSymbol()
	if len(bits) != len(scs)*nb {
		panic(fmt.Sprintf("wifi: %d bits for %d subcarriers at %d bpsc", len(bits), len(scs), nb))
	}
	g := mod.Grid()
	for i := range bins {
		bins[i] = 0
	}
	for _, sc := range ofdm.PilotSubcarriers() {
		bins[g.Bin(sc)] = ofdm.PilotValue(n, sc)
	}
	for i, sc := range scs {
		bins[g.Bin(sc)] = cons.Map(bits[i*nb : (i+1)*nb])
	}
	mod.SymbolFromBinsInto(out, bins)
	dsp.Scale(out, gain)
}

// SymbolBitsToSubcarriers returns, for a constellation, the subcarrier order
// used by assembleSymbol so receivers can invert the mapping.
func SymbolBitsToSubcarriers() []int { return ofdm.DataSubcarriers() }
