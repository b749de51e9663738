// Package interference composes the experiment waveforms: a victim 802.11
// transmission plus one or more independently-timed interfering OFDM
// transmitters on a shared sampled band, at calibrated SIR and SNR.
//
// The composite band reproduces the paper's controlled USRP setup (§3.2):
// "contiguous subcarriers are assigned to the sender and interferer with
// [a] guardband in between. The interferer transmits the signal with a
// temporal offset that is greater than … the duration of the cyclic prefix"
// — the misalignment makes the interferer's energy smear across the
// victim's subcarriers differently in every FFT segment, which is exactly
// the structure CPRecycle exploits. Co-channel interference uses a zero
// subcarrier offset on the same band.
//
// Subcarrier spacing is 312.5 kHz on every grid (the composite band is an
// oversampled view), so subcarrier offsets translate directly to MHz.
package interference

import (
	"fmt"

	"repro/internal/channel"
	"repro/internal/dsp"
	"repro/internal/ofdm"
	"repro/internal/wifi"
)

// SubcarrierSpacingMHz is the 802.11a/g subcarrier spacing.
const SubcarrierSpacingMHz = 0.3125

// Interferer describes one interfering transmitter.
type Interferer struct {
	// CenterOffset is the interferer's DC subcarrier offset from the
	// victim's DC, in subcarriers (= composite bins). 0 means co-channel.
	CenterOffset int
	// SIRdB is the victim-signal-to-this-interferer power ratio.
	SIRdB float64
	// BoundaryOffset places the interferer's symbol boundaries at this
	// many samples past each victim symbol's start (victim and interferer
	// share the 4 µs symbol period, so the relative offset is constant
	// across a frame). The paper requires a temporal offset "greater than
	// … the duration of the cyclic prefix", i.e. a boundary inside the
	// victim's standard FFT window — otherwise the interferer stays
	// orthogonal and harmless. Zero draws the offset uniformly from
	// (CP, symbol length) afresh for every Run, like the free-running
	// transmitters of the testbed.
	BoundaryOffset int
	// MCS is the interferer's own modulation; zero value selects 16-QAM 1/2.
	MCS wifi.MCS
	// Channel is the interferer→receiver channel; nil means ideal.
	Channel *channel.Multipath
	// CFO is the interferer's carrier frequency offset relative to the
	// receiver, in subcarrier spacings (0.1 ≈ 31 kHz ≈ 13 ppm at 2.4 GHz).
	// Real transmitters are never frequency-locked to the victim's
	// receiver — the paper (§1, [46]) notes orthogonality only holds "in
	// perfectly synchronized systems, which rarely occurs" — and this
	// offset is what makes the interference leakage rotate differently in
	// every FFT segment. Zero draws ±[0.05, 0.2) afresh per Run.
	CFO float64
}

// Scenario describes one experiment configuration.
type Scenario struct {
	// Q is the composite band oversampling factor (1 = native 20 MHz band;
	// 4 = 80 MHz composite for adjacent-channel layouts).
	Q int
	// VictimCenter is the victim's DC bin on the composite grid.
	VictimCenter int
	// SNRdB is the AWGN level relative to the victim's received power.
	// Values ≥ 1000 disable noise.
	SNRdB float64
	// Channel is the victim→receiver channel; nil means ideal.
	Channel *channel.Multipath
	// Interferers lists the interfering transmitters (may be empty).
	Interferers []Interferer
	// Pad is the number of idle samples before the victim frame; zero
	// selects 100·Q.
	Pad int
	// Pool, when set, draws each interferer tile from the shared
	// pre-encoded waveform pool (one r.Intn draw per tile) instead of
	// encoding a fresh PPDU per tile. Deterministic per packet seed, but
	// a different draw sequence than the pool-less path — see
	// wifi.WaveformPool.
	Pool *wifi.WaveformPool
}

// Composite is one realised scenario: the received stream and ground truth.
type Composite struct {
	// Samples is the received waveform: victim + interference + noise.
	Samples []complex128
	// InterferenceOnly is the summed interference with the sender muted
	// and no noise — the Oracle's perfect knowledge.
	InterferenceOnly []complex128
	// Victim is the transmitted victim PPDU.
	Victim *wifi.PPDU
	// Grid is the victim's grid on the composite band.
	Grid ofdm.Grid
	// FrameStart is the sample index of the victim preamble.
	FrameStart int
	// PSDU is the transmitted victim PSDU.
	PSDU []byte

	// scratch is the transmit path's working memory, kept for RunInto.
	scratch synthScratch
}

// synthScratch holds the buffers RunInto reuses from packet to packet
// besides the Composite's own: the victim PPDU (Victim points at it), one
// interferer tile, and the PPDU encoder.
type synthScratch struct {
	victim wifi.PPDU
	tile   []complex128
	tx     wifi.Builder
}

// VictimGrid returns the victim's grid for the scenario.
func (s *Scenario) VictimGrid() ofdm.Grid {
	q := s.Q
	if q < 1 {
		q = 1
	}
	return ofdm.WideGrid(64, 16, q, s.VictimCenter)
}

// InterfererGrid returns interferer i's grid.
func (s *Scenario) InterfererGrid(i int) ofdm.Grid {
	q := s.Q
	if q < 1 {
		q = 1
	}
	return ofdm.WideGrid(64, 16, q, s.VictimCenter+s.Interferers[i].CenterOffset)
}

// Run realises the scenario for one victim PSDU, drawing interferer
// payloads, victim data and noise from r. It returns a freshly allocated
// Composite; RunInto reuses one.
func (s *Scenario) Run(r *dsp.Rand, psdu []byte, mcs wifi.MCS) (*Composite, error) {
	c := new(Composite)
	if err := s.RunInto(c, r, psdu, mcs); err != nil {
		return nil, err
	}
	return c, nil
}

// RunInto is Run writing into c. It overwrites every field of c and reuses
// the stream, interference-only and victim buffers and the transmit
// scratch that an earlier RunInto left in c, growing them only when a
// packet needs more, so a caller that keeps one Composite per worker
// synthesises packets without allocating stream-sized buffers. The
// samples are bit-identical to Run's for the same r. After an error, c's
// contents are unspecified.
func (s *Scenario) RunInto(c *Composite, r *dsp.Rand, psdu []byte, mcs wifi.MCS) error {
	q := s.Q
	if q < 1 {
		q = 1
	}
	g := s.VictimGrid()
	pad := s.Pad
	if pad == 0 {
		pad = 100 * q
	}
	sc := &c.scratch

	vcfg := wifi.TxConfig{Grid: g, MCS: mcs, ScramblerSeed: uint8(1 + r.Intn(127))}
	n := wifi.PPDULen(g, mcs, len(psdu))
	victim, err := sc.tx.BuildInto(grow(sc.victim.Samples, n), vcfg, psdu, 0, n)
	if err != nil {
		return fmt.Errorf("interference: victim: %w", err)
	}
	sc.victim = victim

	// The victim goes through its channel straight into the stream buffer,
	// which gives the power the interferers are calibrated against.
	streamLen := pad + n + pad
	stream := grow(c.Samples, streamLen)
	vWave := stream[pad : pad+n]
	s.victimChannel(vWave, victim.Samples)
	victimPower := dsp.Power(vWave)

	// The stream buffer then doubles as each interferer's own stream while
	// interfOnly sums them, and the victim is filtered in again after.
	interfOnly := grow(c.InterferenceOnly, streamLen)
	clear(interfOnly)
	victimDataStart := pad + victim.DataStart
	for i := range s.Interferers {
		wave, err := s.interfererWave(stream, sc, r, i, victimDataStart)
		if err != nil {
			return err
		}
		gain := channel.GainForSIR(victimPower, dsp.Power(wave), s.Interferers[i].SIRdB)
		dsp.Scale(wave, gain)
		dsp.AddInto(interfOnly, wave, 0)
	}
	if len(s.Interferers) > 0 {
		s.victimChannel(vWave, victim.Samples)
	}
	clear(stream[:pad])
	clear(stream[pad+n:])
	for i := range interfOnly {
		stream[i] += interfOnly[i]
	}
	if s.SNRdB < 1000 {
		channel.AWGN(r, stream, channel.NoisePowerForSNR(victimPower, s.SNRdB))
	}

	c.Samples = stream
	c.InterferenceOnly = interfOnly
	c.Victim = &sc.victim
	c.Grid = g
	c.FrameStart = pad
	c.PSDU = psdu
	return nil
}

// victimChannel writes the victim waveform x, through the scenario's
// channel, into dst.
func (s *Scenario) victimChannel(dst, x []complex128) {
	if s.Channel != nil {
		s.Channel.ApplyInto(dst, x, 0)
	} else {
		copy(dst, x)
	}
}

// grow returns buf resized to n samples, reallocating only when its
// capacity is short. A reused buffer keeps its old contents.
func grow(buf []complex128, n int) []complex128 {
	if cap(buf) < n {
		return make([]complex128, n)
	}
	return buf[:n]
}

// tileWindow returns the part [lo, hi) of a tile of n samples placed at
// stream position pos that falls inside a stream of streamLen samples, in
// tile coordinates; lo == hi when none does.
func tileWindow(pos, n, streamLen int) (lo, hi int) {
	return min(max(0, -pos), n), max(0, min(n, streamLen-pos))
}

// interfererWave overwrites out with a continuous stream of back-to-back
// PPDUs from interferer i, tiled so that the interferer's symbol
// boundaries fall BoundaryOffset samples past each victim data symbol
// start. PPDU lengths are whole multiples of the symbol length, so the
// relative boundary position persists across tiles. The first tile starts
// before the stream and the last one runs past it; each tile writes only
// its slice inside the stream, and the slices cover every sample once.
// Writing rather than adding onto zeros can differ only in the sign of a
// zero, which RunInto's sum onto the zeroed interfOnly erases, so the
// composite is bit-identical to summing whole tiles.
func (s *Scenario) interfererWave(out []complex128, sc *synthScratch, r *dsp.Rand, i int, victimDataStart int) ([]complex128, error) {
	itf := s.Interferers[i]
	g := s.InterfererGrid(i)
	mcs := itf.MCS
	if mcs.Name == "" {
		m, err := wifi.MCSByName("16-QAM 1/2")
		if err != nil {
			return nil, err
		}
		mcs = m
	}
	symLen := g.SymLen()
	boundary := itf.BoundaryOffset
	if boundary == 0 {
		// Free-running transmitter: any offset beyond the CP, fresh per Run.
		boundary = g.CP + 1 + r.Intn(symLen-g.CP-1)
	}

	streamLen := len(out)
	if s.Pool != nil {
		// Pooled tiles: one index draw per tile, shared pre-encoded (and
		// pre-filtered) waveforms. PPDU length is known without encoding.
		ppduLen := wifi.PPDULen(g, mcs, s.Pool.PSDUBytes())
		pos := (victimDataStart+boundary)%symLen - ppduLen
		for ; pos < streamLen; pos += ppduLen {
			w, err := s.Pool.PickFiltered(r, g, mcs, itf.Channel)
			if err != nil {
				return nil, fmt.Errorf("interference: interferer %d: %w", i, err)
			}
			lo, hi := tileWindow(pos, ppduLen, streamLen)
			copy(out[pos+lo:pos+hi], w[lo:hi])
		}
	} else if err := s.freshTiles(sc, r, itf, g, mcs, out, victimDataStart, boundary); err != nil {
		return nil, fmt.Errorf("interference: interferer %d: %w", i, err)
	}
	cfo := itf.CFO
	if cfo == 0 {
		mag := 0.05 + 0.15*r.Float64()
		if r.Intn(2) == 0 {
			mag = -mag
		}
		cfo = mag
	}
	dsp.FreqShift(out, cfo, g.NFFT, 0)
	return out, nil
}

// freshTiles writes per-tile freshly-encoded PPDUs into out — the
// pool-less path. The RNG draw sequence (scrambler seed, then one 396-byte payload
// per tile plus one trailing payload) reproduces the original
// build-then-advance loop bit for bit; the trailing payload, which that
// loop encoded and then discarded, is only drawn. Every tile runs its
// whole bit pipeline, but only the samples that land in out are
// synthesised: the tile's symbols overlapping the stream, plus the
// channel's tap span before them, are modulated into the scratch tile
// and only the overlapping output samples are filtered, each the same
// value filtering the whole tile gives.
func (s *Scenario) freshTiles(sc *synthScratch, r *dsp.Rand, itf Interferer, g ofdm.Grid, mcs wifi.MCS, out []complex128, victimDataStart, boundary int) error {
	symLen := g.SymLen()
	cfg := wifi.TxConfig{Grid: g, MCS: mcs, ScramblerSeed: uint8(1 + r.Intn(127))}
	payload := wifi.BuildPSDU(r.Bytes(396))
	ppduLen := wifi.PPDULen(g, mcs, len(payload))
	span := 0 // input samples before an output sample that the channel reads
	if itf.Channel != nil {
		span = len(itf.Channel.Taps) - 1
	}
	tile := grow(sc.tile, ppduLen)
	sc.tile = tile
	// Choose the first tile position ≡ victimDataStart+boundary (mod symLen)
	// and at or before sample 0.
	pos := (victimDataStart+boundary)%symLen - ppduLen
	for ; pos < len(out); pos += ppduLen {
		if lo, hi := tileWindow(pos, ppduLen, len(out)); lo < hi {
			if _, err := sc.tx.BuildInto(tile, cfg, payload, max(0, lo-span), hi); err != nil {
				return err
			}
			if itf.Channel != nil {
				itf.Channel.ApplyInto(out[pos+lo:pos+hi], tile, lo)
			} else {
				copy(out[pos+lo:pos+hi], tile[lo:hi])
			}
		}
		// Fresh payload for the next tile.
		payload = wifi.BuildPSDU(r.Bytes(396))
	}
	return nil
}

// OffsetForGuardMHz returns the interferer center offset (in subcarriers)
// that leaves the given edge-to-edge guard band, in MHz, between the
// victim's highest used subcarrier (+26) and the interferer's lowest
// (−26). A guard of 0 MHz packs the bands back to back.
func OffsetForGuardMHz(guardMHz float64) int {
	guardSC := int(guardMHz/SubcarrierSpacingMHz + 0.5)
	return 53 + guardSC
}

// GuardMHzForOffset is the inverse of OffsetForGuardMHz.
func GuardMHzForOffset(offset int) float64 {
	return float64(offset-53) * SubcarrierSpacingMHz
}

// Channel80211Offset returns the subcarrier offset corresponding to n
// 802.11 channel numbers of separation (5 MHz each): the paper's ch 8 vs
// ch 11 scenario is Channel80211Offset(3) = 48 subcarriers = 15 MHz.
func Channel80211Offset(channels int) int {
	return channels * 16 // 5 MHz / 312.5 kHz
}
