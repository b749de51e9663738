package interference

import (
	"fmt"
	"math"
	"runtime"
	"testing"

	"repro/internal/channel"
	"repro/internal/dsp"
	"repro/internal/wifi"
)

// oracleRun is the full-tile transmit path Run replaced, kept as the
// reference its window-limited synthesis must reproduce bit for bit:
// every interferer tile is encoded at full PPDU length (wifi.BuildPPDU),
// filtered whole (Multipath.Apply) and added with dsp.AddInto, which drops
// the samples outside the stream; the victim is filtered into its own
// buffer and added onto a zeroed stream.
func oracleRun(s *Scenario, r *dsp.Rand, psdu []byte, mcs wifi.MCS) (*Composite, error) {
	q := max(s.Q, 1)
	g := s.VictimGrid()
	pad := s.Pad
	if pad == 0 {
		pad = 100 * q
	}
	vcfg := wifi.TxConfig{Grid: g, MCS: mcs, ScramblerSeed: uint8(1 + r.Intn(127))}
	victim, err := wifi.BuildPPDU(vcfg, psdu)
	if err != nil {
		return nil, err
	}
	vWave := victim.Samples
	if s.Channel != nil {
		vWave = s.Channel.Apply(vWave)
	}
	streamLen := pad + len(vWave) + pad
	stream := make([]complex128, streamLen)
	dsp.AddInto(stream, vWave, pad)
	victimPower := dsp.Power(vWave)

	interfOnly := make([]complex128, streamLen)
	for i := range s.Interferers {
		wave, err := oracleInterfererWave(s, r, i, streamLen, pad+victim.DataStart)
		if err != nil {
			return nil, err
		}
		gain := channel.GainForSIR(victimPower, dsp.Power(wave), s.Interferers[i].SIRdB)
		dsp.Scale(wave, gain)
		dsp.AddInto(interfOnly, wave, 0)
	}
	for i := range interfOnly {
		stream[i] += interfOnly[i]
	}
	if s.SNRdB < 1000 {
		channel.AWGN(r, stream, channel.NoisePowerForSNR(victimPower, s.SNRdB))
	}
	return &Composite{Samples: stream, InterferenceOnly: interfOnly, Victim: victim, Grid: g, FrameStart: pad, PSDU: psdu}, nil
}

func oracleInterfererWave(s *Scenario, r *dsp.Rand, i, streamLen, victimDataStart int) ([]complex128, error) {
	itf := s.Interferers[i]
	g := s.InterfererGrid(i)
	mcs := itf.MCS
	if mcs.Name == "" {
		mcs, _ = wifi.MCSByName("16-QAM 1/2")
	}
	symLen := g.SymLen()
	boundary := itf.BoundaryOffset
	if boundary == 0 {
		boundary = g.CP + 1 + r.Intn(symLen-g.CP-1)
	}
	out := make([]complex128, streamLen)
	if s.Pool != nil {
		ppduLen := wifi.PPDULen(g, mcs, s.Pool.PSDUBytes())
		for pos := (victimDataStart+boundary)%symLen - ppduLen; pos < streamLen; pos += ppduLen {
			w, err := s.Pool.PickFiltered(r, g, mcs, itf.Channel)
			if err != nil {
				return nil, err
			}
			dsp.AddInto(out, w, pos)
		}
	} else {
		cfg := wifi.TxConfig{Grid: g, MCS: mcs, ScramblerSeed: uint8(1 + r.Intn(127))}
		payload := wifi.BuildPSDU(r.Bytes(396))
		ppduLen := wifi.PPDULen(g, mcs, len(payload))
		for pos := (victimDataStart+boundary)%symLen - ppduLen; pos < streamLen; pos += ppduLen {
			ppdu, err := wifi.BuildPPDU(cfg, payload)
			if err != nil {
				return nil, err
			}
			w := ppdu.Samples
			if itf.Channel != nil {
				w = itf.Channel.Apply(w)
			}
			dsp.AddInto(out, w, pos)
			payload = wifi.BuildPSDU(r.Bytes(396))
		}
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

// sameBits reports the first index at which a and b differ in any bit of
// either component, or -1 when they are bit-identical.
func sameBits(a, b []complex128) int {
	if len(a) != len(b) {
		return 0
	}
	for i := range a {
		if math.Float64bits(real(a[i])) != math.Float64bits(real(b[i])) ||
			math.Float64bits(imag(a[i])) != math.Float64bits(imag(b[i])) {
			return i
		}
	}
	return -1
}

// oracleScenarios are the layouts the oracle test covers, each built with
// the interferers' symbol boundary set to boundary (0 draws it per Run).
var oracleScenarios = []struct {
	name  string
	build func(boundary int) *Scenario
}{
	{"aci", func(b int) *Scenario {
		return &Scenario{Q: 4, VictimCenter: 64, SNRdB: 10, Channel: channel.Indoor2Tap(),
			Interferers: []Interferer{{CenterOffset: 48, SIRdB: -15, Channel: channel.Indoor2Tap(), BoundaryOffset: b}}}
	}},
	{"aci-double", func(b int) *Scenario {
		return &Scenario{Q: 4, VictimCenter: 128, SNRdB: 10, Channel: channel.Indoor2Tap(),
			Interferers: []Interferer{
				{CenterOffset: 48, SIRdB: -10, Channel: channel.Indoor2Tap(), BoundaryOffset: b},
				{CenterOffset: -48, SIRdB: -10, Channel: channel.Indoor2Tap(), BoundaryOffset: b},
			}}
	}},
	{"cci", func(b int) *Scenario {
		return &Scenario{Q: 1, SNRdB: 17, Channel: channel.Indoor2Tap(),
			Interferers: []Interferer{{SIRdB: 15, Channel: channel.Indoor2Tap(), BoundaryOffset: b}}}
	}},
	{"nil-channel", func(b int) *Scenario {
		return &Scenario{Q: 4, VictimCenter: 64, SNRdB: 10,
			Interferers: []Interferer{{CenterOffset: 48, SIRdB: -15, BoundaryOffset: b}}}
	}},
	{"5-tap", func(b int) *Scenario {
		return &Scenario{Q: 1, SNRdB: 1000, Channel: channel.Indoor2Tap(),
			Interferers: []Interferer{{SIRdB: 5, Channel: channel.Exponential(dsp.NewRand(9), 5, 3), BoundaryOffset: b}}}
	}},
}

// TestRunMatchesFullTileOracle pins the window-limited transmit path to
// the full-tile one: for every victim MCS, layout, boundary placement and
// PSDU size, RunInto on one reused Composite yields Samples and
// InterferenceOnly bit-identical to oracleRun, with the same victim
// waveform and the same RNG draws.
func TestRunMatchesFullTileOracle(t *testing.T) {
	var reused Composite
	for _, mcsName := range []string{"BPSK 1/2", "QPSK 1/2", "16-QAM 1/2", "64-QAM 2/3"} {
		mcs, err := wifi.MCSByName(mcsName)
		if err != nil {
			t.Fatal(err)
		}
		for _, sc := range oracleScenarios {
			g := sc.build(0).InterfererGrid(0)
			for _, boundary := range []int{g.CP + 1, g.SymLen() - 1, 0} {
				s := sc.build(boundary)
				for _, n := range []int{20, 150, 400} {
					name := fmt.Sprintf("%s/%s/boundary=%d/%dB", mcsName, sc.name, boundary, n)
					seed := int64(len(name)*7919 + n)
					r1, r2 := dsp.NewRand(seed), dsp.NewRand(seed)
					psdu := wifi.BuildPSDU(r1.Bytes(n - 4))
					r2.Bytes(n - 4)
					want, err := oracleRun(s, r1, psdu, mcs)
					if err != nil {
						t.Fatal(err)
					}
					if err := s.RunInto(&reused, r2, psdu, mcs); err != nil {
						t.Fatal(err)
					}
					checkSameComposite(t, name, &reused, want)
					if r1.Int63() != r2.Int63() {
						t.Fatalf("%s: RNG draw sequence diverged from the oracle", name)
					}
				}
			}
		}
	}
}

// TestRunMatchesOracleWithPool covers the pooled tiles, which now add only
// their overlapping slices, and the allocating Run wrapper.
func TestRunMatchesOracleWithPool(t *testing.T) {
	m := qpsk(t)
	pool := wifi.NewWaveformPool(4, 1)
	for _, sc := range oracleScenarios {
		for _, p := range []*wifi.WaveformPool{pool, nil} {
			s := sc.build(0)
			s.Pool = p
			r1, r2 := dsp.NewRand(3), dsp.NewRand(3)
			psdu := wifi.BuildPSDU(r1.Bytes(146))
			r2.Bytes(146)
			want, err := oracleRun(s, r1, psdu, m)
			if err != nil {
				t.Fatal(err)
			}
			got, err := s.Run(r2, psdu, m)
			if err != nil {
				t.Fatal(err)
			}
			checkSameComposite(t, fmt.Sprintf("%s/pool=%v", sc.name, p != nil), got, want)
		}
	}
}

func checkSameComposite(t *testing.T, name string, got, want *Composite) {
	t.Helper()
	if i := sameBits(got.Samples, want.Samples); i >= 0 {
		t.Fatalf("%s: Samples differ from the full-tile oracle at %d (len %d vs %d)", name, i, len(got.Samples), len(want.Samples))
	}
	if i := sameBits(got.InterferenceOnly, want.InterferenceOnly); i >= 0 {
		t.Fatalf("%s: InterferenceOnly differs from the full-tile oracle at %d", name, i)
	}
	if i := sameBits(got.Victim.Samples, want.Victim.Samples); i >= 0 {
		t.Fatalf("%s: victim waveform differs at %d", name, i)
	}
	if got.FrameStart != want.FrameStart || got.Grid != want.Grid || got.Victim.DataStart != want.Victim.DataStart {
		t.Fatalf("%s: layout differs", name)
	}
}

// aciPacketScenario is the Fig. 8 point the packet benchmark measures: a
// QPSK 1/2 victim at its operating SNR on the 4× composite band, one
// 16-QAM 1/2 interferer three 802.11 channels away at −15 dB SIR.
func aciPacketScenario() *Scenario {
	return &Scenario{Q: 4, VictimCenter: 64, SNRdB: 10, Channel: channel.Indoor2Tap(),
		Interferers: []Interferer{{CenterOffset: Channel80211Offset(3), SIRdB: -15, Channel: channel.Indoor2Tap()}}}
}

// TestRunIntoSteadyStateAllocations pins the reuse: once a Composite has
// seen a packet of this shape, RunInto keeps its stream, interference and
// victim buffers and allocates at most 256 KiB per packet — far below one
// stream-sized buffer (the full-tile path allocated about 3.3 MB).
func TestRunIntoSteadyStateAllocations(t *testing.T) {
	s := aciPacketScenario()
	m := qpsk(t)
	var c Composite
	run := func(pkt int) {
		r := dsp.NewRand(int64(pkt))
		psdu := wifi.BuildPSDU(r.Bytes(396))
		if err := s.RunInto(&c, r, psdu, m); err != nil {
			t.Fatal(err)
		}
	}
	run(0)
	run(1)
	stream, interf, victim := &c.Samples[0], &c.InterferenceOnly[0], &c.Victim.Samples[0]
	const packets = 8
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for pkt := 2; pkt < 2+packets; pkt++ {
		run(pkt)
	}
	runtime.ReadMemStats(&after)
	if &c.Samples[0] != stream || &c.InterferenceOnly[0] != interf || &c.Victim.Samples[0] != victim {
		t.Fatal("RunInto reallocated a stream or victim buffer in steady state")
	}
	perPacket := (after.TotalAlloc - before.TotalAlloc) / packets
	streamBytes := uint64(16 * len(c.Samples))
	t.Logf("RunInto: %d B/packet (stream buffer %d B)", perPacket, streamBytes)
	if perPacket > 256<<10 || perPacket >= streamBytes {
		t.Fatalf("RunInto allocates %d B per packet, want ≤ 256 KiB and less than one %d B stream", perPacket, streamBytes)
	}
}

// TestRunIntoConcurrent runs packets on several goroutines, each with its
// own Composite, over one shared Scenario (pooled and not) and checks
// each against a serial run: the process-wide caches the transmit path
// reads (waveform pool, preamble, interleavers, FFT plans) must be safe to
// share, and per-worker scratch must not leak between packets.
func TestRunIntoConcurrent(t *testing.T) {
	m := qpsk(t)
	for _, pool := range []*wifi.WaveformPool{nil, wifi.NewWaveformPool(4, 2)} {
		s := aciPacketScenario()
		s.Pool = pool
		const workers, packets = 3, 4
		run := func(c *Composite, pkt int) []complex128 {
			r := dsp.NewRand(int64(100 + pkt))
			psdu := wifi.BuildPSDU(r.Bytes(16 + 20*pkt))
			if err := s.RunInto(c, r, psdu, m); err != nil {
				t.Error(err)
				return nil
			}
			return append([]complex128(nil), c.Samples...)
		}
		got := make([][]complex128, workers*packets)
		done := make(chan struct{})
		for w := 0; w < workers; w++ {
			go func(w int) {
				defer func() { done <- struct{}{} }()
				var c Composite
				for k := 0; k < packets; k++ {
					got[w*packets+k] = run(&c, w*packets+k)
				}
			}(w)
		}
		for w := 0; w < workers; w++ {
			<-done
		}
		for pkt, samples := range got {
			if i := sameBits(samples, run(new(Composite), pkt)); i >= 0 {
				t.Fatalf("pool=%v packet %d: concurrent run differs from a serial one at %d", pool != nil, pkt, i)
			}
		}
	}
}

func BenchmarkScenarioRunACI(b *testing.B) {
	s := aciPacketScenario()
	m := qpsk(b)
	r := dsp.NewRand(1)
	psdu := wifi.BuildPSDU(r.Bytes(396))
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := s.Run(r, psdu, m); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkScenarioRunIntoACI(b *testing.B) {
	s := aciPacketScenario()
	m := qpsk(b)
	r := dsp.NewRand(1)
	psdu := wifi.BuildPSDU(r.Bytes(396))
	var c Composite
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if err := s.RunInto(&c, r, psdu, m); err != nil {
			b.Fatal(err)
		}
	}
}
