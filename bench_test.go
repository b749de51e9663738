package repro

// One benchmark per table and figure of the paper's evaluation, each
// running a scaled-down version of the corresponding experiment and
// logging the regenerated rows. Full-fidelity runs (2000 packets of
// 400 bytes per point, as in the paper): go run ./cmd/cprecycle-bench.

import (
	"fmt"
	"testing"

	"repro/internal/core"
	"repro/internal/experiments"
	"repro/internal/kde"
	"repro/internal/wifi"
)

// benchOpts is the reduced fidelity used by the benchmark suite.
func benchOpts() experiments.Options {
	return experiments.Options{Packets: 20, PSDUBytes: 150, Seed: 1}
}

// runTable executes an experiment once per iteration and logs the rows on
// the first.
func runTable(b *testing.B, f func() (*experiments.Table, error)) {
	b.Helper()
	for i := 0; i < b.N; i++ {
		t, err := f()
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			b.Logf("\n%s", t.Render())
		}
	}
}

func BenchmarkTable1CPConstants(b *testing.B) {
	runTable(b, func() (*experiments.Table, error) { return experiments.Table1(), nil })
}

func BenchmarkFig4aOracleSpectrum(b *testing.B) {
	runTable(b, func() (*experiments.Table, error) { return experiments.Fig4a(1) })
}

func BenchmarkFig4bSegmentPower(b *testing.B) {
	runTable(b, func() (*experiments.Table, error) { return experiments.Fig4b(1) })
}

func BenchmarkFig4cConstellation(b *testing.B) {
	runTable(b, func() (*experiments.Table, error) { return experiments.Fig4c(1) })
}

func BenchmarkFig5NaiveVsOracle(b *testing.B) {
	runTable(b, func() (*experiments.Table, error) { return experiments.Fig5(benchOpts()) })
}

func BenchmarkFig6aKDEBandwidth(b *testing.B) {
	runTable(b, func() (*experiments.Table, error) { return experiments.Fig6a() })
}

func BenchmarkFig6bDensityAccuracy(b *testing.B) {
	runTable(b, func() (*experiments.Table, error) { return experiments.Fig6b(1) })
}

func BenchmarkFig8ACISingle(b *testing.B) {
	runTable(b, func() (*experiments.Table, error) { return experiments.Fig8(benchOpts()) })
}

func BenchmarkFig9ACIDouble(b *testing.B) {
	runTable(b, func() (*experiments.Table, error) { return experiments.Fig9(benchOpts()) })
}

func BenchmarkFig10GuardBand(b *testing.B) {
	runTable(b, func() (*experiments.Table, error) { return experiments.Fig10(benchOpts()) })
}

func BenchmarkFig11CCISingle(b *testing.B) {
	runTable(b, func() (*experiments.Table, error) { return experiments.Fig11(benchOpts()) })
}

func BenchmarkFig12CCIDouble(b *testing.B) {
	runTable(b, func() (*experiments.Table, error) { return experiments.Fig12(benchOpts()) })
}

func BenchmarkFig13Neighbors(b *testing.B) {
	runTable(b, func() (*experiments.Table, error) { return experiments.Fig13(7, 15) })
}

func BenchmarkFig14SegmentSweep(b *testing.B) {
	runTable(b, func() (*experiments.Table, error) { return experiments.Fig14(benchOpts()) })
}

func BenchmarkDelaySpreadSweep(b *testing.B) {
	runTable(b, func() (*experiments.Table, error) { return experiments.DelaySpreadSweep(benchOpts()) })
}

func BenchmarkAblationDecisionRules(b *testing.B) {
	runTable(b, func() (*experiments.Table, error) { return experiments.AblationDecision(benchOpts()) })
}

// ablationSweep measures CPRecycle PSR at a fixed hard ACI point while one
// design knob varies.
func ablationSweep(b *testing.B, title string, labels []string, tweaks []func(*core.Config)) {
	b.Helper()
	m, err := wifi.MCSByName("QPSK 1/2")
	if err != nil {
		b.Fatal(err)
	}
	o := benchOpts()
	for i := 0; i < b.N; i++ {
		t := &experiments.Table{Title: title, Header: []string{"variant", "PSR(%)"}}
		for vi, tweak := range tweaks {
			cfg := experiments.LinkConfig{
				Scenario:  experiments.ACIScenario(-15, 57, experiments.OperatingSNR(m.Name)),
				MCS:       m,
				PSDUBytes: o.PSDUBytes,
				Packets:   o.Packets,
				Seed:      o.Seed,
				Receivers: []experiments.ReceiverKind{experiments.CPRecycle},
				CoreTweak: tweak,
			}
			pts, err := experiments.RunPSR(cfg)
			if err != nil {
				b.Fatal(err)
			}
			t.AddFloatRow(labels[vi], 100*pts[0].Rate())
		}
		if i == 0 {
			b.Logf("\n%s", t.Render())
		}
	}
}

func BenchmarkAblationSoftDecoding(b *testing.B) {
	runTable(b, func() (*experiments.Table, error) { return experiments.AblationSoftDecoding(benchOpts()) })
}

func BenchmarkAblationSphereRadius(b *testing.B) {
	radii := []float64{0.5, 1.0, 1.5, 2.5, 4.0}
	labels := make([]string, len(radii))
	tweaks := make([]func(*core.Config), len(radii))
	for i, r := range radii {
		r := r
		labels[i] = fmt.Sprintf("radius=%.1f", r)
		tweaks[i] = func(c *core.Config) { c.Radius = r }
	}
	ablationSweep(b, "Ablation: sphere radius R (× constellation units), ACI -15 dB QPSK", labels, tweaks)
}

func BenchmarkAblationBandwidth(b *testing.B) {
	ablationSweep(b, "Ablation: KDE bandwidth selector (sphere-KDE decision), ACI -15 dB QPSK",
		[]string{"silverman", "lscv", "fixed=0.5"},
		[]func(*core.Config){
			func(c *core.Config) { c.Decision = core.DecisionSphereKDE; c.Bandwidth = kde.Silverman },
			func(c *core.Config) { c.Decision = core.DecisionSphereKDE; c.Bandwidth = kde.LSCV },
			func(c *core.Config) { c.Decision = core.DecisionSphereKDE; c.Bandwidth = kde.FixedBandwidth(0.5) },
		})
}

func BenchmarkAblationKDEPooling(b *testing.B) {
	ablationSweep(b, "Ablation: pooled vs per-segment KDE (sphere-KDE decision), ACI -15 dB QPSK",
		[]string{"pooled", "per-segment"},
		[]func(*core.Config){
			func(c *core.Config) { c.Decision = core.DecisionSphereKDE },
			func(c *core.Config) { c.Decision = core.DecisionSphereKDE; c.PerSegment = true },
		})
}

func BenchmarkAblationModelUpdate(b *testing.B) {
	ablationSweep(b, "Ablation: continuous model update, ACI -15 dB QPSK",
		[]string{"updating", "frozen"},
		[]func(*core.Config){
			func(c *core.Config) {},
			func(c *core.Config) { c.NoModelUpdate = true },
		})
}

func BenchmarkAblationOversampledSegments(b *testing.B) {
	// §6: P can exceed the CP sample count through oversampling. The wide
	// composite grid runs at 4× the victim rate, so halving the stride
	// doubles the usable segments.
	m, err := wifi.MCSByName("16-QAM 1/2")
	if err != nil {
		b.Fatal(err)
	}
	o := benchOpts()
	for i := 0; i < b.N; i++ {
		t := &experiments.Table{
			Title:  "Ablation: segment count incl. oversampled (ACI -15 dB, 16-QAM)",
			Header: []string{"segments", "PSR(%)"},
		}
		for _, nseg := range []int{8, 16, 32} {
			cfg := experiments.LinkConfig{
				Scenario:    experiments.ACIScenario(-15, 57, experiments.OperatingSNR(m.Name)),
				MCS:         m,
				PSDUBytes:   o.PSDUBytes,
				Packets:     o.Packets,
				Seed:        o.Seed,
				NumSegments: nseg,
				Receivers:   []experiments.ReceiverKind{experiments.CPRecycle},
			}
			if nseg > 16 {
				// Oversampled: half-native stride on the composite grid.
				cfg.StrideDivisor = 2
			}
			pts, err := experiments.RunPSR(cfg)
			if err != nil {
				b.Fatal(err)
			}
			t.AddFloatRow(fmt.Sprintf("%d", nseg), 100*pts[0].Rate())
		}
		if i == 0 {
			b.Logf("\n%s", t.Render())
		}
	}
}
