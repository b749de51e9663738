package experiments

import (
	"fmt"
	"strings"
	"testing"

	"repro/internal/wifi"
)

func opts() Options { return Options{Packets: 6, PSDUBytes: 60, Seed: 1} }

func TestReceiverKindString(t *testing.T) {
	names := map[ReceiverKind]string{
		Standard: "standard", Naive: "naive", Oracle: "oracle",
		CPRecycle: "cprecycle", CPRecycleNoTrack: "cprecycle-notrack", CPRecycleKDE: "cprecycle-kde",
	}
	for k, w := range names {
		if k.String() != w {
			t.Errorf("%d.String() = %q", int(k), k.String())
		}
	}
}

func TestOperatingSNRKnown(t *testing.T) {
	for _, m := range wifi.StandardMCS() {
		if OperatingSNR(m.Name) < 5 || OperatingSNR(m.Name) > 30 {
			t.Errorf("%s: suspicious operating SNR %v", m.Name, OperatingSNR(m.Name))
		}
	}
	if OperatingSNR("unknown") != 20 {
		t.Error("unknown MCS should default to 20")
	}
}

func TestRunPSRValidation(t *testing.T) {
	m, _ := wifi.MCSByName("QPSK 1/2")
	if _, err := RunPSR(LinkConfig{Packets: 0}); err == nil {
		t.Fatal("zero packets should fail")
	}
	if _, err := RunPSR(LinkConfig{Packets: 1, PSDUBytes: 2}); err == nil {
		t.Fatal("tiny PSDU should fail")
	}
	if _, err := RunPSR(LinkConfig{Packets: 1, PSDUBytes: 60, MCS: m}); err == nil {
		t.Fatal("no receivers should fail")
	}
}

// TestNewSweepPlanBounds pins the planning-time fidelity bounds: a spec
// whose packet count or PSDU length no packet could run is refused when
// it is planned, not on its first packet. The edges of the PSDU range
// (5 and 4095 octets) plan.
func TestNewSweepPlanBounds(t *testing.T) {
	plan := func(packets, psdu int) error {
		_, err := NewSweepPlan(SweepRequest{Experiment: "fig8", Options: Options{Packets: packets, PSDUBytes: psdu}})
		return err
	}
	for _, c := range []struct{ packets, psdu int }{
		{-5, 60}, {1, 4}, {1, -1}, {1, 4096}, {1, 1 << 20},
	} {
		if err := plan(c.packets, c.psdu); err == nil {
			t.Errorf("packets %d, psdu_bytes %d planned without error", c.packets, c.psdu)
		}
	}
	for _, c := range []struct{ packets, psdu int }{{1, 5}, {1, wifi.MaxPSDULen}, {0, 0}} {
		if err := plan(c.packets, c.psdu); err != nil {
			t.Errorf("packets %d, psdu_bytes %d: %v", c.packets, c.psdu, err)
		}
	}
}

func TestRunPSRCleanChannel(t *testing.T) {
	m, _ := wifi.MCSByName("QPSK 1/2")
	cfg := LinkConfig{
		Scenario:  ACIScenario(100, 57, 30), // effectively interference-free
		MCS:       m,
		PSDUBytes: 60,
		Packets:   4,
		Seed:      7,
		Receivers: []ReceiverKind{Standard, CPRecycle, Naive},
	}
	pts, err := RunPSR(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range pts {
		if p.N != 4 {
			t.Fatalf("%v: N = %d", p.Kind, p.N)
		}
		if p.Rate() != 1 {
			t.Fatalf("%v: clean-channel PSR = %v", p.Kind, p.Rate())
		}
	}
}

func TestRunPSRDeterministic(t *testing.T) {
	m, _ := wifi.MCSByName("16-QAM 1/2")
	cfg := LinkConfig{
		Scenario:  ACIScenario(-15, 57, 17),
		MCS:       m,
		PSDUBytes: 60,
		Packets:   5,
		Seed:      9,
		Receivers: []ReceiverKind{Standard, CPRecycle},
	}
	a, err := RunPSR(cfg)
	if err != nil {
		t.Fatal(err)
	}
	cfg.Workers = 2
	b, err := RunPSR(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for i := range a {
		if a[i].OK != b[i].OK {
			t.Fatalf("parallelism changed results: %v vs %v", a[i], b[i])
		}
	}
}

func TestTableRender(t *testing.T) {
	tb := &Table{Title: "T", Note: "n", Header: []string{"a", "bb"}}
	tb.AddRow("1", "2")
	tb.AddFloatRow("x", 3.14159)
	out := tb.Render()
	for _, want := range []string{"== T ==", "n", "a", "bb", "3.14"} {
		if !strings.Contains(out, want) {
			t.Fatalf("render missing %q:\n%s", want, out)
		}
	}
}

func TestTable1Experiment(t *testing.T) {
	tb := Table1()
	if len(tb.Rows) != 6 { // 4 Wi-Fi rows + 2 LTE rows
		t.Fatalf("Table 1 rows = %d", len(tb.Rows))
	}
	if tb.Rows[0][2] != "64" || tb.Rows[0][3] != "16" {
		t.Fatalf("row 0 = %v", tb.Rows[0])
	}
}

func TestFig4aShape(t *testing.T) {
	tb, err := Fig4a(3)
	if err != nil {
		t.Fatal(err)
	}
	if len(tb.Rows) != 127 {
		t.Fatalf("rows = %d", len(tb.Rows))
	}
	if !strings.Contains(tb.Note, "oracle reduction") {
		t.Fatal("missing reduction summary")
	}
}

func TestFig4bShape(t *testing.T) {
	tb, err := Fig4b(4)
	if err != nil {
		t.Fatal(err)
	}
	if len(tb.Rows) == 0 || len(tb.Rows[0]) != 4 {
		t.Fatalf("unexpected shape %dx%d", len(tb.Rows), len(tb.Rows[0]))
	}
	// Normalised to the global maximum: every value ≤ 0 dB, exactly one
	// ≈ 0 somewhere, and the strongest-interference curve (SIR −30, col 3)
	// must sit well above the weakest (SIR −10, col 1) on average. The
	// per-segment swing within a curve must be large (>10 dB for −20 dB
	// SIR) — the paper's headline observation.
	var sum1, sum3 float64
	min2, max2 := 1e9, -1e9
	foundMax := false
	for _, row := range tb.Rows {
		var v1, v2, v3 float64
		if _, err := fscan(row[1], &v1); err != nil {
			t.Fatal(err)
		}
		if _, err := fscan(row[2], &v2); err != nil {
			t.Fatal(err)
		}
		if _, err := fscan(row[3], &v3); err != nil {
			t.Fatal(err)
		}
		for _, v := range []float64{v1, v2, v3} {
			if v > 1e-9 {
				t.Fatalf("normalised value %v > 0 dB", v)
			}
			if v > -0.01 {
				foundMax = true
			}
		}
		sum1 += v1
		sum3 += v3
		if v2 < min2 {
			min2 = v2
		}
		if v2 > max2 {
			max2 = v2
		}
	}
	if !foundMax {
		t.Fatal("no 0 dB global maximum")
	}
	if sum3 <= sum1 {
		t.Fatal("SIR -30 curve should dominate SIR -10")
	}
	if max2-min2 < 10 {
		t.Fatalf("per-segment variation only %.1f dB at SIR -20", max2-min2)
	}
}

func TestFig4cShape(t *testing.T) {
	tb, err := Fig4c(5)
	if err != nil {
		t.Fatal(err)
	}
	if len(tb.Rows) != 2+5 {
		t.Fatalf("rows = %d", len(tb.Rows))
	}
}

func TestFig6aShape(t *testing.T) {
	tb, err := Fig6a()
	if err != nil {
		t.Fatal(err)
	}
	if len(tb.Rows) < 40 {
		t.Fatalf("rows = %d", len(tb.Rows))
	}
}

func TestFig6bShape(t *testing.T) {
	tb, err := Fig6b(6)
	if err != nil {
		t.Fatal(err)
	}
	if len(tb.Rows) < 20 || len(tb.Header) != 7 {
		t.Fatalf("unexpected shape")
	}
	// CDFs end near 1.
	last := tb.Rows[len(tb.Rows)-1]
	for col := 1; col < 7; col++ {
		var v float64
		if _, err := fscan(last[col], &v); err != nil {
			t.Fatal(err)
		}
		if v < 0.9 {
			t.Fatalf("CDF column %d ends at %v", col, v)
		}
	}
}

func TestFig13Shape(t *testing.T) {
	tb, err := Fig13(7, 15)
	if err != nil {
		t.Fatal(err)
	}
	if len(tb.Rows) != 26 {
		t.Fatalf("rows = %d", len(tb.Rows))
	}
	// CPRecycle CDF dominates (shifted left): at every count its CDF ≥ std.
	for _, row := range tb.Rows {
		var s, c float64
		if _, err := fscan(row[1], &s); err != nil {
			t.Fatal(err)
		}
		if _, err := fscan(row[2], &c); err != nil {
			t.Fatal(err)
		}
		if c < s-1e-9 {
			t.Fatalf("CPRecycle CDF below standard at %s", row[0])
		}
	}
}

func fscan(s string, v *float64) (int, error) {
	return fmt.Sscanf(s, "%f", v)
}

func TestSoftReceiverKinds(t *testing.T) {
	m, _ := wifi.MCSByName("QPSK 1/2")
	cfg := LinkConfig{
		Scenario:  ACIScenario(100, 57, 30),
		MCS:       m,
		PSDUBytes: 60,
		Packets:   3,
		Seed:      13,
		Receivers: []ReceiverKind{StandardSoft, CPRecycleSoft},
	}
	pts, err := RunPSR(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range pts {
		if p.Rate() != 1 {
			t.Fatalf("%v: clean-channel soft PSR = %v", p.Kind, p.Rate())
		}
	}
	if StandardSoft.String() != "standard-soft" || CPRecycleSoft.String() != "cprecycle-soft" {
		t.Fatal("soft kind names wrong")
	}
}
