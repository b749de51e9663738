package experiments

import (
	"fmt"
	"sort"

	"repro/internal/channel"
	"repro/internal/dsp"
	"repro/internal/interference"
	"repro/internal/wifi"
)

// SweepPoint is one independent measurement point of a sweep plan.
type SweepPoint struct {
	// Cfg is the point's RunPSR configuration.
	Cfg LinkConfig
}

// SweepPlan is a PSR figure experiment decomposed into independent
// measurement points plus an assembler that formats the figure's table
// from their results. The points are what the sweep engine schedules; the
// direct path (RunSweepPlan) executes them sequentially in order, exactly
// like the pre-decomposition figure functions did.
type SweepPlan struct {
	// Name is the experiment id ("fig8", …).
	Name string
	// Title is the table title.
	Title string
	// Points lists the measurement points in canonical order.
	Points []SweepPoint
	// Assemble formats the table from per-point results aligned with
	// Points (results[i][a] is point i, receiver arm a).
	Assemble func(results [][]PSRPoint) (*Table, error)
}

// TotalPackets sums the packets across all points.
func (p *SweepPlan) TotalPackets() int {
	n := 0
	for _, pt := range p.Points {
		n += pt.Cfg.Packets
	}
	return n
}

// SweepRequest parameterises a named PSR sweep experiment.
type SweepRequest struct {
	// Experiment is the sweep id — see SweepExperiments.
	Experiment string
	// Options scales every point (packets, PSDU bytes, base seed).
	Options Options
	// Axis, when non-nil, overrides the experiment's primary axis values:
	// SIR dB for the PSR-vs-SIR figures and ablations, guard MHz for
	// fig5/fig10, segment count for fig14, delay-spread samples for
	// delay-spread.
	Axis []float64
	// Receivers, when non-nil, overrides the receiver arms of every
	// point; table columns follow the arm names.
	Receivers []ReceiverKind
	// MCS, when non-nil, restricts the multi-MCS figures (fig8/9/11/12)
	// to the named modes.
	MCS []string
	// Pool, when set, draws interferer tile waveforms from this shared
	// pre-encoded pool (see wifi.WaveformPool): much faster, same
	// statistics, deterministic per seed — but a different RNG draw
	// sequence than the pool-less path.
	Pool *wifi.WaveformPool
}

// RunSweepPlan executes the plan's points sequentially in order — the
// direct, engine-less path — and assembles the table.
func RunSweepPlan(p *SweepPlan) (*Table, error) {
	results := make([][]PSRPoint, len(p.Points))
	for i := range p.Points {
		pts, err := RunPSR(p.Points[i].Cfg)
		if err != nil {
			return nil, err
		}
		results[i] = pts
	}
	return p.Assemble(results)
}

// sweepBuilders maps experiment ids to plan constructors.
var sweepBuilders = map[string]func(SweepRequest) (*SweepPlan, error){
	"fig5":              fig5Plan,
	"fig8":              fig8Plan,
	"fig9":              fig9Plan,
	"fig10":             fig10Plan,
	"fig11":             fig11Plan,
	"fig12":             fig12Plan,
	"fig14":             fig14Plan,
	"ablation-decision": ablationDecisionPlan,
	"ablation-soft":     ablationSoftPlan,
	"delay-spread":      delaySpreadPlan,
}

// SweepExperiments lists the experiment ids NewSweepPlan accepts, sorted.
func SweepExperiments() []string {
	names := make([]string, 0, len(sweepBuilders))
	for n := range sweepBuilders {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// IsSweepExperiment reports whether name is a PSR sweep (decomposable for
// the engine) as opposed to an analysis experiment.
func IsSweepExperiment(name string) bool {
	_, ok := sweepBuilders[name]
	return ok
}

// NewSweepPlan builds the sweep plan for a named PSR experiment.
func NewSweepPlan(req SweepRequest) (*SweepPlan, error) {
	b, ok := sweepBuilders[req.Experiment]
	if !ok {
		return nil, fmt.Errorf("experiments: %q is not a sweep experiment (have %v)", req.Experiment, SweepExperiments())
	}
	req.Options = req.Options.defaults()
	// Bound the fidelity knobs here, where every caller (engine, dist
	// coordinator, perfbench) plans, so an out-of-range spec is refused
	// at submit instead of failing on its first packet.
	if req.Options.Packets < 1 {
		return nil, fmt.Errorf("experiments: packets %d must be ≥ 1", req.Options.Packets)
	}
	if req.Options.PSDUBytes < 5 || req.Options.PSDUBytes > wifi.MaxPSDULen {
		return nil, fmt.Errorf("experiments: PSDU length %d outside [5,%d]", req.Options.PSDUBytes, wifi.MaxPSDULen)
	}
	p, err := b(req)
	if err != nil {
		return nil, err
	}
	p.Name = req.Experiment
	if req.Pool != nil {
		for i := range p.Points {
			p.Points[i].Cfg.Scenario.Pool = req.Pool
		}
	}
	return p, nil
}

// axisOr returns the request's axis override or the default.
func axisOr(req SweepRequest, def []float64) []float64 {
	if req.Axis != nil {
		return req.Axis
	}
	return def
}

// intAxis converts an axis override to integers, rejecting fractional or
// out-of-range values instead of silently truncating them.
func intAxis(vals []float64, min int, what string) ([]int, error) {
	out := make([]int, len(vals))
	for i, v := range vals {
		n := int(v)
		if float64(n) != v || n < min {
			return nil, fmt.Errorf("experiments: %s %v must be an integer ≥ %d", what, v, min)
		}
		out[i] = n
	}
	return out, nil
}

// receiversOr returns the request's receiver override or the default.
func receiversOr(req SweepRequest, def []ReceiverKind) []ReceiverKind {
	if req.Receivers != nil {
		return req.Receivers
	}
	return def
}

// paperMCSFor returns the paper's MCS list filtered by the request.
func paperMCSFor(req SweepRequest) ([]wifi.MCS, error) {
	all := wifi.PaperMCS()
	if req.MCS == nil {
		return all, nil
	}
	var out []wifi.MCS
	for _, name := range req.MCS {
		found := false
		for _, m := range all {
			if m.Name == name {
				out = append(out, m)
				found = true
				break
			}
		}
		if !found {
			return nil, fmt.Errorf("experiments: MCS %q is not one of the paper's modes", name)
		}
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("experiments: empty MCS selection")
	}
	return out, nil
}

// armLabel is the column label of a receiver arm in the PSR-vs-SIR tables.
func armLabel(k ReceiverKind) string {
	switch k {
	case Standard:
		return "std"
	case CPRecycle:
		return "cpr"
	default:
		return k.String()
	}
}

// cellsOf formats one point's per-arm PSR percentages.
func cellsOf(pts []PSRPoint) []string {
	cells := make([]string, 0, len(pts))
	for _, p := range pts {
		cells = append(cells, fmt.Sprintf("%.1f", 100*p.Rate()))
	}
	return cells
}

// figPSRvsSIRPlan is the shared constructor for Figs. 8, 9, 11 and 12:
// PSR versus SIR for the paper's MCS modes, one point per (SIR, MCS).
func figPSRvsSIRPlan(title string, req SweepRequest, defSIRs []float64, scen func(sir, snr float64) *interference.Scenario) (*SweepPlan, error) {
	o := req.Options
	sirs := axisOr(req, defSIRs)
	arms := receiversOr(req, []ReceiverKind{Standard, CPRecycle})
	mcses, err := paperMCSFor(req)
	if err != nil {
		return nil, err
	}
	p := &SweepPlan{Title: title}
	for _, sir := range sirs {
		for _, m := range mcses {
			p.Points = append(p.Points, SweepPoint{Cfg: LinkConfig{
				Scenario:  scen(sir, OperatingSNR(m.Name)),
				MCS:       m,
				PSDUBytes: o.PSDUBytes,
				Packets:   o.Packets,
				Seed:      o.Seed + int64(sir*100) + int64(m.Mbps),
				Receivers: arms,
			}})
		}
	}
	p.Assemble = func(results [][]PSRPoint) (*Table, error) {
		t := &Table{Title: title, Header: []string{"SIR(dB)"}}
		for _, m := range mcses {
			for _, k := range arms {
				t.Header = append(t.Header, m.Name+" "+armLabel(k))
			}
		}
		i := 0
		for _, sir := range sirs {
			cells := []string{fmt.Sprintf("%.0f", sir)}
			for range mcses {
				cells = append(cells, cellsOf(results[i])...)
				i++
			}
			t.AddRow(cells...)
		}
		return t, nil
	}
	return p, nil
}

func fig8Plan(req SweepRequest) (*SweepPlan, error) {
	return figPSRvsSIRPlan(
		"Fig 8: PSR vs SIR — single adjacent-channel interferer",
		req,
		[]float64{10, 5, 0, -5, -10, -15, -20, -25, -30, -40},
		func(sir, snr float64) *interference.Scenario {
			return ACIScenario(sir, interference.Channel80211Offset(3), snr)
		})
}

func fig9Plan(req SweepRequest) (*SweepPlan, error) {
	return figPSRvsSIRPlan(
		"Fig 9: PSR vs SIR — two adjacent-channel interferers",
		req,
		[]float64{10, 5, 0, -5, -10, -15, -20, -25, -30, -40},
		func(sir, snr float64) *interference.Scenario {
			return ACIScenarioDouble(sir, interference.Channel80211Offset(3), snr)
		})
}

func fig11Plan(req SweepRequest) (*SweepPlan, error) {
	return figPSRvsSIRPlan(
		"Fig 11: PSR vs SIR — single co-channel interferer",
		req,
		[]float64{40, 30, 20, 15, 10, 5, 0, -5, -10},
		func(sir, snr float64) *interference.Scenario { return CCIScenario(sir, snr) })
}

func fig12Plan(req SweepRequest) (*SweepPlan, error) {
	return figPSRvsSIRPlan(
		"Fig 12: PSR vs SIR — two co-channel interferers",
		req,
		[]float64{40, 30, 20, 15, 10, 5, 0, -5, -10},
		func(sir, snr float64) *interference.Scenario { return CCIScenarioDouble(sir, snr) })
}

func fig5Plan(req SweepRequest) (*SweepPlan, error) {
	o := req.Options
	m, err := wifi.MCSByName("QPSK 3/4")
	if err != nil {
		return nil, err
	}
	sirs := []float64{-10, -20, -30}
	guards := axisOr(req, []float64{0, 1.25, 2.5, 5, 10, 15, 20})
	arms := receiversOr(req, []ReceiverKind{Standard, Naive, Oracle})
	p := &SweepPlan{Title: "Fig 5: PSR vs guard band — Standard / Naive / Oracle (QPSK 3/4)"}
	for _, sir := range sirs {
		for _, guard := range guards {
			p.Points = append(p.Points, SweepPoint{Cfg: LinkConfig{
				Scenario:  ACIScenario(sir, interference.OffsetForGuardMHz(guard), OperatingSNR(m.Name)),
				MCS:       m,
				PSDUBytes: o.PSDUBytes,
				Packets:   o.Packets,
				Seed:      o.Seed + int64(sir*100) + int64(guard*10),
				Receivers: arms,
			}})
		}
	}
	p.Assemble = func(results [][]PSRPoint) (*Table, error) {
		t := &Table{Title: p.Title, Header: []string{"SIR(dB)", "guard(MHz)"}}
		for _, k := range arms {
			t.Header = append(t.Header, k.String())
		}
		i := 0
		for _, sir := range sirs {
			for _, guard := range guards {
				t.AddRow(append([]string{fmt.Sprintf("%.0f", sir), fmt.Sprintf("%.2f", guard)}, cellsOf(results[i])...)...)
				i++
			}
		}
		return t, nil
	}
	return p, nil
}

func fig10Plan(req SweepRequest) (*SweepPlan, error) {
	o := req.Options
	m, err := wifi.MCSByName("16-QAM 1/2")
	if err != nil {
		return nil, err
	}
	guards := axisOr(req, []float64{0, 1.25, 2.5, 5, 7.5, 10, 15, 20, 25, 30})
	sirs := []float64{-10, -20, -30}
	arms := receiversOr(req, []ReceiverKind{Standard, CPRecycle})
	p := &SweepPlan{Title: "Fig 10: PSR vs guard band — 16-QAM 1/2, with/without CPRecycle"}
	for _, guard := range guards {
		for _, sir := range sirs {
			p.Points = append(p.Points, SweepPoint{Cfg: LinkConfig{
				Scenario:  ACIScenario(sir, interference.OffsetForGuardMHz(guard), OperatingSNR(m.Name)),
				MCS:       m,
				PSDUBytes: o.PSDUBytes,
				Packets:   o.Packets,
				Seed:      o.Seed + int64(sir*100) + int64(guard*10),
				Receivers: arms,
			}})
		}
	}
	p.Assemble = func(results [][]PSRPoint) (*Table, error) {
		t := &Table{Title: p.Title, Header: []string{"guard(MHz)"}}
		for _, sir := range sirs {
			for _, k := range arms {
				t.Header = append(t.Header, fmt.Sprintf("%s %.0fdB", armLabel(k), sir))
			}
		}
		i := 0
		for _, guard := range guards {
			cells := []string{fmt.Sprintf("%.2f", guard)}
			for range sirs {
				cells = append(cells, cellsOf(results[i])...)
				i++
			}
			t.AddRow(cells...)
		}
		return t, nil
	}
	return p, nil
}

func fig14Plan(req SweepRequest) (*SweepPlan, error) {
	o := req.Options
	m, err := wifi.MCSByName("16-QAM 1/2")
	if err != nil {
		return nil, err
	}
	nsegs, err := intAxis(axisOr(req, []float64{1, 2, 4, 6, 8, 10, 12, 14, 16}), 1, "fig14 segment count")
	if err != nil {
		return nil, err
	}
	sirs := []float64{-10, -20, -30}
	arms := receiversOr(req, []ReceiverKind{CPRecycle})
	p := &SweepPlan{Title: "Fig 14: PSR vs number of FFT segments (ACI, 16-QAM 1/2)"}
	for _, nseg := range nsegs {
		for _, sir := range sirs {
			p.Points = append(p.Points, SweepPoint{Cfg: LinkConfig{
				Scenario:    ACIScenario(sir, 57, OperatingSNR(m.Name)),
				MCS:         m,
				PSDUBytes:   o.PSDUBytes,
				Packets:     o.Packets,
				Seed:        o.Seed + int64(sir*100) + int64(nseg),
				NumSegments: nseg,
				Receivers:   arms,
			}})
		}
	}
	p.Assemble = func(results [][]PSRPoint) (*Table, error) {
		t := &Table{Title: p.Title, Header: []string{"segments", "%ofCP"}}
		for _, sir := range sirs {
			t.Header = append(t.Header, fmt.Sprintf("SIR%.0fdB", sir))
		}
		i := 0
		for _, nseg := range nsegs {
			cells := []string{fmt.Sprintf("%d", nseg), fmt.Sprintf("%.0f", float64(nseg)/16*100)}
			for range sirs {
				cells = append(cells, cellsOf(results[i])...)
				i++
			}
			t.AddRow(cells...)
		}
		return t, nil
	}
	return p, nil
}

func ablationDecisionPlan(req SweepRequest) (*SweepPlan, error) {
	o := req.Options
	m, err := wifi.MCSByName("QPSK 1/2")
	if err != nil {
		return nil, err
	}
	sirs := axisOr(req, []float64{-10, -15, -20, -25})
	arms := receiversOr(req, []ReceiverKind{Standard, Naive, CPRecycleKDE, CPRecycleNoTrack, CPRecycle, Oracle})
	p := &SweepPlan{Title: "Ablation: decision rules (ACI, QPSK 1/2)"}
	for _, sir := range sirs {
		p.Points = append(p.Points, SweepPoint{Cfg: LinkConfig{
			Scenario:  ACIScenario(sir, 57, OperatingSNR(m.Name)),
			MCS:       m,
			PSDUBytes: o.PSDUBytes,
			Packets:   o.Packets,
			Seed:      o.Seed + int64(sir*100),
			Receivers: arms,
		}})
	}
	header := []string{"SIR(dB)", "standard", "naive", "kde-sphere", "no-track", "cprecycle", "oracle"}
	if req.Receivers != nil {
		header = []string{"SIR(dB)"}
		for _, k := range arms {
			header = append(header, k.String())
		}
	}
	p.Assemble = func(results [][]PSRPoint) (*Table, error) {
		t := &Table{Title: p.Title, Header: header}
		for i, sir := range sirs {
			t.AddRow(append([]string{fmt.Sprintf("%.0f", sir)}, cellsOf(results[i])...)...)
		}
		return t, nil
	}
	return p, nil
}

func ablationSoftPlan(req SweepRequest) (*SweepPlan, error) {
	o := req.Options
	m, err := wifi.MCSByName("16-QAM 1/2")
	if err != nil {
		return nil, err
	}
	sirs := axisOr(req, []float64{-5, -10, -15})
	arms := receiversOr(req, []ReceiverKind{Standard, StandardSoft, CPRecycle, CPRecycleSoft})
	p := &SweepPlan{Title: "Ablation: hard vs soft Viterbi decoding (ACI, 16-QAM 1/2)"}
	for _, sir := range sirs {
		p.Points = append(p.Points, SweepPoint{Cfg: LinkConfig{
			Scenario:  ACIScenario(sir, 57, OperatingSNR(m.Name)),
			MCS:       m,
			PSDUBytes: o.PSDUBytes,
			Packets:   o.Packets,
			Seed:      o.Seed + int64(sir*100),
			Receivers: arms,
		}})
	}
	header := []string{"SIR(dB)", "std-hard", "std-soft", "cpr-hard", "cpr-soft"}
	if req.Receivers != nil {
		header = []string{"SIR(dB)"}
		for _, k := range arms {
			header = append(header, k.String())
		}
	}
	p.Assemble = func(results [][]PSRPoint) (*Table, error) {
		t := &Table{Title: p.Title, Header: header}
		for i, sir := range sirs {
			t.AddRow(append([]string{fmt.Sprintf("%.0f", sir)}, cellsOf(results[i])...)...)
		}
		return t, nil
	}
	return p, nil
}

// delaySpreadRealisations is the per-point channel-realisation count of
// the §6 delay-spread study.
const delaySpreadRealisations = 4

func delaySpreadPlan(req SweepRequest) (*SweepPlan, error) {
	o := req.Options
	m, err := wifi.MCSByName("16-QAM 1/2")
	if err != nil {
		return nil, err
	}
	spreads, err := intAxis(axisOr(req, []float64{1, 3, 5, 7, 10}), 0, "delay spread")
	if err != nil {
		return nil, err
	}
	arms := receiversOr(req, []ReceiverKind{Standard, CPRecycle})
	p := &SweepPlan{Title: "§6: PSR vs channel delay spread (ACI -15 dB, 16-QAM 1/2)"}
	for _, spread := range spreads {
		// Average over several channel realisations per point: a single
		// frequency-selective draw dominates the PSR otherwise.
		for rz := 0; rz < delaySpreadRealisations; rz++ {
			scen := ACIScenario(-15, 57, OperatingSNR(m.Name))
			ch := channel.Exponential(dsp.NewRand(o.Seed+int64(spread*100+rz)), spread+1, 2)
			scen.Channel = ch
			scen.Interferers[0].Channel = ch
			p.Points = append(p.Points, SweepPoint{Cfg: LinkConfig{
				Scenario:  scen,
				MCS:       m,
				PSDUBytes: o.PSDUBytes,
				Packets:   (o.Packets + delaySpreadRealisations - 1) / delaySpreadRealisations,
				Seed:      o.Seed + int64(spread*1000+rz),
				Receivers: arms,
			}})
		}
	}
	p.Assemble = func(results [][]PSRPoint) (*Table, error) {
		t := &Table{Title: p.Title, Header: []string{"delay(samples)", "ISI-free(%ofCP)"}}
		for _, k := range arms {
			t.Header = append(t.Header, k.String())
		}
		i := 0
		for _, spread := range spreads {
			ok := make([]int, len(arms))
			n := 0
			for rz := 0; rz < delaySpreadRealisations; rz++ {
				for a := range arms {
					ok[a] += results[i][a].OK
				}
				n += results[i][0].N
				i++
			}
			isiFree := 100 * float64(16-(spread+1)) / 16
			cells := []string{fmt.Sprintf("%d", spread), fmt.Sprintf("%.0f", isiFree)}
			for a := range arms {
				cells = append(cells, fmt.Sprintf("%.1f", 100*float64(ok[a])/float64(n)))
			}
			t.AddRow(cells...)
		}
		return t, nil
	}
	return p, nil
}
