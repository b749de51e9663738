// Command perfbench is the repository benchmark. It drives one workload
// closed-loop for a fixed time and prints its metrics:
//
//   - aci-packet and cci-packet call (*experiments.PSRPlan).RunPacket over
//     consecutive packet indices from GOMAXPROCS goroutines;
//   - fleet-sweep submits small pooled fig8 sweeps to an in-process
//     dist.Coordinator with a durable store, served over loopback HTTP to
//     one in-process dist.Worker, and resubmits each spec so the store
//     serves it.
//
// With -trace 0 it reports end-to-end metrics with tracing off. With
// -trace 1 it reports per-layer metrics from spans it records around
// calls into each layer's public functions; the program itself is not
// instrumented further. Every run checks the program's outputs (see
// PREDICTIONS.md) and fails on any mismatch.
//
// The last line of standard output is one JSON object with the keys
// correct, attempted, failed and metrics. The line before it is a
// detailed report with sample counts and the run's environment.
//
// Run it from the repository root through the wrapper, which builds it:
//
//	python3 perfbench/run.py --workload aci-packet --seed 1 --seconds 10 --trace 0
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"sort"
	"time"
)

// metric is one named measurement.
type metric struct {
	Value   float64 `json:"value"`
	Unit    string  `json:"unit"`
	Samples int     `json:"samples,omitempty"`
}

// outcome is what one workload run produced.
type outcome struct {
	// metrics are the contract metrics of the mode (end-to-end or
	// per-layer), keyed by name.
	metrics map[string]metric
	// detail holds further measurements with their sample counts: the
	// workload's own end-to-end names, check tallies and notes.
	detail map[string]metric
	notes  []string
	// attempted counts timed operations plus checks; failed counts the
	// operations that errored and the checks that mismatched.
	attempted, failed int
}

func newOutcome() *outcome {
	return &outcome{metrics: map[string]metric{}, detail: map[string]metric{}}
}

// check records one correctness check.
func (o *outcome) check(ok bool, format string, args ...any) {
	o.attempted++
	if !ok {
		o.failed++
		o.notes = append(o.notes, "MISMATCH: "+fmt.Sprintf(format, args...))
	}
}

// options are a run's parameters. Sizes other than the command-line
// flags are fixed per workload; the self-test shrinks them.
type options struct {
	seed    int64
	seconds float64
	trace   bool
	// workDir is where the run may write (spans, the fleet's store).
	workDir string
	sizes   sizes
}

// sizes fixes how much work a run does besides its duration.
type sizes struct {
	// setupReps is how many times the set-up is repeated; setup_s is
	// the median.
	setupReps int
	// minOps is the fewest timed operations a packet run measures, so
	// a p95 has ten samples beyond it.
	minOps int
	// fleetMinJobs is the fewest cold jobs a fleet run measures.
	fleetMinJobs int
	// replayEvery: each packet-workload goroutine re-executes every
	// replayEvery-th packet it ran (replay_ms_p50).
	replayEvery int
	// psduBytes is the packet workloads' victim PSDU size.
	psduBytes int
	// fleet job shape: the fig8 axis (SIR dB) × MCS modes gives the
	// points; each point runs fleetPackets packets of fleetPSDU bytes.
	// Eight packets a point keep a cold job's compute well above its
	// file-system work (a store file per point), whose latency varies
	// severalfold between runs on the same machine.
	fleetAxis    []float64
	fleetMCS     []string
	fleetPackets int
	fleetPSDU    int
	// allocPackets is how many packets the traced run decomposes
	// serially to attribute allocations to the transmit path.
	allocPackets int
}

var defaultSizes = sizes{
	setupReps:    9,
	minOps:       200,
	fleetMinJobs: 20,
	replayEvery:  4,
	psduBytes:    400,
	fleetAxis:    []float64{10, 5, 0, -5, -10, -15, -20, -25, -30, -40},
	fleetMCS:     nil, // the paper's three modes
	fleetPackets: 8,
	fleetPSDU:    40,
	allocPackets: 16,
}

// workloads maps a workload name to its runner.
var workloads = map[string]func(options) (*outcome, error){
	"aci-packet":  func(o options) (*outcome, error) { return runPacket(aciPacket, o) },
	"cci-packet":  func(o options) (*outcome, error) { return runPacket(cciPacket, o) },
	"fleet-sweep": runFleet,
}

func main() {
	name := flag.String("workload", "", "workload: aci-packet, cci-packet or fleet-sweep")
	seed := flag.Int64("seed", 1, "workload seed; the same seed gives the same inputs")
	seconds := flag.Float64("seconds", 10, "measured run time in seconds")
	trace := flag.Int("trace", 0, "1 records spans and reports per-layer metrics")
	flag.Parse()

	if err := run(*name, *seed, *seconds, *trace); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

// workDir is where a run writes its spans and the fleet's store,
// relative to the repository root it runs from.
const workDir = ".bench_build/work"

func run(name string, seed int64, seconds float64, trace int) error {
	wl, ok := workloads[name]
	if !ok {
		return fmt.Errorf("unknown workload %q", name)
	}
	if seconds <= 0 || (trace != 0 && trace != 1) {
		return fmt.Errorf("need -seconds > 0 and -trace 0 or 1")
	}
	if err := os.MkdirAll(workDir, 0o755); err != nil {
		return err
	}
	opts := options{seed: seed, seconds: seconds, trace: trace == 1, workDir: workDir, sizes: defaultSizes}
	start := time.Now()
	out, err := wl(opts)
	if err != nil {
		return err
	}
	if err := printResult(os.Stdout, name, opts, out, time.Since(start)); err != nil {
		return err
	}
	if out.failed > 0 {
		return fmt.Errorf("%d of %d operations or checks failed", out.failed, out.attempted)
	}
	return nil
}

// printResult writes the detailed report line and then the result line.
func printResult(w *os.File, name string, o options, out *outcome, wall time.Duration) error {
	mode := "end_to_end"
	if o.trace {
		mode = "per_layer"
	}
	errRate := 0.0
	if out.attempted > 0 {
		errRate = float64(out.failed) / float64(out.attempted)
	}
	out.detail["error_rate"] = metric{Value: errRate, Unit: "ratio", Samples: out.attempted}
	sort.Strings(out.notes)
	report := map[string]any{
		"workload": name,
		"seed":     o.seed,
		"seconds":  o.seconds,
		"mode":     mode,
		"env":      environment(),
		"detail":   out.detail,
		"notes":    out.notes,
		"wall_s":   wall.Seconds(),
	}
	line, err := json.Marshal(map[string]any{"report": report})
	if err != nil {
		return err
	}
	fmt.Fprintln(w, string(line))

	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	ms := make(map[string]value, len(out.metrics))
	for k, m := range out.metrics {
		ms[k] = value{m.Value, m.Unit}
	}
	attempted := out.attempted
	if attempted < 1 {
		attempted = 1
	}
	line, err = json.Marshal(struct {
		Correct   bool             `json:"correct"`
		Attempted int              `json:"attempted"`
		Failed    int              `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{out.failed == 0, attempted, out.failed, ms})
	if err != nil {
		return err
	}
	_, err = fmt.Fprintln(w, string(line))
	return err
}

// loopGoroutines is the number of closed-loop goroutines a packet
// workload runs: one per processor Go schedules on, which is also the
// sweep engine's default worker count.
func loopGoroutines() int { return runtime.GOMAXPROCS(0) }
