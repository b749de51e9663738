package main

import (
	"fmt"
	"math"
)

// named is a metric name with its unit.
type named struct{ name, unit string }

// endToEnd lists the metrics every untraced run reports, on every
// workload. An operation is one packet (RunPacket) on the packet
// workloads and one cold sweep job, from Submit to its table, on
// fleet-sweep. Times are in calibrated milliseconds (calibrate.go).
// Replays (an operation repeated with the same inputs, which must give
// the same result) are checked and reported on the report line only:
// on fleet-sweep a replay is mostly the store's file creation, whose
// latency varied up to sixfold between runs of the same code.
var endToEnd = []named{
	{"setup_s", "s"},
	{"pkt_per_s", "1/s"},
	{"op_ms_p50", "ms"},
	{"rss_mb", "MB"},
}

// perLayer lists the metrics every traced run reports, on every
// workload. A layer the workload's traced run records no span or
// counter for reads 0: the packet layers on fleet-sweep (its packets
// run inside the worker's engine) and the dist and store layers on the
// packet workloads.
var perLayer = []named{
	{"interference.tx_ms", "ms"},
	{"interference.tx_alloc_kb", "KiB"},
	{"rx.frame_ms", "ms"},
	{"core.train_ms", "ms"},
	{"core.decide_ms.cprecycle", "ms"},
	{"rx.decide_ms.standard", "ms"},
	{"rx.decode_self_ms.cprecycle", "ms"},
	{"rx.decode_self_ms.standard", "ms"},
	{"coding.viterbi_ms", "ms"},
	{"experiments.allocs_per_pkt", "count"},
	{"experiments.alloc_kb_per_pkt", "KiB"},
	{"gc.cycles_per_kpkt", "count"},
	{"obs.tx_agree", "ratio"},
	{"obs.train_agree", "ratio"},
	{"trace.accounted", "ratio"},
	{"trace.overhead", "ratio"},
	{"dist.submit_ms.cold", "ms"},
	{"dist.submit_ms.replay", "ms"},
	{"sweep.plan_ms", "ms"},
	{"dist.lease_ms_p50", "ms"},
	{"dist.result_ms_p50", "ms"},
	{"dist.requests_per_job", "count"},
	{"dist.leases_per_job", "count"},
	{"dist.wire_kb_per_job", "KiB"},
	{"dist.polls_per_lease", "count"},
	{"store.files_per_job", "count"},
	{"store.bytes_per_point", "B"},
	{"store.reopen_ms", "ms"},
	{"store.hit_ratio", "ratio"},
}

// fillLayers sets every per-layer metric of out from values, 0 where the
// workload has none; samples is the number of traced operations.
func fillLayers(out *outcome, values map[string]float64, samples int) error {
	known := map[string]bool{}
	for _, m := range perLayer {
		known[m.name] = true
		v := values[m.name]
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return fmt.Errorf("per-layer metric %s is %v", m.name, v)
		}
		out.metrics[m.name] = metric{v, m.unit, samples}
	}
	for name := range values {
		if !known[name] {
			return fmt.Errorf("per-layer metric %s is not declared", name)
		}
	}
	return nil
}
