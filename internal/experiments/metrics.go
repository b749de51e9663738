package experiments

import (
	"repro/internal/obs"
)

// Packet-level spans recorded once per RunPacket. "tx" covers waveform
// synthesis + channel simulation (Scenario.RunInto); "train" covers the
// shared CPRecycle preamble training pass. The observe/decode stages of
// the same cpr_sweep_stage_seconds family are recorded inside
// internal/rx. All hooks are loop-granular: a few time.Now calls and
// atomic updates per ~1ms packet, zero allocations (see
// internal/obs BenchmarkPacketMetrics).
var (
	packetsTotal  = obs.NewCounter("cpr_sweep_packets_total", "Packets fully decoded across every receiver arm.")
	packetSeconds = obs.NewHistogram("cpr_sweep_packet_seconds", "Wall-clock seconds per packet across every receiver arm.", obs.DurationBuckets)
	stageTx       = obs.NewHistogram("cpr_sweep_stage_seconds", "Wall-clock seconds per receiver/sweep stage, one observation per packet.",
		obs.DurationBuckets, obs.Label{Name: "stage", Value: "tx"})
	stageTrain = obs.NewHistogram("cpr_sweep_stage_seconds", "Wall-clock seconds per receiver/sweep stage, one observation per packet.",
		obs.DurationBuckets, obs.Label{Name: "stage", Value: "train"})
)
