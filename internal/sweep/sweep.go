// Package sweep is the batch PSR sweep service: a long-running, sharded
// engine that executes the paper's packet-success-rate sweep experiments
// (Figs. 5, 8-12, 14 and the ablation studies) as jobs over a bounded
// worker pool with process-wide shared resources.
//
// A job is a declarative Spec naming an experiment plus fidelity options
// and optional axis/receiver/MCS overrides. The engine decomposes the
// experiment into its measurement points (experiments.SweepPlan), splits
// every point into fixed-size packet-range shards, and schedules all
// shards of all running jobs across one worker pool. Because each packet
// derives its RNG from (point seed, packet index), any sharding produces
// bit-identical per-point counts to the direct sequential
// experiments.RunPSR path — a property pinned by the engine equivalence
// tests.
//
// Shared across shards and jobs:
//
//   - a pre-encoded interferer waveform pool (wifi.WaveformPool), opted
//     into per job via Spec.Pool: tiles are picked with one RNG draw per
//     tile instead of encoding a fresh PPDU, cutting the tx-side IFFT
//     cost of a sweep; deterministic per seed, but a different draw
//     sequence than the pool-less path (which remains the default and is
//     what the same-seed regression pins);
//   - per-point segment plans, computed once at submission
//     (experiments.PlanPSR) instead of per packet;
//   - per-packet preamble trainings and lazily-fitted KDE models, shared
//     across the receiver arms of each packet (core.Training).
//
// Jobs expose atomic progress counters, context cancellation, and an
// optional content-addressed result store (internal/sweep/store): points
// are written to the store as they finish and any point the store
// already holds — keyed by plan fingerprint, pool identity and point
// identity, regardless of which job or process computed it — is restored
// at submit instead of executed. An interrupted sweep resubmitted
// against the same store resumes at the first missing point; a repeated
// identical sweep completes without running a packet.
package sweep

import (
	"fmt"

	"repro/internal/experiments"
	"repro/internal/wifi"
)

// Spec declares one sweep job. The zero values of the fidelity fields
// select the paper's full fidelity (2000 packets of 400 bytes).
type Spec struct {
	// Experiment is the sweep id: one of experiments.SweepExperiments
	// ("fig5", "fig8", …, "ablation-decision", "delay-spread").
	Experiment string `json:"experiment"`
	// Packets per measurement point (default 2000, the paper's count).
	Packets int `json:"packets,omitempty"`
	// PSDUBytes is the victim packet size (default 400).
	PSDUBytes int `json:"psdu_bytes,omitempty"`
	// Seed is the base RNG seed (default 0; every point derives its own).
	Seed int64 `json:"seed,omitempty"`
	// Axis overrides the experiment's primary axis values (SIR dB, guard
	// MHz, segment count or delay spread, depending on the experiment).
	Axis []float64 `json:"axis,omitempty"`
	// Receivers overrides the receiver arms by name (experiments'
	// ReceiverKind names: "standard", "cprecycle", "oracle", …).
	Receivers []string `json:"receivers,omitempty"`
	// MCS restricts the multi-MCS figures to the named modes.
	MCS []string `json:"mcs,omitempty"`
	// Pool opts the job into the engine's shared pre-encoded interferer
	// waveform pool: substantially faster, same statistics, deterministic
	// per seed — but not packet-identical to the pool-less draw sequence.
	Pool bool `json:"pool,omitempty"`
}

// Request resolves the spec into an experiments.SweepRequest. pool is
// consulted only when the spec opts into the waveform pool; the
// distributed coordinator passes a never-encoded placeholder pool (pool
// entries encode lazily) because it plans jobs without running packets.
func (s Spec) Request(pool *wifi.WaveformPool) (experiments.SweepRequest, error) {
	req := experiments.SweepRequest{
		Experiment: s.Experiment,
		Options:    experiments.Options{Packets: s.Packets, PSDUBytes: s.PSDUBytes, Seed: s.Seed},
		Axis:       s.Axis,
		MCS:        s.MCS,
	}
	if s.Receivers != nil {
		arms := make([]experiments.ReceiverKind, 0, len(s.Receivers))
		for _, name := range s.Receivers {
			k, err := experiments.ParseReceiverKind(name)
			if err != nil {
				return req, err
			}
			arms = append(arms, k)
		}
		req.Receivers = arms
	}
	if s.Pool {
		if pool == nil {
			return req, fmt.Errorf("sweep: spec requests the waveform pool but the engine has none")
		}
		req.Pool = pool
	}
	return req, nil
}

// Normalised returns the spec with fidelity defaults filled — the form
// stored in job manifests and sent by the distributed coordinator to
// workers, so both sides plan from identical fields.
func (s Spec) Normalised() Spec {
	if s.Packets == 0 {
		s.Packets = 2000
	}
	if s.PSDUBytes == 0 {
		s.PSDUBytes = 400
	}
	return s
}

// PointTally is one completed point: its plan index, packet count and
// per-arm success tallies. It is the wire form of a finished point in the
// distributed tier (dist.LeaseResult).
type PointTally struct {
	Point int   `json:"point"`
	N     int   `json:"n"`
	OK    []int `json:"ok"`
}
