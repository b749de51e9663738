package experiments

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"io"
	"strings"

	"repro/internal/channel"
)

// Point-range identity. The distributed sweep tier (internal/sweep/dist)
// hands out leases that name plan points by index only; the worker
// rebuilds the plan from the normalised spec on its side. That is only
// sound if both sides derive the same point list from the same spec, so a
// lease carries the plan's Fingerprint and the worker refuses leases
// whose fingerprint differs from its locally-built plan — catching
// version skew, axis-default drift, or a mispatched binary before any
// mismatched tallies are merged.

// PointIdentity returns a canonical one-line description of point i: the
// fields that determine its packet decisions (per-point seed, packet
// count, PSDU size, MCS, segment plan inputs, receiver arms, and the
// scenario's interference layout). Fields that cannot change results —
// worker counts, the waveform-pool pointer (whose identity travels
// separately in leases and job manifests), scratch configuration — are
// deliberately excluded, so identities are stable across hosts and
// parallelism settings.
func (p *SweepPlan) PointIdentity(i int) string {
	c := p.Points[i].Cfg
	arms := make([]string, len(c.Receivers))
	for a, k := range c.Receivers {
		arms[a] = k.String()
	}
	var b strings.Builder
	fmt.Fprintf(&b, "%s seed=%d pkts=%d bytes=%d mcs=%s segs=%d stride=%d arms=%s",
		p.Name, c.Seed, c.Packets, c.PSDUBytes, c.MCS.Name, c.NumSegments, c.StrideDivisor,
		strings.Join(arms, ","))
	if s := c.Scenario; s != nil {
		fmt.Fprintf(&b, " scen=q%d,c%d,snr%g,pad%d", s.Q, s.VictimCenter, s.SNRdB, s.Pad)
		writeTaps(&b, s.Channel)
		for _, in := range s.Interferers {
			fmt.Fprintf(&b, " int=off%d,sir%g,b%d,mcs%s,cfo%g", in.CenterOffset, in.SIRdB, in.BoundaryOffset, in.MCS.Name, in.CFO)
			writeTaps(&b, in.Channel)
		}
	}
	return b.String()
}

// writeTaps appends the multipath channel's exact tap values (the
// delay-spread sweep's points differ only by their per-point channel
// realisation, so tap counts alone would collide).
func writeTaps(b *strings.Builder, ch *channel.Multipath) {
	if ch == nil {
		return
	}
	b.WriteString(",ch=")
	for _, t := range ch.Taps {
		fmt.Fprintf(b, "%g%+gi;", real(t), imag(t))
	}
}

// Fingerprint hashes every point's identity (plus the plan name and point
// count) into a short hex digest: two plans agree on a fingerprint iff
// they would produce bit-identical per-point tallies for the same
// executor. It is intentionally cheap — string formatting over scalar
// config fields, no waveforms touched.
func (p *SweepPlan) Fingerprint() string {
	h := sha256.New()
	fmt.Fprintf(h, "%s|%d\n", p.Name, len(p.Points))
	for i := range p.Points {
		io.WriteString(h, p.PointIdentity(i))
		h.Write([]byte{'\n'})
	}
	return hex.EncodeToString(h.Sum(nil)[:16])
}
