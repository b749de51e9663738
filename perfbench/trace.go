package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"time"

	"repro/internal/modem"
	"repro/internal/rx"
)

// span is one recorded interval: a call into a layer's public function.
type span struct {
	name   string
	parent int // index into the recorder's spans; -1 for a root
	trace  int // the operation the span belongs to (packet index, job)
	start  time.Duration
	end    time.Duration
}

// recorder keeps one goroutine's spans in memory; nothing is written
// until the run ends. Its spans' start and end are offsets from epoch,
// which every recorder of a run shares.
type recorder struct {
	epoch time.Time
	spans []span
}

func newRecorder(epoch time.Time) *recorder {
	return &recorder{epoch: epoch, spans: make([]span, 0, 1<<14)}
}

// begin opens a span and returns its index.
func (r *recorder) begin(name string, parent, trace int) int {
	r.spans = append(r.spans, span{name: name, parent: parent, trace: trace, start: time.Since(r.epoch)})
	return len(r.spans) - 1
}

// end closes span i.
func (r *recorder) end(i int) { r.spans[i].end = time.Since(r.epoch) }

// dur returns span i's duration.
func (r *recorder) dur(i int) time.Duration { return r.spans[i].end - r.spans[i].start }

// writeSpans writes every recorder's spans as JSON lines: id, name,
// parent id, trace, start and end in nanoseconds from the run's epoch.
func writeSpans(path string, recs []*recorder) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	type line struct {
		ID     string `json:"id"`
		Name   string `json:"name"`
		Parent string `json:"parent,omitempty"`
		Trace  int    `json:"trace"`
		Start  int64  `json:"start_ns"`
		End    int64  `json:"end_ns"`
	}
	for g, r := range recs {
		for i, s := range r.spans {
			l := line{ID: fmt.Sprintf("g%d.%d", g, i), Name: s.name, Trace: s.trace, Start: int64(s.start), End: int64(s.end)}
			if s.parent >= 0 {
				l.Parent = fmt.Sprintf("g%d.%d", g, s.parent)
			}
			if err := enc.Encode(l); err != nil {
				f.Close()
				return err
			}
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// spanFile names a run's span file in the work directory.
func spanFile(o options, workload string) string {
	return filepath.Join(o.workDir, fmt.Sprintf("spans-%s-seed%d.jsonl", workload, o.seed))
}

// timedDecider wraps a receiver arm's rx.SymbolDecider and records one
// span per decided symbol, so DecodeData's time splits into decision
// and the rest. With keep set it also copies each symbol's decisions.
type timedDecider struct {
	inner  rx.SymbolDecider
	rec    *recorder
	name   string
	parent int
	trace  int
	keep   bool
	kept   [][]int
}

// DecideSymbol implements rx.SymbolDecider.
func (d *timedDecider) DecideSymbol(f *rx.Frame, symIdx int, cons *modem.Constellation) ([]int, error) {
	s := d.rec.begin(d.name, d.parent, d.trace)
	idxs, err := d.inner.DecideSymbol(f, symIdx, cons)
	d.rec.end(s)
	if d.keep && err == nil {
		d.kept = append(d.kept, append([]int(nil), idxs...))
	}
	return idxs, err
}
