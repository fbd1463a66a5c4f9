package main

import (
	"encoding/json"
	"os"
	"sort"
	"time"
)

// span is one timed call into a layer. Spans of one operation share op; an
// operation's root span has parent -1 and every other span names the index
// of the span that caused it.
type span struct {
	Name       string
	Op         int
	Parent     int
	Start, End time.Duration // since the recorder's epoch
}

// recorder keeps spans in memory; they are written out once the run ends,
// so recording costs two clock reads and an append per span.
type recorder struct {
	epoch time.Time
	spans []span
}

func newRecorder() *recorder { return &recorder{epoch: time.Now()} }

// begin opens a span and returns its index for end and for child spans.
func (r *recorder) begin(name string, op, parent int) int {
	r.spans = append(r.spans, span{Name: name, Op: op, Parent: parent, Start: time.Since(r.epoch)})
	return len(r.spans) - 1
}

func (r *recorder) end(id int) { r.spans[id].End = time.Since(r.epoch) }

// add records a span whose bounds were measured elsewhere, such as a
// server-side duration reported in a response.
func (r *recorder) add(name string, op, parent int, start, end time.Time) int {
	r.spans = append(r.spans, span{Name: name, Op: op, Parent: parent,
		Start: start.Sub(r.epoch), End: end.Sub(r.epoch)})
	return len(r.spans) - 1
}

// rootMS returns the duration of every root span (one per operation), in ms.
func rootMS(spans []span) []float64 {
	var out []float64
	for _, s := range spans {
		if s.Parent < 0 {
			out = append(out, ms(s.End-s.Start))
		}
	}
	return out
}

// interval is a half-open time range.
type interval struct{ lo, hi time.Duration }

// covered returns the length of the union of ivs clipped to [lo, hi).
func covered(ivs []interval, lo, hi time.Duration) time.Duration {
	clipped := make([]interval, 0, len(ivs))
	for _, iv := range ivs {
		a, b := max(iv.lo, lo), min(iv.hi, hi)
		if a < b {
			clipped = append(clipped, interval{a, b})
		}
	}
	sort.Slice(clipped, func(i, j int) bool { return clipped[i].lo < clipped[j].lo })
	var total time.Duration
	var cur interval
	for i, iv := range clipped {
		switch {
		case i == 0:
			cur = iv
		case iv.lo <= cur.hi:
			cur.hi = max(cur.hi, iv.hi)
		default:
			total += cur.hi - cur.lo
			cur = iv
		}
	}
	if len(clipped) > 0 {
		total += cur.hi - cur.lo
	}
	return total
}

// children returns, for each span, the intervals of its direct children.
func children(spans []span) [][]interval {
	kids := make([][]interval, len(spans))
	for _, s := range spans {
		if s.Parent >= 0 {
			kids[s.Parent] = append(kids[s.Parent], interval{s.Start, s.End})
		}
	}
	return kids
}

// selfTimes returns each span name's total self time: a span's duration
// minus the part of its interval that its direct children cover.
func selfTimes(spans []span) map[string]time.Duration {
	kids := children(spans)
	out := make(map[string]time.Duration)
	for i, s := range spans {
		out[s.Name] += s.End - s.Start - covered(kids[i], s.Start, s.End)
	}
	return out
}

// uncoveredShare returns the mean, over root spans, of the share of the
// root's duration that no child span covers: the part of an operation the
// trace attributes to no layer.
func uncoveredShare(spans []span) float64 {
	kids := children(spans)
	sum, roots := 0.0, 0
	for i, s := range spans {
		if s.Parent >= 0 || s.End <= s.Start {
			continue
		}
		d := s.End - s.Start
		sum += float64(d-covered(kids[i], s.Start, s.End)) / float64(d)
		roots++
	}
	if roots == 0 {
		return 0
	}
	return sum / float64(roots)
}

// writeChromeTrace writes the spans in Chrome trace_event JSON, one track
// per operation, for chrome://tracing or Perfetto.
func writeChromeTrace(path string, spans []span) error {
	type event struct {
		Name string         `json:"name"`
		Ph   string         `json:"ph"`
		Ts   float64        `json:"ts"`
		Dur  float64        `json:"dur"`
		Pid  int            `json:"pid"`
		Tid  int            `json:"tid"`
		Args map[string]int `json:"args"`
	}
	events := make([]event, len(spans))
	for i, s := range spans {
		events[i] = event{Name: s.Name, Ph: "X",
			Ts: float64(s.Start) / 1e3, Dur: float64(s.End-s.Start) / 1e3,
			Pid: 1, Tid: s.Op, Args: map[string]int{"span": i, "parent": s.Parent}}
	}
	data, err := json.Marshal(map[string]any{"traceEvents": events, "displayTimeUnit": "ms"})
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}
