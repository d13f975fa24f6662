package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"sort"
	"time"
)

// span is one timed interval at a layer boundary. Parent is the id of the
// span that caused it (−1 for a workload's root); spans of one workload
// share its name as identifier. Counts are taken at the same boundary, so a
// ratio such as ns per message is measured where the work happens.
type span struct {
	ID       int
	Parent   int
	Name     string
	Workload string
	Start    time.Duration // since the recorder's origin
	End      time.Duration
	Counts   map[string]float64
}

func (s *span) dur() time.Duration { return s.End - s.Start }

// spanRecorder keeps spans in memory until the benchmark ends. A nil
// recorder records nothing, so the untraced pass runs the same code with
// tracing off.
type spanRecorder struct {
	origin time.Time
	spans  []span
}

func newSpanRecorder() *spanRecorder { return &spanRecorder{origin: time.Now()} }

// begin opens a span under parent and returns its id (−1 on a nil recorder).
func (r *spanRecorder) begin(workload, name string, parent int) int {
	if r == nil {
		return -1
	}
	id := len(r.spans)
	r.spans = append(r.spans, span{ID: id, Parent: parent, Name: name, Workload: workload, Start: time.Since(r.origin), End: -1})
	return id
}

// end closes span id and returns its duration.
func (r *spanRecorder) end(id int) time.Duration {
	if r == nil {
		return 0
	}
	s := &r.spans[id]
	s.End = time.Since(r.origin)
	return s.dur()
}

// count attaches a counter to span id.
func (r *spanRecorder) count(id int, key string, v float64) {
	if r == nil {
		return
	}
	s := &r.spans[id]
	if s.Counts == nil {
		s.Counts = map[string]float64{}
	}
	s.Counts[key] = v
}

// selfTime is span id's duration minus the part of its interval that its
// direct children cover. Children are clipped to the parent and overlapping
// children are counted once. A child is always opened after its parent, so
// only later spans are looked at.
func (r *spanRecorder) selfTime(id int) time.Duration {
	p := r.spans[id]
	type iv struct{ lo, hi time.Duration }
	var kids []iv
	for _, c := range r.spans[id+1:] {
		if c.Parent != id {
			continue
		}
		lo, hi := c.Start, c.End
		if lo < p.Start {
			lo = p.Start
		}
		if hi > p.End {
			hi = p.End
		}
		if hi > lo {
			kids = append(kids, iv{lo, hi})
		}
	}
	sort.Slice(kids, func(i, j int) bool { return kids[i].lo < kids[j].lo })
	covered := time.Duration(0)
	edge := p.Start
	for _, k := range kids {
		if k.lo > edge {
			edge = k.lo
		}
		if k.hi > edge {
			covered += k.hi - edge
			edge = k.hi
		}
	}
	return p.dur() - covered
}

// writeChromeTrace writes the spans as Chrome trace-event JSON ("X"
// complete events, microseconds), one thread track per workload, with the
// parent id, self time and counts in args.
func (r *spanRecorder) writeChromeTrace(w io.Writer, manifest any) error {
	bw := bufio.NewWriter(w)
	mj, err := json.Marshal(manifest)
	if err != nil {
		return err
	}
	fmt.Fprintf(bw, "{\"displayTimeUnit\":\"ms\",\"otherData\":%s,\"traceEvents\":[", mj)
	tids := map[string]int{}
	first := true
	emit := func(v any) error {
		b, err := json.Marshal(v)
		if err != nil {
			return err
		}
		if !first {
			bw.WriteByte(',')
		}
		first = false
		bw.WriteByte('\n')
		bw.Write(b)
		return nil
	}
	for _, s := range r.spans {
		tid, ok := tids[s.Workload]
		if !ok {
			tid = len(tids) + 1
			tids[s.Workload] = tid
			if err := emit(map[string]any{"ph": "M", "pid": 1, "tid": tid, "name": "thread_name", "args": map[string]any{"name": s.Workload}}); err != nil {
				return err
			}
		}
		args := map[string]any{"id": s.ID, "parent": s.Parent, "self_us": float64(r.selfTime(s.ID)) / 1e3}
		for k, v := range s.Counts {
			args[k] = v
		}
		ev := map[string]any{
			"ph": "X", "pid": 1, "tid": tid, "name": s.Name, "cat": s.Workload,
			"ts": float64(s.Start) / 1e3, "dur": float64(s.dur()) / 1e3, "args": args,
		}
		if err := emit(ev); err != nil {
			return err
		}
	}
	fmt.Fprintf(bw, "\n]}\n")
	return bw.Flush()
}
