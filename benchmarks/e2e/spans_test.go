package main

import (
	"bytes"
	"encoding/json"
	"testing"
	"time"
)

// handSpans builds a recorder with fixed intervals (milliseconds):
//
//	0 workload  [0,100]
//	1   setup   [10,60]   child of 0
//	2     part  [10,40]   child of 1
//	3     lay   [30,55]   child of 1, overlaps part by 10
//	4   solve   [70,120]  child of 0, runs past its parent
//	5     verify[80,90]   child of 4
func handSpans() *spanRecorder {
	ms := func(v int) time.Duration { return time.Duration(v) * time.Millisecond }
	mk := func(id, parent int, name string, lo, hi int) span {
		return span{ID: id, Parent: parent, Name: name, Workload: "w", Start: ms(lo), End: ms(hi)}
	}
	return &spanRecorder{spans: []span{
		mk(0, -1, "workload", 0, 100),
		mk(1, 0, "setup", 10, 60),
		mk(2, 1, "part", 10, 40),
		mk(3, 1, "lay", 30, 55),
		mk(4, 0, "solve", 70, 120),
		mk(5, 4, "verify", 80, 90),
	}}
}

func TestSelfTime(t *testing.T) {
	r := handSpans()
	for id, want := range map[int]int{
		0: 100 - 50 - 30, // children clipped to the parent: setup 50, solve [70,100] 30
		1: 50 - 45,       // part ∪ lay = [10,55], the overlap counted once
		2: 30,            // a leaf's self time is its duration
		4: 50 - 10,       // grandchildren never reach the grandparent directly
		5: 10,
	} {
		if got := r.selfTime(id); got != time.Duration(want)*time.Millisecond {
			t.Errorf("selfTime(%s) = %v, want %d ms", r.spans[id].Name, got, want)
		}
	}
}

func TestRecorderNesting(t *testing.T) {
	r := newSpanRecorder()
	root := r.begin("w", "workload", -1)
	a := r.begin("w", "a", root)
	b := r.begin("w", "b", a)
	r.count(b, "msgs", 7)
	r.end(b)
	r.end(a)
	r.end(root)
	if r.spans[b].Parent != a || r.spans[a].Parent != root || r.spans[root].Parent != -1 {
		t.Fatalf("parents: %+v", r.spans)
	}
	for _, s := range r.spans {
		if s.End < s.Start {
			t.Errorf("span %s ends before it starts", s.Name)
		}
	}
	if r.spans[b].Start < r.spans[a].Start || r.spans[b].End > r.spans[a].End {
		t.Error("child is not inside its parent")
	}
	if r.selfTime(a) != r.spans[a].dur()-r.spans[b].dur() {
		t.Error("self time is not duration minus child")
	}
	if r.spans[b].Counts["msgs"] != 7 {
		t.Error("count lost")
	}

	// A nil recorder is tracing off: every call is a no-op.
	var off *spanRecorder
	id := off.begin("w", "x", -1)
	off.count(id, "k", 1)
	if id != -1 || off.end(id) != 0 {
		t.Error("nil recorder recorded something")
	}
}

func TestChromeTrace(t *testing.T) {
	r := handSpans()
	r.spans[5].Counts = map[string]float64{"msgs": 12}
	var buf bytes.Buffer
	if err := r.writeChromeTrace(&buf, map[string]any{"seed": 1}); err != nil {
		t.Fatal(err)
	}
	var doc struct {
		OtherData   map[string]any   `json:"otherData"`
		TraceEvents []map[string]any `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatalf("trace is not JSON: %v\n%s", err, buf.String())
	}
	if doc.OtherData["seed"] != 1.0 {
		t.Errorf("manifest not stamped: %v", doc.OtherData)
	}
	var complete int
	for _, ev := range doc.TraceEvents {
		if ev["ph"] != "X" {
			continue
		}
		complete++
		if ev["name"] == "verify" {
			args := ev["args"].(map[string]any)
			if args["parent"] != 4.0 || args["msgs"] != 12.0 || ev["ts"] != 80000.0 || ev["dur"] != 10000.0 {
				t.Errorf("verify event: %v", ev)
			}
		}
	}
	if complete != len(r.spans) {
		t.Errorf("%d complete events for %d spans", complete, len(r.spans))
	}
}
