package obs

import (
	"bytes"
	"encoding/json"
	"slices"
	"strings"
	"testing"
)

func TestTrackerTrimsTheTail(t *testing.T) {
	tr := NewTracker(4)
	tr.Observe(0, 10)
	tr.Observe(1, 5)
	if got := tr.Sum(1); got != 15 {
		t.Fatalf("Sum(1) = %d, want 15", got)
	}
	// Window (0, 4]: tick 0 has aged out, tick 1 survives.
	if got := tr.Sum(4); got != 5 {
		t.Fatalf("Sum(4) = %d, want 5 (tick 0 outside the window)", got)
	}
	// Far future: every bucket is stale even though the ring still holds
	// the old sums.
	if got := tr.Sum(100); got != 0 {
		t.Fatalf("Sum(100) = %d, want 0", got)
	}
}

func TestTrackerRingReusesBucketsAcrossWraps(t *testing.T) {
	tr := NewTracker(3)
	tr.Observe(0, 7)
	tr.Observe(3, 2) // same ring index as tick 0: must reset, not add
	if got := tr.Sum(3); got != 2 {
		t.Fatalf("Sum(3) = %d, want 2 (tick 0's bucket must have been reset)", got)
	}
	tr.Observe(3, 2)
	if got := tr.Sum(3); got != 4 {
		t.Fatalf("repeat observations at one tick must accumulate: Sum(3) = %d, want 4", got)
	}
}

func TestTrackerSpanClampsToElapsedTicks(t *testing.T) {
	tr := NewTracker(32)
	if got := tr.Span(3); got != 4 {
		t.Fatalf("Span(3) = %d, want 4", got)
	}
	if got := tr.Span(100); got != 32 {
		t.Fatalf("Span(100) = %d, want 32", got)
	}
}

func TestRecorderCountsFollowKindAndDetail(t *testing.T) {
	r := NewRecorder(Config{Window: 8})
	for _, ev := range []Event{
		{Tick: 0, Slot: -1, Kind: KindArrive, Session: "a"},
		{Tick: 0, Slot: -1, Kind: KindShed, Session: "b"},
		{Tick: 0, Slot: 0, Kind: KindAdmit, Session: "a"},
		{Tick: 0, Slot: 0, Kind: KindGrant, Session: "a", Detail: "share=1"},
		{Tick: 1, Slot: 0, Kind: KindFault, Session: "a", Detail: DetailStep},
		{Tick: 1, Slot: 0, Kind: KindSuspend, Session: "a", Detail: DetailFault},
		{Tick: 1, Slot: 0, Kind: KindRetry, Session: "a", Detail: "attempt=2 backoff=1"},
		{Tick: 2, Slot: 0, Kind: KindResume, Session: "a", Detail: DetailFault},
		{Tick: 3, Slot: -1, Kind: KindStepBatch, Detail: "width=1"},
		{Tick: 4, SubStep: 3, Slot: 0, Kind: KindFinish, Session: "a", Detail: DetailOK},
	} {
		r.Emit(ev)
	}
	c := r.Counts()
	want := Counts{Arrivals: 1, ShedArrivals: 1, Admits: 1, Grants: 1,
		StepFaults: 1, FaultSuspends: 1, Retries: 1, Resumes: 1, StepTicks: 1, FinishedOK: 1}
	if c != want {
		t.Fatalf("Counts = %+v, want %+v", c, want)
	}
	if len(r.Events()) != 10 {
		t.Fatalf("event log holds %d events, want 10", len(r.Events()))
	}
}

func TestSnapshotRatesUseEffectiveWindow(t *testing.T) {
	r := NewRecorder(Config{Window: 16})
	r.ObserveDecode(0, 8)
	r.ObserveDecode(1, 8)
	r.ObserveQueue(0, 2)
	r.ObserveQueue(1, 4)
	s := r.Snapshot(1)
	if s.TokensPerTick != 8 {
		t.Errorf("TokensPerTick = %v, want 8 (16 tokens over 2 elapsed ticks)", s.TokensPerTick)
	}
	if s.MeanQueueDepth != 3 {
		t.Errorf("MeanQueueDepth = %v, want 3", s.MeanQueueDepth)
	}
}

func TestBindRejectsRecorderReuse(t *testing.T) {
	r := NewRecorder(Config{})
	if err := r.Bind(); err != nil {
		t.Fatalf("first Bind: %v", err)
	}
	if err := r.Bind(); err == nil {
		t.Fatal("second Bind succeeded; a recorder must be single-run")
	}
}

func TestFormatRegistryRoundTrips(t *testing.T) {
	for _, name := range FormatNames() {
		got, err := ParseFormat(name)
		if err != nil || got != name {
			t.Errorf("format %q does not round-trip: %v", name, err)
		}
	}
	if _, err := ParseFormat("nope"); err == nil || !strings.Contains(err.Error(), FormatJSONL) {
		t.Errorf("unknown format error does not list known names: %v", err)
	}
}

func TestWriteJSONLIsParseableAndOrdered(t *testing.T) {
	events := []Event{
		{Tick: 0, Slot: -1, Kind: KindArrive, Session: "a", Detail: "default"},
		{Tick: 2, SubStep: 5, Slot: 0, Kind: KindFinish, Session: "a", Detail: DetailOK},
	}
	var buf bytes.Buffer
	if err := WriteJSONL(&buf, events); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimRight(buf.String(), "\n"), "\n")
	if len(lines) != 2 {
		t.Fatalf("wrote %d lines, want 2", len(lines))
	}
	var got struct {
		Tick    int    `json:"tick"`
		SubStep int    `json:"substep"`
		Slot    int    `json:"slot"`
		Kind    string `json:"kind"`
		Session string `json:"session"`
	}
	if err := json.Unmarshal([]byte(lines[1]), &got); err != nil {
		t.Fatal(err)
	}
	if got.Tick != 2 || got.SubStep != 5 || got.Slot != 0 || got.Kind != "finish" || got.Session != "a" {
		t.Fatalf("second line decoded to %+v", got)
	}
}

// Every residency span opens and closes on its session's own track, named
// after the session, whatever slots the session moves through.
func TestChromeTraceBalancesResidencySpans(t *testing.T) {
	events := []Event{
		{Tick: 0, Slot: -1, Kind: KindArrive, Session: "a"},
		{Tick: 0, Slot: 0, Kind: KindAdmit, Session: "a"},
		{Tick: 0, Slot: 1, Kind: KindAdmit, Session: "b"},
		{Tick: 1, Slot: -1, Kind: KindStepBatch, Detail: "width=2"},
		{Tick: 2, Slot: 1, Kind: KindSuspend, Session: "b", Detail: DetailPreempt},
		{Tick: 2, Slot: 1, Kind: KindAdmit, Session: "c"},
		{Tick: 3, SubStep: 4, Slot: 0, Kind: KindFinish, Session: "a", Detail: DetailOK},
		// "a" retired slot 0, so "b" resumes there — a different slot from
		// the one its first span lived on.
		{Tick: 3, Slot: 0, Kind: KindResume, Session: "b", Detail: DetailPreempt},
		{Tick: 4, SubStep: 2, Slot: 0, Kind: KindFinish, Session: "b", Detail: DetailOK},
		{Tick: 4, Slot: 1, Kind: KindFinish, Session: "c", Detail: DetailOK},
		// Compaction: "d" retires, "e" silently moves from slot 1 to slot 0,
		// and "f" is admitted into slot 1 while "e"'s span is still open.
		{Tick: 5, Slot: 0, Kind: KindAdmit, Session: "d"},
		{Tick: 5, Slot: 1, Kind: KindAdmit, Session: "e"},
		{Tick: 6, Slot: 0, Kind: KindFinish, Session: "d", Detail: DetailOK},
		{Tick: 6, Slot: 1, Kind: KindAdmit, Session: "f"},
		{Tick: 7, Slot: 0, Kind: KindFinish, Session: "e", Detail: DetailOK},
		{Tick: 8, Slot: 0, Kind: KindFinish, Session: "f", Detail: DetailOK},
		// A migrant leaving from the queue closes nothing.
		{Tick: 9, Slot: -1, Kind: KindSuspend, Session: "g", Detail: DetailMigrate},
	}
	var buf bytes.Buffer
	if err := WriteChromeTrace(&buf, events); err != nil {
		t.Fatal(err)
	}
	var trace struct {
		TraceEvents []struct {
			Name string         `json:"name"`
			Ph   string         `json:"ph"`
			Pid  int            `json:"pid"`
			Tid  int            `json:"tid"`
			Args map[string]any `json:"args"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &trace); err != nil {
		t.Fatal(err)
	}
	type track struct{ pid, tid int }
	named := make(map[track]string)
	open := make(map[track][]string) // span stack per track
	spans, counters := 0, 0
	for _, te := range trace.TraceEvents {
		at := track{te.Pid, te.Tid}
		switch te.Ph {
		case "M":
			if te.Name == "thread_name" {
				named[at] = te.Args["name"].(string)
			}
		case "B":
			if named[at] != te.Name {
				t.Errorf("B %q on pid %d tid %d, the track of %q", te.Name, te.Pid, te.Tid, named[at])
			}
			if _, ok := te.Args["slot"]; !ok {
				t.Errorf("B %q carries no slot", te.Name)
			}
			open[at] = append(open[at], te.Name)
			spans++
		case "E":
			stack := open[at]
			if len(stack) == 0 || stack[len(stack)-1] != te.Name {
				t.Fatalf("E %q on pid %d tid %d closes span stack %v", te.Name, te.Pid, te.Tid, stack)
			}
			open[at] = stack[:len(stack)-1]
		case "C":
			counters++
		}
	}
	for at, stack := range open {
		if len(stack) > 0 {
			t.Errorf("pid %d tid %d left spans open: %v", at.pid, at.tid, stack)
		}
	}
	if spans != 7 {
		t.Errorf("drew %d residency spans, want 7", spans)
	}
	if counters != 1 {
		t.Errorf("emitted %d batch-width counter events, want 1", counters)
	}
}

// A merged cluster log: each node is its own process, so two nodes' slot 0
// are two tracks, every span closes where it opened — here node 0's session
// finishes first, which on one shared track would close node 1's span — and
// the detector's events are drawn.
func TestChromeTraceSeparatesNodes(t *testing.T) {
	events := MergeEvents(
		recorded(
			Event{Tick: 0, Slot: 0, Kind: KindAdmit, Session: "a"},
			Event{Tick: 1, Slot: 0, Kind: KindFinish, Session: "a", Detail: DetailOK},
			Event{Tick: 3, Slot: -1, Kind: KindConfirm, Detail: DetailDown},
		),
		recorded(
			Event{Tick: 0, Slot: 0, Kind: KindAdmit, Session: "b"},
			Event{Tick: 2, Slot: 0, Kind: KindFinish, Session: "b", Detail: DetailOK},
		),
	)
	var buf bytes.Buffer
	if err := WriteChromeTrace(&buf, events); err != nil {
		t.Fatal(err)
	}
	var trace struct {
		TraceEvents []struct {
			Name string `json:"name"`
			Ph   string `json:"ph"`
			Pid  int    `json:"pid"`
			Tid  int    `json:"tid"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &trace); err != nil {
		t.Fatal(err)
	}
	type track struct{ pid, tid int }
	open := make(map[track][]string) // span stack per track
	began := make(map[string]track)
	confirms := 0
	for _, te := range trace.TraceEvents {
		at := track{te.Pid, te.Tid}
		switch {
		case te.Ph == "B":
			open[at] = append(open[at], te.Name)
			began[te.Name] = at
		case te.Ph == "E":
			stack := open[at]
			if len(stack) == 0 || stack[len(stack)-1] != te.Name {
				t.Fatalf("E %q on pid %d tid %d closes span stack %v", te.Name, te.Pid, te.Tid, stack)
			}
			open[at] = stack[:len(stack)-1]
		case te.Ph == "i" && te.Name == "confirm:"+DetailDown:
			confirms++
			if at != (track{tracePid, 0}) {
				t.Errorf("node 0's confirm drawn on pid %d tid %d, want its control track", te.Pid, te.Tid)
			}
		}
	}
	if began["a"] == began["b"] {
		t.Errorf("two nodes' slot-0 spans share pid %d tid %d", began["a"].pid, began["a"].tid)
	}
	for at, stack := range open {
		if len(stack) > 0 {
			t.Errorf("pid %d tid %d left spans open: %v", at.pid, at.tid, stack)
		}
	}
	if confirms != 1 {
		t.Errorf("drew %d confirm instants, want 1", confirms)
	}
}

// recorded returns a recorder that has emitted events.
func recorded(events ...Event) *Recorder {
	r := NewRecorder(Config{})
	for _, ev := range events {
		r.Emit(ev)
	}
	return r
}

// nodeLog is a log of n events on non-decreasing ticks, every event
// distinguishable by its SubStep.
func nodeLog(n, step int) []Event {
	events := make([]Event, n)
	for i := range events {
		events[i] = Event{Tick: i / step, SubStep: i, Slot: -1, Kind: KindStepBatch}
	}
	return events
}

// The log grows chunk by chunk: Emit allocates one chunk per chunkEvents
// events and copies nothing, and Events returns the emitted log, flattened
// once when it spans chunks.
func TestEmitAllocatesOnlyChunks(t *testing.T) {
	for _, n := range []int{1, chunkEvents, 3*chunkEvents + 1} {
		const runs = 20
		recs := make([]*Recorder, runs+1) // AllocsPerRun adds a warm-up run
		for i := range recs {
			recs[i] = NewRecorder(Config{})
		}
		events, next := nodeLog(n, 5), 0
		allocs := testing.AllocsPerRun(runs, func() {
			r := recs[next]
			next++
			for _, ev := range events {
				r.Emit(ev)
			}
		})
		if limit := float64((n+chunkEvents-1)/chunkEvents + 1); allocs > limit {
			t.Errorf("Emit of %d events allocated %v objects, want at most %v", n, allocs, limit)
		}
		got := recs[0].Events()
		if !slices.Equal(got, events) {
			t.Errorf("Events() after %d emits does not return them in order", n)
		}
		if again := recs[0].Events(); &again[0] != &got[0] {
			t.Errorf("repeated Events() over %d events rebuilt the log", n)
		}
	}
}

// MergeEvents reads every recorder's chunks in place: its result is the
// stable sort of the node-stamped concatenation by (Tick, node), for logs
// of any length, empty ones included.
func TestMergeEventsIsTheStableSortByTickThenNode(t *testing.T) {
	logs := [][]Event{nodeLog(3*chunkEvents+7, 4), nil, nodeLog(chunkEvents, 3), nodeLog(40, 1)}
	recs := make([]*Recorder, len(logs))
	var want []Event
	for n, l := range logs {
		recs[n] = recorded(l...)
		for _, ev := range l {
			ev.Node = n
			want = append(want, ev)
		}
	}
	slices.SortStableFunc(want, func(a, b Event) int { return a.Tick - b.Tick })
	if got := MergeEvents(recs...); !slices.Equal(got, want) {
		t.Fatalf("MergeEvents diverged from the stable sort by (tick, node)")
	}
	if got := MergeEvents(recs[1]); got != nil {
		t.Fatalf("merging one empty log gave %d events, want none", len(got))
	}
}
