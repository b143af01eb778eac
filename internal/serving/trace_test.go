package serving

import (
	"bytes"
	"fmt"
	"strings"
	"testing"

	"repro/internal/sparsity"
)

func testBinder(t *testing.T) TraceBinder {
	t.Helper()
	return TraceBinder{
		Corpus: zoo.tokens,
		Scheme: func(name string) (sparsity.Scheme, error) {
			switch name {
			case "", "dip":
				return sparsity.NewDIP(0.5), nil
			case "dipca":
				return sparsity.NewDIPCA(0.5, 0.2), nil
			}
			return nil, fmt.Errorf("unknown scheme %q", name)
		},
	}
}

func TestParseTraceJSONAndCSVAgree(t *testing.T) {
	jsonSrc := `[
		{"id": "a", "tick": 0, "tokens": 32, "class": "interactive", "priority": 2, "deadline_ticks": 40},
		{"id": "b", "tick": 3, "tokens": 64, "start": 256, "scheme": "dipca"}
	]`
	csvSrc := "id,tick,tokens,start,class,priority,deadline_ticks,scheme\n" +
		"a,0,32,0,interactive,2,40,\n" +
		"b,3,64,256,,,,dipca\n"
	je := must(ParseTrace(strings.NewReader(jsonSrc)))(t)
	ce := must(ParseTrace(strings.NewReader(csvSrc)))(t)
	if len(je) != 2 || len(ce) != 2 {
		t.Fatalf("entry counts: json %d csv %d", len(je), len(ce))
	}
	for i := range je {
		if je[i] != ce[i] {
			t.Fatalf("entry %d differs between formats:\njson %+v\ncsv  %+v", i, je[i], ce[i])
		}
	}
	want := TraceEntry{ID: "a", Tick: 0, Tokens: 32, Class: "interactive", Priority: 2, DeadlineTicks: 40}
	if je[0] != want {
		t.Fatalf("parsed %+v, want %+v", je[0], want)
	}
}

func TestParseTraceRejections(t *testing.T) {
	for name, src := range map[string]string{
		"empty":          "",
		"bad json":       `[{"id":}]`,
		"unknown field":  `[{"id": "a", "tick": 0, "tokens": 1, "wat": 2}]`,
		"missing column": "id,tick\nx,0\n",
		"unknown column": "id,tick,tokens,wat\nx,0,1,2\n",
		"column twice":   "id,tick,tokens,tick\na,5,32,0\n",
		"non-numeric":    "id,tick,tokens\nx,zero,1\n",
		"ragged csv":     "id,tick,tokens\nx,0\n",
		"negative tick":  `[{"id": "a", "tick": -3, "tokens": 1}]`,
		"unsorted json":  `[{"id": "a", "tick": 5, "tokens": 1}, {"id": "b", "tick": 2, "tokens": 1}]`,
		"unsorted csv":   "id,tick,tokens\na,5,1\nb,2,1\n",
	} {
		if _, err := ParseTrace(strings.NewReader(src)); err == nil {
			t.Fatalf("%s: expected parse error", name)
		}
	}
	// Ordering violations must name the offending record, so a bad line in
	// a million-entry trace is findable.
	_, err := ParseTrace(strings.NewReader("id,tick,tokens\na,5,1\nb,2,1\n"))
	if err == nil || !strings.Contains(err.Error(), "line 3") || !strings.Contains(err.Error(), `"b"`) {
		t.Fatalf("unsorted CSV error should name line 3 and id b: %v", err)
	}
	_, err = ParseTrace(strings.NewReader(`[{"id": "a", "tick": 1, "tokens": 1}, {"id": "b", "tick": -2, "tokens": 1}]`))
	if err == nil || !strings.Contains(err.Error(), "entry 2") || !strings.Contains(err.Error(), "negative") {
		t.Fatalf("negative JSON tick error should name entry 2: %v", err)
	}
}

// A replayed trace drives the engine end to end: arrivals land on the
// file's ticks (in order, stable within a tick), SLO classes come through,
// and binding errors are loud.
func TestTraceWorkloadReplay(t *testing.T) {
	trained(t)
	rep := run(t, Config{System: sysCfg(), Arb: ArbFairShare, MaxActive: 2, Quantum: 8, Seed: 4}, trace(t,
		TraceEntry{ID: "late", Tick: 9, Tokens: 32, Start: 0, Class: "batch"},
		TraceEntry{ID: "first", Tick: 0, Tokens: 32, Start: 256, Class: "interactive", Priority: 1, DeadlineTicks: 400},
		TraceEntry{ID: "second", Tick: 0, Tokens: 32, Start: 512, Scheme: "dipca"},
	))
	byID := map[string]SessionMetrics{}
	for _, sm := range rep.Sessions {
		byID[sm.ID] = sm
	}
	if byID["first"].ArriveTick != 0 || byID["second"].ArriveTick != 0 || byID["late"].ArriveTick != 9 {
		t.Fatalf("arrival ticks wrong: %+v", rep.Sessions)
	}
	// Stable sort: within tick 0 the file order (first, second) is kept as
	// submission order.
	if byID["first"].Index != 0 || byID["second"].Index != 1 || byID["late"].Index != 2 {
		t.Fatalf("submission order not stable by tick: %+v", rep.Sessions)
	}
	if byID["first"].SLO != (SLO{Class: "interactive", Priority: 1, DeadlineTicks: 400}) {
		t.Fatalf("SLO lost in binding: %+v", byID["first"].SLO)
	}
	if !byID["first"].Attained {
		t.Fatalf("generous traced deadline missed: %+v", byID["first"])
	}

	bad := []struct {
		name    string
		entries []TraceEntry
		binder  TraceBinder
	}{
		{"no entries", nil, testBinder(t)},
		{"no binder scheme", []TraceEntry{{Tokens: 1}}, TraceBinder{Corpus: zoo.tokens}},
		{"negative tick", []TraceEntry{{Tick: -1, Tokens: 1}}, testBinder(t)},
		{"zero tokens", []TraceEntry{{Tick: 0, Tokens: 0}}, testBinder(t)},
		{"outside corpus", []TraceEntry{{Tick: 0, Tokens: 1, Start: len(zoo.tokens)}}, testBinder(t)},
		{"unknown scheme", []TraceEntry{{Tick: 0, Tokens: 1, Scheme: "wat"}}, testBinder(t)},
	}
	for _, tc := range bad {
		if _, err := TraceWorkload(tc.entries, tc.binder); err == nil {
			t.Fatalf("%s: expected error", tc.name)
		}
	}
	// A start so large that start+tokens wraps negative must be rejected by
	// name, not pass the bounds check and panic slicing the corpus.
	wrap := must(ParseTrace(strings.NewReader("id,tick,tokens,start\nx,0,1,9223372036854775807\n")))(t)
	if _, err := TraceWorkload(wrap, testBinder(t)); err == nil || !strings.Contains(err.Error(), `trace entry "x"`) ||
		!strings.Contains(err.Error(), "outside corpus") {
		t.Fatalf("overflowing start should be a named error, got %v", err)
	}
}

// A buggy workload (out-of-range or duplicate indices) must fail loudly,
// not corrupt the run.
type brokenWorkload struct {
	reqs []Request
	emit [][]int
	tick int
}

func (b *brokenWorkload) Name() string        { return "broken" }
func (b *brokenWorkload) Requests() []Request { return b.reqs }
func (b *brokenWorkload) Done() bool          { return b.tick >= len(b.emit) }

// NextArrival lies (a past tick, never delivered) — the engine must detect
// the stall instead of fast-forwarding in place forever.
func (b *brokenWorkload) NextArrival() (int, bool) { return 0, true }
func (b *brokenWorkload) Next(int, []Finished) []int {
	if b.tick < len(b.emit) {
		out := b.emit[b.tick]
		b.tick++
		return out
	}
	return nil
}

func TestEngineRejectsBrokenWorkloads(t *testing.T) {
	trained(t)
	reqs := requests(t, 2,
		func(int) sparsity.Scheme { return sparsity.NewDIP(0.5) },
		func(int) int { return 1 })
	for name, emit := range map[string][][]int{
		"out of range": {{0}, {5}},
		"duplicate":    {{0}, {0}, {1}},
		"stalled":      {{}, {}}, // not done, nothing active, no credible next arrival
	} {
		e := must(NewEngine(zoo.m, Config{System: sysCfg(), Seed: 1}, &brokenWorkload{reqs: reqs, emit: emit}))(t)
		if _, err := e.Run(); err == nil {
			t.Fatalf("%s: expected run error", name)
		}
	}
}

// Sparse traces must not cost one engine iteration per idle tick: a
// million-tick arrival gap fast-forwards the simulated clock in one jump,
// and the reported timeline still reflects the gap.
func TestEngineFastForwardsSparseGaps(t *testing.T) {
	trained(t)
	const gap = 50_000_000
	rep := run(t, Config{System: sysCfg(), Arb: ArbFairShare, MaxActive: 1, Quantum: 8, Seed: 1}, trace(t,
		TraceEntry{ID: "early", Tick: 0, Tokens: 32, Start: 0},
		TraceEntry{ID: "late", Tick: gap, Tokens: 32, Start: 256},
	))
	if rep.Sessions[1].ArriveTick != gap || rep.Sessions[1].FinishTick <= gap {
		t.Fatalf("late session timeline wrong: %+v", rep.Sessions[1])
	}
	if rep.Ticks <= gap {
		t.Fatalf("tick clock did not advance past the gap: %d", rep.Ticks)
	}
}

// fuzzCorpus is a fixed 4096-token corpus whose token at position i is i, so
// a bound stream's values say where in the corpus it was carved from.
var fuzzCorpus = func() []int {
	c := make([]int, 4096)
	for i := range c {
		c[i] = i
	}
	return c
}()

// denseBinder binds every entry to the dense scheme over fuzzCorpus; it
// needs no trained model.
func denseBinder() TraceBinder {
	return TraceBinder{
		Corpus: fuzzCorpus,
		Scheme: func(string) (sparsity.Scheme, error) { return sparsity.Dense{}, nil },
	}
}

// Two entries may not share an id, given or generated: the event log, the
// Chrome trace's per-session tracks and the cluster's tenant key all key on
// it. The error names both entries by file position.
func TestTraceWorkloadRejectsRepeatedIDs(t *testing.T) {
	for name, src := range map[string]string{
		"generated, then given": `[{"tick":0,"tokens":32},{"id":"t000","tick":0,"tokens":64,"start":256}]`,
		"given, then generated": `[{"id":"t001","tick":0,"tokens":32},{"tick":0,"tokens":32}]`,
		"given twice":           "id,tick,tokens\na,0,8\na,4,8\n",
	} {
		entries, err := ParseTrace(strings.NewReader(src))
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		_, err = TraceWorkload(entries, denseBinder())
		if err == nil || !strings.Contains(err.Error(), "entries 1 and 2") {
			t.Errorf("%s: want an error naming entries 1 and 2, got %v", name, err)
		}
	}
}

// ParseTrace and TraceWorkload on generated bytes: neither panics, and an
// accepted trace replays one uniquely named request per entry, each stream
// inside the corpus, at nondecreasing arrival ticks.
func FuzzParseTrace(f *testing.F) {
	f.Add([]byte(`[{"tick":0,"tokens":32},{"id":"t000","tick":0,"tokens":64,"start":256}]`))
	f.Add([]byte("id,tick,tokens,start\nx,0,1,9223372036854775807\n"))
	f.Add([]byte("id,tick,tokens,tick\na,5,32,0\n"))
	f.Add([]byte("id,tick,tokens,start,class,priority,deadline_ticks,scheme\na,0,32,0,interactive,2,40,\nb,3,64,256,,,,dense\n"))
	f.Add([]byte(`[{"id":"a","tick":0,"tokens":32,"class":"interactive","priority":2,"deadline_ticks":40},{"id":"b","tick":3,"tokens":64,"start":256}]`))
	f.Fuzz(func(t *testing.T, data []byte) {
		entries, err := ParseTrace(bytes.NewReader(data))
		if err != nil {
			return
		}
		w, err := TraceWorkload(entries, denseBinder())
		if err != nil {
			return
		}
		reqs := w.Requests()
		if len(reqs) != len(entries) {
			t.Fatalf("%d entries bound to %d requests", len(entries), len(reqs))
		}
		ids := make(map[string]bool, len(reqs))
		for i, r := range reqs {
			if ids[r.ID] {
				t.Fatalf("request %d repeats id %q", i, r.ID)
			}
			ids[r.ID] = true
			n := len(r.Tokens)
			if n == 0 || r.Tokens[0] < 0 || r.Tokens[n-1] != r.Tokens[0]+n-1 || r.Tokens[n-1] >= len(fuzzCorpus) {
				t.Fatalf("request %q: %d tokens not a corpus stream", r.ID, n)
			}
		}
		prev, delivered := 0, 0
		for !w.Done() {
			tick, ok := w.NextArrival()
			if !ok || tick < prev {
				t.Fatalf("next arrival %d (ok=%v) after tick %d with %d of %d delivered", tick, ok, prev, delivered, len(reqs))
			}
			got := w.Next(tick, nil)
			if len(got) == 0 {
				t.Fatalf("nothing arrives at announced tick %d", tick)
			}
			delivered += len(got)
			prev = tick
		}
		if delivered != len(reqs) {
			t.Fatalf("replay delivered %d of %d requests", delivered, len(reqs))
		}
	})
}
