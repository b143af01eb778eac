package serving

import (
	"bufio"
	"encoding/csv"
	"encoding/json"
	"fmt"
	"io"
	"sort"
	"strconv"
	"strings"

	"repro/internal/sparsity"
)

// TraceEntry is one record of a serving trace: a request's arrival tick,
// its stream shape (an offset and length into the binder's token corpus),
// and its SLO class. Traces carry no model state — a TraceBinder
// materializes entries into Requests — so the same file replays against any
// model, corpus, or scheme table.
type TraceEntry struct {
	ID   string `json:"id"`
	Tick int    `json:"tick"`
	// Tokens is the stream length; Start is the offset into the binder's
	// corpus (entries may overlap).
	Tokens int `json:"tokens"`
	Start  int `json:"start,omitempty"`
	// Class/Priority/DeadlineTicks form the request's SLO.
	Class         string `json:"class,omitempty"`
	Priority      int    `json:"priority,omitempty"`
	DeadlineTicks int    `json:"deadline_ticks,omitempty"`
	// Scheme names the sparsity scheme in the binder's table ("" = default).
	Scheme string `json:"scheme,omitempty"`
}

// traceColumns is the CSV header, in order; the first three are required.
var traceColumns = []string{"id", "tick", "tokens", "start", "class", "priority", "deadline_ticks", "scheme"}

// ParseTrace reads a trace from JSON (an array of entries) or CSV (header
// row "id,tick,tokens[,start,class,priority,deadline_ticks,scheme]"),
// sniffing the format from the first non-space byte. Arrival ticks must be
// non-negative and nondecreasing; a violation is a hard error naming the
// offending line (CSV) or entry (JSON), not a silent re-sort.
func ParseTrace(r io.Reader) ([]TraceEntry, error) {
	br := bufio.NewReader(r)
	for {
		b, err := br.Peek(1)
		if err != nil {
			return nil, fmt.Errorf("serving: empty trace: %w", err)
		}
		if b[0] == ' ' || b[0] == '\t' || b[0] == '\n' || b[0] == '\r' {
			br.ReadByte()
			continue
		}
		if b[0] == '[' {
			return parseTraceJSON(br)
		}
		return parseTraceCSV(br)
	}
}

func parseTraceJSON(r io.Reader) ([]TraceEntry, error) {
	var entries []TraceEntry
	dec := json.NewDecoder(r)
	dec.DisallowUnknownFields()
	if err := dec.Decode(&entries); err != nil {
		return nil, fmt.Errorf("serving: JSON trace: %w", err)
	}
	prev := 0
	for i, e := range entries {
		if err := checkTick(e, prev, fmt.Sprintf("entry %d", i+1)); err != nil {
			return nil, err
		}
		prev = e.Tick
	}
	return entries, nil
}

// checkTick rejects a trace record whose arrival tick is negative or runs
// backwards. A file is required to be arrival-sorted: silently reordering
// (or replaying as-is) would let the workload's NextArrival claim a tick
// already in the past, which the engine reports as a stall — a much less
// actionable error than the offending line.
func checkTick(e TraceEntry, prev int, at string) error {
	if e.Tick < 0 {
		return fmt.Errorf("serving: trace %s (id %q): negative arrival tick %d", at, e.ID, e.Tick)
	}
	if e.Tick < prev {
		return fmt.Errorf("serving: trace %s (id %q): arrival tick %d before the preceding entry's %d — traces must be sorted by tick",
			at, e.ID, e.Tick, prev)
	}
	return nil
}

func parseTraceCSV(r io.Reader) ([]TraceEntry, error) {
	cr := csv.NewReader(r)
	cr.TrimLeadingSpace = true
	header, err := cr.Read()
	if err != nil {
		return nil, fmt.Errorf("serving: CSV trace header: %w", err)
	}
	col := make(map[string]int, len(header))
	for i, h := range header {
		name := strings.TrimSpace(h)
		if j, dup := col[name]; dup {
			return nil, fmt.Errorf("serving: CSV trace header names column %q twice (columns %d and %d)", name, j+1, i+1)
		}
		col[name] = i
	}
	for _, req := range traceColumns[:3] {
		if _, ok := col[req]; !ok {
			return nil, fmt.Errorf("serving: CSV trace missing required column %q (header %v)", req, header)
		}
	}
	for name := range col {
		known := false
		for _, c := range traceColumns {
			known = known || c == name
		}
		if !known {
			return nil, fmt.Errorf("serving: CSV trace has unknown column %q", name)
		}
	}
	atoi := func(rec []string, name string, line int) (int, error) {
		i, ok := col[name]
		if !ok || i >= len(rec) || rec[i] == "" {
			return 0, nil
		}
		v, err := strconv.Atoi(strings.TrimSpace(rec[i]))
		if err != nil {
			return 0, fmt.Errorf("serving: CSV trace line %d: column %q: %w", line, name, err)
		}
		return v, nil
	}
	str := func(rec []string, name string) string {
		if i, ok := col[name]; ok && i < len(rec) {
			return strings.TrimSpace(rec[i])
		}
		return ""
	}
	var entries []TraceEntry
	prev := 0
	for line := 2; ; line++ {
		rec, err := cr.Read()
		if err == io.EOF {
			return entries, nil
		}
		if err != nil {
			return nil, fmt.Errorf("serving: CSV trace line %d: %w", line, err)
		}
		e := TraceEntry{ID: str(rec, "id"), Class: str(rec, "class"), Scheme: str(rec, "scheme")}
		for _, f := range []struct {
			name string
			dst  *int
		}{{"tick", &e.Tick}, {"tokens", &e.Tokens}, {"start", &e.Start},
			{"priority", &e.Priority}, {"deadline_ticks", &e.DeadlineTicks}} {
			if *f.dst, err = atoi(rec, f.name, line); err != nil {
				return nil, err
			}
		}
		if err := checkTick(e, prev, fmt.Sprintf("line %d", line)); err != nil {
			return nil, err
		}
		prev = e.Tick
		entries = append(entries, e)
	}
}

// TraceBinder materializes TraceEntry records into Requests.
type TraceBinder struct {
	// Corpus is the token pool entry streams are carved from:
	// Corpus[Start : Start+Tokens].
	Corpus []int
	// Scheme returns a scheme instance for an entry's scheme name (the empty
	// name selects the binder's default). The engine clones schemes at
	// admission, so returning a shared instance is fine.
	Scheme func(name string) (sparsity.Scheme, error)
}

// TraceWorkload binds parsed entries and replays them in tick order (stable
// within a tick, preserving file order). Submission indices follow the
// replay order. An entry with an empty id is named t<replay index>; an id,
// given or generated, that repeats an earlier entry's is an error naming
// both entries.
func TraceWorkload(entries []TraceEntry, b TraceBinder) (Workload, error) {
	if len(entries) == 0 {
		return nil, fmt.Errorf("serving: trace has no entries")
	}
	if b.Scheme == nil {
		return nil, fmt.Errorf("serving: TraceBinder.Scheme is required")
	}
	// order holds file positions in replay order, so errors can name entries
	// the way ParseTrace does.
	order := make([]int, len(entries))
	for i := range order {
		order[i] = i
	}
	sort.SliceStable(order, func(i, j int) bool { return entries[order[i]].Tick < entries[order[j]].Tick })
	reqs := make([]Request, len(entries))
	ticks := make([]int, len(entries))
	named := make(map[string]int, len(entries)) // id → file position
	for i, at := range order {
		e := entries[at]
		if e.Tick < 0 {
			return nil, fmt.Errorf("serving: trace entry %q: negative tick %d", e.ID, e.Tick)
		}
		if e.Tokens <= 0 {
			return nil, fmt.Errorf("serving: trace entry %q: tokens must be positive, got %d", e.ID, e.Tokens)
		}
		// Compared without adding: Start+Tokens can overflow an int.
		if e.Start < 0 || e.Start > len(b.Corpus)-e.Tokens {
			return nil, fmt.Errorf("serving: trace entry %q: %d tokens from start %d outside corpus of %d",
				e.ID, e.Tokens, e.Start, len(b.Corpus))
		}
		scheme, err := b.Scheme(e.Scheme)
		if err != nil {
			return nil, fmt.Errorf("serving: trace entry %q: %w", e.ID, err)
		}
		id := e.ID
		if id == "" {
			id = fmt.Sprintf("t%03d", i)
		}
		if prev, dup := named[id]; dup {
			return nil, fmt.Errorf("serving: trace entries %d and %d both have id %q: ids must be unique within a trace",
				min(prev, at)+1, max(prev, at)+1, id)
		}
		named[id] = at
		reqs[i] = Request{
			ID:     id,
			Scheme: scheme,
			Tokens: b.Corpus[e.Start : e.Start+e.Tokens],
			SLO:    SLO{Class: e.Class, Priority: e.Priority, DeadlineTicks: e.DeadlineTicks},
		}
		ticks[i] = e.Tick
	}
	return &timetable{name: "trace", reqs: reqs, ticks: ticks}, nil
}
