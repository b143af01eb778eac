package obs

import (
	"encoding/json"
	"fmt"
	"io"
	"strconv"
	"strings"
)

// Exporter format registry — the names dipbench's -events-format accepts.
const (
	// FormatJSONL writes one JSON object per event, in emission order —
	// grep/jq-friendly, and byte-stable for a fixed seed (the golden-file
	// tests pin exact bytes).
	FormatJSONL = "jsonl"
	// FormatChrome writes Chrome trace-event JSON loadable in Perfetto or
	// chrome://tracing: one track per session with spans for its slot
	// residency and instant markers for its arrival, faults, preemptions and
	// retries, plus a control track with the batch-width counter.
	FormatChrome = "chrome"
)

// FormatNames lists the registered exporter formats.
func FormatNames() []string { return []string{FormatJSONL, FormatChrome} }

// ParseFormat validates an exporter-format name, echoing the registry in
// the error like the serving parsers do.
func ParseFormat(name string) (string, error) {
	for _, f := range FormatNames() {
		if name == f {
			return f, nil
		}
	}
	return "", fmt.Errorf("obs: unknown event-log format %q (known: %v)", name, FormatNames())
}

// FormatExt returns the file extension (with dot) conventionally used for
// a format's output.
func FormatExt(format string) string {
	if format == FormatChrome {
		return ".json"
	}
	return ".jsonl"
}

// Export writes the event log in the named format.
func Export(w io.Writer, format string, events []Event) error {
	f, err := ParseFormat(format)
	if err != nil {
		return err
	}
	if f == FormatChrome {
		return WriteChromeTrace(w, events)
	}
	return WriteJSONL(w, events)
}

// WriteJSONL writes one JSON object per line in emission order. Every
// field is an integer or a registry string, so for a fixed seed the bytes
// are identical across platforms, worker counts, and decode paths. The
// lines are exactly what encoding/json makes of an Event (field order and
// omitempty rules from its tags), built without reflection in one reused
// buffer; an out-of-range Kind is json.Marshal's error.
func WriteJSONL(w io.Writer, events []Event) error {
	buf := make([]byte, 0, jsonlFlush+256)
	for i := range events {
		ev := &events[i]
		if ev.Kind < 0 || ev.Kind >= numKinds {
			_, err := json.Marshal(ev)
			return err
		}
		buf = append(buf, `{"tick":`...)
		buf = strconv.AppendInt(buf, int64(ev.Tick), 10)
		if ev.SubStep != 0 {
			buf = append(buf, `,"substep":`...)
			buf = strconv.AppendInt(buf, int64(ev.SubStep), 10)
		}
		if ev.Node != 0 {
			buf = append(buf, `,"node":`...)
			buf = strconv.AppendInt(buf, int64(ev.Node), 10)
		}
		buf = append(buf, `,"slot":`...)
		buf = strconv.AppendInt(buf, int64(ev.Slot), 10)
		buf = append(buf, `,"kind":"`...)
		buf = append(buf, kindNames[ev.Kind]...)
		buf = append(buf, '"')
		if ev.Session != "" {
			buf = appendJSONString(append(buf, `,"session":`...), ev.Session)
		}
		if ev.Detail != "" {
			buf = appendJSONString(append(buf, `,"detail":`...), ev.Detail)
		}
		buf = append(buf, "}\n"...)
		if len(buf) >= jsonlFlush {
			if _, err := w.Write(buf); err != nil {
				return err
			}
			buf = buf[:0]
		}
	}
	if len(buf) == 0 {
		return nil
	}
	_, err := w.Write(buf)
	return err
}

// jsonlFlush is the buffered byte count at which WriteJSONL writes through.
const jsonlFlush = 4096

// appendJSONString appends s as a JSON string. Printable ASCII that
// encoding/json writes verbatim (everything but '"', '\\' and the HTML
// characters '<', '>', '&') is copied as is; any other string is
// json.Marshal's, so the bytes match encoding/json by construction.
func appendJSONString(buf []byte, s string) []byte {
	for i := 0; i < len(s); i++ {
		if c := s[i]; c < 0x20 || c > 0x7e || c == '"' || c == '\\' || c == '<' || c == '>' || c == '&' {
			quoted, _ := json.Marshal(s) // a string always marshals
			return append(buf, quoted...)
		}
	}
	buf = append(buf, '"')
	buf = append(buf, s...)
	return append(buf, '"')
}

// traceEvent is one Chrome trace-event record (the subset of the spec the
// exporter uses: B/E duration pairs, i instants, C counters, M metadata).
type traceEvent struct {
	Name string         `json:"name"`
	Ph   string         `json:"ph"`
	Ts   int64          `json:"ts"`
	Pid  int            `json:"pid"`
	Tid  int            `json:"tid"`
	S    string         `json:"s,omitempty"`
	Args map[string]any `json:"args,omitempty"`
}

// chromeTrace is the JSON-object container format; displayTimeUnit keeps
// the viewer's axis readable (1 simulated tick = 1 ms on screen).
type chromeTrace struct {
	TraceEvents     []traceEvent `json:"traceEvents"`
	DisplayTimeUnit string       `json:"displayTimeUnit"`
}

const tracePid = 1

// traceTs maps a simulated instant to microseconds for the viewer: one
// tick spans 1000 µs, with sub-quantum finish offsets nudging events
// inside it so a mid-tick drain renders mid-tick.
func traceTs(tick, subStep int) int64 {
	return int64(tick)*1000 + int64(subStep)
}

// WriteChromeTrace renders the event log as Chrome trace-event JSON. A
// merged cluster log gets one process per node (pid tracePid+Node). On each
// node tid 0 is the engine's control track (batch-width counter and the
// failure-detector instants), and every session has a track of its own,
// named after it: tid 1 + its order of first appearance on that node. A
// session's residency is a span on its track from its admit/resume to its
// suspend/finish, so spans never cross however slots compact; the slot is in
// each event's args. A migrant's suspend is emitted with slot -1 by the node
// it leaves while parked in the queue, and closes nothing.
func WriteChromeTrace(w io.Writer, events []Event) error {
	out := chromeTrace{DisplayTimeUnit: "ms"}
	add := func(node int, te traceEvent) {
		te.Pid = tracePid + node
		out.TraceEvents = append(out.TraceEvents, te)
	}
	nodes := 1
	for _, ev := range events {
		nodes = max(nodes, ev.Node+1)
	}
	tids := make([]map[string]int, nodes) // node → session → track
	for n := range tids {
		name := "serving engine"
		if nodes > 1 {
			name = "node " + strconv.Itoa(n)
		}
		add(n, traceEvent{Name: "process_name", Ph: "M", Args: map[string]any{"name": name}})
		add(n, traceEvent{Name: "thread_name", Ph: "M", Tid: 0, Args: map[string]any{"name": "engine"}})
		tids[n] = make(map[string]int)
	}
	for _, ev := range events {
		ts := traceTs(ev.Tick, ev.SubStep)
		if ev.Kind == KindStepBatch {
			add(ev.Node, traceEvent{Name: "batch width", Ph: "C", Ts: ts, Tid: 0,
				Args: map[string]any{"width": detailInt(ev.Detail, "width=")}})
			continue
		}
		if ev.Kind == KindCommit {
			continue
		}
		instant := traceEvent{Name: ev.Kind.String() + ":" + ev.Detail, Ph: "i", Ts: ts, S: "t"}
		if ev.Session == "" {
			add(ev.Node, instant) // a detector event: the node's control track
			continue
		}
		tid, ok := tids[ev.Node][ev.Session]
		if !ok {
			tid = len(tids[ev.Node]) + 1
			tids[ev.Node][ev.Session] = tid
			add(ev.Node, traceEvent{Name: "thread_name", Ph: "M", Tid: tid, Args: map[string]any{"name": ev.Session}})
		}
		slot := map[string]any{"slot": ev.Slot}
		switch ev.Kind {
		case KindAdmit, KindResume:
			add(ev.Node, traceEvent{Name: ev.Session, Ph: "B", Ts: ts, Tid: tid,
				Args: map[string]any{"kind": ev.Kind.String(), "detail": ev.Detail, "slot": ev.Slot}})
		default:
			instant.Tid, instant.Args = tid, slot
			add(ev.Node, instant)
			if (ev.Kind == KindSuspend || ev.Kind == KindFinish) && ev.Slot >= 0 {
				add(ev.Node, traceEvent{Name: ev.Session, Ph: "E", Ts: ts, Tid: tid, Args: slot})
			}
		}
	}
	enc := json.NewEncoder(w)
	return enc.Encode(out)
}

// detailInt extracts the integer payload of a "key=N" detail (0 if absent
// or malformed — the viewer shows a flat counter rather than erroring).
func detailInt(detail, prefix string) int {
	v, ok := strings.CutPrefix(detail, prefix)
	if !ok {
		return 0
	}
	n, err := strconv.Atoi(v)
	if err != nil {
		return 0
	}
	return n
}
