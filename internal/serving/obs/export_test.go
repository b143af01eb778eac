package obs

import (
	"bufio"
	"bytes"
	"encoding/json"
	"io"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"
)

// refWriteJSONL is the encoder WriteJSONL replaced, kept as its oracle:
// one json.Marshal per event.
func refWriteJSONL(w io.Writer, events []Event) error {
	bw := bufio.NewWriter(w)
	for _, ev := range events {
		data, err := json.Marshal(ev)
		if err != nil {
			return err
		}
		if _, err := bw.Write(data); err != nil {
			return err
		}
		if err := bw.WriteByte('\n'); err != nil {
			return err
		}
	}
	return bw.Flush()
}

// FuzzWriteJSONL holds WriteJSONL to refWriteJSONL on generated events:
// the same error (or none) and, without one, the same bytes. Each input is
// an event and its mirror (ints negated, strings swapped), repeated so that
// long logs cross the write-through threshold. The corpus is the golden
// event log plus the omitempty, out-of-range-kind and string-escaping edge
// cases.
func FuzzWriteJSONL(f *testing.F) {
	golden, err := os.ReadFile(filepath.Join("..", "testdata", "events.golden"))
	if err != nil {
		f.Fatal(err)
	}
	for _, line := range strings.Split(strings.TrimSpace(string(golden)), "\n") {
		var ev struct {
			Tick, SubStep, Node, Slot int
			Kind, Session, Detail     string
		}
		if err := json.Unmarshal([]byte(line), &ev); err != nil {
			f.Fatal(err)
		}
		f.Add(ev.Tick, ev.SubStep, ev.Node, ev.Slot, slices.Index(kindNames[:], ev.Kind), ev.Session, ev.Detail, uint8(0))
	}
	f.Add(0, 0, 0, 0, 0, "", "", uint8(1))
	f.Add(-1, -7, -2, -1, int(numKinds), "s", "d", uint8(0))
	f.Add(3, 1, 1, 2, -1, "s", "d", uint8(0))
	f.Add(1<<40, 0, 5, -1<<40, int(KindStrand), `q"b\s`, "<a&b>", uint8(200))
	f.Add(7, 0, 0, 0, int(KindFault), "ctl\x00\x1f\x7f", "line para ", uint8(3))
	f.Add(7, 0, 0, 0, int(KindFinish), "bad\xffutf8\xc3", "é😀", uint8(40))
	f.Fuzz(func(t *testing.T, tick, subStep, node, slot, kind int, session, detail string, reps uint8) {
		ev := Event{Tick: tick, SubStep: subStep, Node: node, Slot: slot,
			Kind: Kind(kind % (int(numKinds) + 2)), Session: session, Detail: detail}
		mirror := Event{Tick: -tick, SubStep: -subStep, Node: -node, Slot: -slot,
			Kind: ev.Kind, Session: detail, Detail: session}
		events := []Event{ev}
		for range reps {
			events = append(events, mirror, ev)
		}
		var got, want bytes.Buffer
		gotErr, wantErr := WriteJSONL(&got, events), refWriteJSONL(&want, events)
		if (gotErr == nil) != (wantErr == nil) || gotErr != nil && gotErr.Error() != wantErr.Error() {
			t.Fatalf("WriteJSONL error %v, json.Marshal's %v", gotErr, wantErr)
		}
		if gotErr == nil && !bytes.Equal(got.Bytes(), want.Bytes()) {
			t.Fatalf("WriteJSONL wrote\n%s\njson.Marshal wrote\n%s", got.Bytes(), want.Bytes())
		}
	})
}

// The encoder's only allocations are its line buffer: a log a hundred
// times longer costs the same number of objects.
func TestWriteJSONLAllocsDoNotGrowWithTheLog(t *testing.T) {
	log := func(n int) []Event {
		events := make([]Event, n)
		for i := range events {
			events[i] = Event{Tick: i / 7, SubStep: i % 3, Node: i % 2, Slot: i%9 - 1,
				Kind: Kind(i % int(numKinds)), Session: "t042", Detail: DetailOK}
		}
		return events
	}
	short, long := log(100), log(10000)
	allocs := func(events []Event) float64 {
		return testing.AllocsPerRun(10, func() {
			if err := WriteJSONL(io.Discard, events); err != nil {
				t.Fatal(err)
			}
		})
	}
	if s, l := allocs(short), allocs(long); s != l {
		t.Errorf("WriteJSONL allocated %v objects for 100 events and %v for 10 000", s, l)
	}
}
