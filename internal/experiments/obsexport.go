package experiments

import (
	"fmt"
	"os"
	"path/filepath"

	"repro/internal/serving/obs"
)

// obsTracing reports whether the lab's flags ask the serving scenarios to
// attach an event recorder (either to export per-cell logs, or just to
// surface the windowed-telemetry snapshot on each report).
func (l *Lab) obsTracing() bool { return l.Serve.Events != "" || l.Serve.ObsWindow > 0 }

// obsRecorder builds a fresh recorder for one grid cell. Recorders are
// single-run (Bind rejects reuse), so every engine gets its own. Tracing is
// always on for grid cells — every cell's report gets reconciled against
// its event log, whether or not the user asked for exports — while the
// extra telemetry columns and per-cell log files stay gated on obsTracing.
func (l *Lab) obsRecorder() *obs.Recorder {
	return obs.NewRecorder(obs.Config{Window: l.Serve.ObsWindow})
}

// obsFormat resolves the lab's event-log format ("" defaults to JSONL).
func (l *Lab) obsFormat() (string, error) {
	if l.Serve.EventsFormat == "" {
		return obs.FormatJSONL, nil
	}
	return obs.ParseFormat(l.Serve.EventsFormat)
}

// writeCellEvents exports one cell's event log — a recorder's, or the
// cluster grid's node logs already merged onto the shared tick timeline —
// to <Events>-<cell>.<ext>, creating parent directories as needed. An unset
// -events prefix is a no-op.
func (l *Lab) writeCellEvents(cell string, events []obs.Event) error {
	if l.Serve.Events == "" {
		return nil
	}
	format, err := l.obsFormat()
	if err != nil {
		return err
	}
	path := fmt.Sprintf("%s-%s%s", l.Serve.Events, cell, obs.FormatExt(format))
	if dir := filepath.Dir(path); dir != "." {
		if err := os.MkdirAll(dir, 0o755); err != nil {
			return err
		}
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := obs.Export(f, format, events); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
