package experiments

import (
	"fmt"
	"os"
	"path/filepath"

	"repro/internal/serving"
	"repro/internal/serving/obs"
)

// obsTracing reports whether the lab's flags ask the serving scenarios to
// attach an event recorder (either to export per-cell logs, or just to
// surface the windowed-telemetry snapshot on each report).
func (l *Lab) obsTracing() bool { return l.Serve.Events != "" || l.Serve.ObsWindow > 0 }

// runEngine runs one single-engine grid cell: cfg on a fresh recorder
// (recorders are single-run; tracing is on for every cell whether or not the
// user asked for exports, only the telemetry columns and log files are gated
// on obsTracing), the report reconciled against its event log — cheap, and it
// means an exported log always sums to the report beside it — and, under
// -events, the log exported under the cell's name.
func (l *Lab) runEngine(x mix, cfg serving.Config, w serving.Workload, cell string) (*serving.Report, error) {
	rec := obs.NewRecorder(obs.Config{Window: l.Serve.ObsWindow})
	cfg.Obs = rec
	e, err := serving.NewEngine(x.m, cfg, w)
	if err != nil {
		return nil, err
	}
	rep, err := e.Run()
	if err != nil {
		return nil, err
	}
	if err := rep.ReconcileObs(); err != nil {
		return nil, fmt.Errorf("cell %s: %w", cell, err)
	}
	return rep, l.writeCellEvents(cell, rec.Events)
}

// obsFormat resolves the lab's event-log format ("" defaults to JSONL).
func (l *Lab) obsFormat() (string, error) {
	if l.Serve.EventsFormat == "" {
		return obs.FormatJSONL, nil
	}
	return obs.ParseFormat(l.Serve.EventsFormat)
}

// writeCellEvents exports one cell's event log — a recorder's, or the
// cluster grid's node logs merged onto the shared tick timeline — to
// <Events>-<cell>.<ext>, creating parent directories as needed. An unset
// -events prefix is a no-op that never calls events, so no log is built.
func (l *Lab) writeCellEvents(cell string, events func() []obs.Event) error {
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
	if err := obs.Export(f, format, events()); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
