package experiments

import (
	"bytes"
	"math"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/model"
)

// A checkpoint directory is written by the first Lab that trains an analog
// and read back bit for bit by the next; a checkpoint whose architecture no
// longer matches ConfigFor is reported and replaced, never served.
func TestLabCheckpointRoundTrip(t *testing.T) {
	const name = model.Phi3MiniSim
	dir := t.TempDir()
	lab := func() (*Lab, *bytes.Buffer) {
		var log bytes.Buffer
		l := NewLab(model.ScaleTest)
		l.CheckpointDir, l.Log = dir, &log
		return l, &log
	}

	first, log1 := lab()
	trained := first.Model(name)
	path := filepath.Join(dir, name+"-test.ckpt")
	if !strings.Contains(log1.String(), "training") {
		t.Fatalf("first lab did not train:\n%s", log1)
	}

	second, log2 := lab()
	loaded := second.Model(name)
	if got := log2.String(); !strings.Contains(got, "loaded "+name+" from "+path) || strings.Contains(got, "training") {
		t.Fatalf("second lab did not load the checkpoint:\n%s", got)
	}
	want, got := trained.Params(), loaded.Params()
	if len(got) != len(want) {
		t.Fatalf("loaded %d params, trained %d", len(got), len(want))
	}
	for i := range want {
		for j, w := range want[i].W.Data {
			if math.Float32bits(got[i].W.Data[j]) != math.Float32bits(w) {
				t.Fatalf("param %d element %d: loaded %v, trained %v", i, j, got[i].W.Data[j], w)
			}
		}
	}

	cfg, err := model.ConfigFor(name, model.ScaleTest)
	if err != nil {
		t.Fatal(err)
	}
	stale := cfg
	stale.Dim += 8
	if err := model.SaveCheckpointFile(path, model.New(stale, 1)); err != nil {
		t.Fatal(err)
	}
	third, log3 := lab()
	if m := third.Model(name); m.Cfg != cfg {
		t.Fatalf("stale checkpoint served: Cfg %+v, want %+v", m.Cfg, cfg)
	}
	if got := log3.String(); !strings.Contains(got, "checkpoint "+path+" is for ") || !strings.Contains(got, "retraining") {
		t.Fatalf("mismatch not logged:\n%s", got)
	}
	if m, err := model.LoadCheckpointFile(path); err != nil || m.Cfg != cfg {
		t.Fatalf("stale checkpoint not overwritten: %v", err)
	}
}
