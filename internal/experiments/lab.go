// Package experiments contains one driver per table and figure of the
// paper's evaluation (registry.go is the index; dipbench -list prints it).
// Each driver takes a Lab — a cache of trained model analogs, corpus splits,
// predictors and adapters at a chosen scale — and returns renderable Tables
// with the same rows/series the paper reports. cmd/dipbench and
// bench_test.go share these drivers.
package experiments

import (
	"errors"
	"fmt"
	"io"
	"io/fs"
	"os"
	"path/filepath"
	"sync"

	"repro/internal/data"
	"repro/internal/lora"
	"repro/internal/model"
	"repro/internal/nn"
	"repro/internal/parallel"
	"repro/internal/predictor"
	"repro/internal/prune"
	"repro/internal/sparsity"
)

// Lab prepares and memoizes every expensive artifact the drivers need.
// Memoization is per key: two goroutines asking for different artifacts
// build them concurrently, while a second request for an in-flight key
// blocks until the first build finishes. Every build is deterministic in
// isolation (its own seeds, no shared mutable inputs), so results do not
// depend on build order or worker count.
type Lab struct {
	Scale model.Scale
	// CheckpointDir, when non-empty, persists trained base models across
	// processes: the first run that trains an analog writes it, later runs
	// load it while its Config still matches model.ConfigFor.
	CheckpointDir string
	// Log receives progress lines (nil silences).
	Log io.Writer
	// Serve describes the serving run the serve, chaos and cluster grids
	// execute (dipbench binds its serving flags straight onto it).
	Serve Scenario

	tok    *data.Tokenizer
	splits data.Splits
	once   sync.Once

	mu   sync.Mutex
	memo map[string]*labEntry

	logMu sync.Mutex
}

// labEntry is one memoized artifact slot with per-key build locking.
type labEntry struct {
	once sync.Once
	val  any
}

// memoize returns the artifact for key, running build at most once per key.
func (l *Lab) memoize(key string, build func() any) any {
	l.mu.Lock()
	if l.memo == nil {
		l.memo = make(map[string]*labEntry)
	}
	e, ok := l.memo[key]
	if !ok {
		e = &labEntry{}
		l.memo[key] = e
	}
	l.mu.Unlock()
	e.once.Do(func() { e.val = build() })
	return e.val
}

// NewLab returns a lab at the given scale.
func NewLab(scale model.Scale) *Lab {
	return &Lab{Scale: scale, memo: make(map[string]*labEntry)}
}

func (l *Lab) logf(format string, args ...any) {
	if l.Log != nil {
		l.logMu.Lock()
		fmt.Fprintf(l.Log, format+"\n", args...)
		l.logMu.Unlock()
	}
}

// Warm trains the named analogs (every analog when none are given)
// concurrently across the worker pool. Each model's training is seeded by
// its name, so warm-up order cannot change any result.
func (l *Lab) Warm(names ...string) {
	if len(names) == 0 {
		names = model.AnalogNames()
	}
	parallel.For(len(names), 1, func(lo, hi int) {
		for _, n := range names[lo:hi] {
			l.Model(n)
		}
	})
}

func (l *Lab) init() {
	l.once.Do(func() {
		l.tok = data.NewTokenizer()
		trainLen, otherLen := 60000, 12000
		if l.Scale == model.ScalePaper {
			trainLen, otherLen = 200000, 30000
		}
		l.splits = data.NewSplits(2024, trainLen, otherLen)
	})
}

// Tokenizer returns the corpus tokenizer.
func (l *Lab) Tokenizer() *data.Tokenizer {
	l.init()
	return l.tok
}

// CalibTokens returns the calibration split as token ids.
func (l *Lab) CalibTokens() []int {
	l.init()
	return l.tok.Encode(l.splits.Calib)
}

// ValidTokens returns the validation split as token ids.
func (l *Lab) ValidTokens() []int {
	l.init()
	return l.tok.Encode(l.splits.Valid)
}

// TestTokens returns up to n test tokens (n ≤ 0 means the scale default).
func (l *Lab) TestTokens(n int) []int {
	l.init()
	toks := l.tok.Encode(l.splits.Test)
	if n <= 0 {
		n = 2000
		if l.Scale == model.ScalePaper {
			n = 8000
		}
	}
	if n < len(toks) {
		toks = toks[:n]
	}
	return toks
}

// EvalWin returns the perplexity window length for the scale.
func (l *Lab) EvalWin() int { return 64 }

// MCItems returns a task battery of the given kind sized for the scale.
func (l *Lab) MCItems(kind data.TaskKind, seed uint64) []data.MCItem {
	l.init()
	n := 30
	if l.Scale == model.ScalePaper {
		n = 120
	}
	return data.GenerateTask(kind, n, rng(seed))
}

// MixedMCItems returns a blend across task kinds, the MMLU stand-in.
func (l *Lab) MixedMCItems(seed uint64) []data.MCItem {
	l.init()
	per := 10
	if l.Scale == model.ScalePaper {
		per = 30
	}
	var items []data.MCItem
	for i, kind := range data.TaskKinds() {
		items = append(items, data.GenerateTask(kind, per, rng(seed+uint64(i)))...)
	}
	return items
}

// trainOpts returns the per-scale training configuration.
func (l *Lab) trainOpts() model.TrainOpts {
	opts := model.DefaultTrainOpts()
	if l.Scale == model.ScaleTest {
		opts.Steps = 120
		opts.Batch = 2
		opts.SeqLen = 48
	} else {
		opts.Steps = 350
		opts.Batch = 4
		opts.SeqLen = 64
	}
	return opts
}

// Model returns the trained analog, training (or loading a checkpoint) on
// first use.
func (l *Lab) Model(name string) *model.Model {
	l.init()
	return l.memoize("model/"+name, func() any {
		cfg, err := model.ConfigFor(name, l.Scale)
		if err != nil {
			panic(err)
		}
		path := l.checkpointPath(name)
		if l.CheckpointDir != "" {
			m, err := model.LoadCheckpointFile(path)
			switch {
			case err == nil && m.Cfg == cfg:
				l.logf("loaded %s from %s", name, path)
				return m
			case err == nil:
				l.logf("checkpoint %s is for %+v, want %+v; retraining", path, m.Cfg, cfg)
			case !errors.Is(err, fs.ErrNotExist):
				l.logf("warning: loading %s checkpoint: %v; retraining", name, err)
			}
		}
		m := model.New(cfg, 1000+hash(name))
		l.logf("training %s (%d params)...", name, nn.CountParams(m))
		opts := l.trainOpts()
		opts.Seed = 500 + hash(name)
		if _, err := model.Train(m, l.tok.Encode(l.splits.Train), opts); err != nil {
			panic(fmt.Sprintf("experiments: training %s: %v", name, err))
		}
		if l.CheckpointDir != "" {
			err := os.MkdirAll(l.CheckpointDir, 0o755)
			if err == nil {
				err = model.SaveCheckpointFile(path, m)
			}
			if err != nil {
				l.logf("warning: saving %s checkpoint: %v", name, err)
			}
		}
		return m
	}).(*model.Model)
}

func (l *Lab) checkpointPath(name string) string {
	scale := "test"
	if l.Scale == model.ScalePaper {
		scale = "paper"
	}
	return filepath.Join(l.CheckpointDir, fmt.Sprintf("%s-%s.ckpt", name, scale))
}

// Predictors returns trained DejaVu predictors for the analog.
func (l *Lab) Predictors(name string) *predictor.Set {
	m := l.Model(name)
	return l.memoize("preds/"+name, func() any {
		l.logf("training predictors for %s...", name)
		opts := predictor.DefaultTrainOpts()
		if l.Scale == model.ScaleTest {
			opts.Epochs = 4
			opts.MaxTokens = 192
		}
		return predictor.Train(m, l.CalibTokens(), l.EvalWin(), opts)
	}).(*predictor.Set)
}

// SparseGPT returns a cached SparseGPT-pruned copy of the analog.
func (l *Lab) SparseGPT(name string, pattern prune.Pattern, sparsityFrac float64) *model.Model {
	m := l.Model(name)
	key := fmt.Sprintf("sparsegpt/%s/%v/%.2f", name, pattern, sparsityFrac)
	return l.memoize(key, func() any {
		l.logf("sparsegpt %s...", key)
		p, err := prune.SparseGPTModel(m, l.CalibTokens(), l.EvalWin(), pattern, sparsityFrac)
		if err != nil {
			panic(fmt.Sprintf("experiments: %s: %v", key, err))
		}
		return p
	}).(*model.Model)
}

// CalibStats returns the memoized calibration activation statistics for the
// analog (512 recorded MLP evaluations). Collecting stats is a full dense
// calibration pass; sharing one collection across every CATS density avoids
// repeating it per operating point.
func (l *Lab) CalibStats(name string) *sparsity.LayerStats {
	m := l.Model(name)
	return l.memoize("calibstats/"+name, func() any {
		l.logf("collecting calibration stats for %s...", name)
		return sparsity.CollectStats(m, l.CalibTokens(), l.EvalWin(), 512)
	}).(*sparsity.LayerStats)
}

// CATS returns a calibrated CATS scheme at the intermediate keep rate.
func (l *Lab) CATS(name string, rho float64) *sparsity.CATS {
	st := l.CalibStats(name)
	key := fmt.Sprintf("cats/%s/%.3f", name, rho)
	return l.memoize(key, func() any {
		return &sparsity.CATS{Thresholds: st.CATSThresholds(rho)}
	}).(*sparsity.CATS)
}

// Fused returns the analog with LoRA adapters trained for the scheme and
// fused in (memoized by model + scheme name + density key).
func (l *Lab) Fused(name string, scheme sparsity.Scheme, densityKey string, adaptGate bool) *model.Model {
	m := l.Model(name)
	key := fmt.Sprintf("fused/%s/%s/%s", name, scheme.Name(), densityKey)
	return l.memoize(key, func() any {
		l.logf("training LoRA for %s...", key)
		opts := lora.DefaultTrainOpts()
		opts.AdaptGate = adaptGate
		if l.Scale == model.ScaleTest {
			opts.Iterations = 250
			opts.MaxTokens = 128
		} else {
			opts.Iterations = 700
		}
		adapters, err := lora.Train(m, sparsity.Clone(scheme), l.CalibTokens(), l.EvalWin(), opts)
		if err != nil {
			panic(fmt.Sprintf("experiments: lora %s: %v", key, err))
		}
		f, err := lora.Fuse(m, adapters)
		if err != nil {
			panic(fmt.Sprintf("experiments: fuse %s: %v", key, err))
		}
		return f
	}).(*model.Model)
}

func hash(s string) uint64 {
	var h uint64 = 1469598103934665603
	for i := 0; i < len(s); i++ {
		h ^= uint64(s[i])
		h *= 1099511628211
	}
	return h
}
