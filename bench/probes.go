package main

import (
	"runtime"

	"repro/internal/cache"
	"repro/internal/eval"
	"repro/internal/hwsim"
	"repro/internal/model"
	"repro/internal/parallel"
	"repro/internal/serving"
	"repro/internal/serving/faults"
	"repro/internal/sparsity"
	"repro/internal/tensor"
)

const probeBatch = 8

// hostMatVec is the harness's own dense product, so host.matvec_gmac_s
// measures the machine and not the commit: tensor.matvec_gmac_s falling
// while this holds is a slow commit, both falling is a slow host.
func hostMatVec(w []float32, rows, cols int, x, out []float32) {
	for i := 0; i < rows; i++ {
		row := w[i*cols : (i+1)*cols]
		var s float32
		for j, v := range row {
			s += v * x[j]
		}
		out[i] = s
	}
}

// probes times direct calls into the modules' public functions on fixed
// shapes: the bw model's 768x256 up-projection for the kernels, the mini
// model for the per-request planning the serving engine repeats. Inputs are
// seeded; index sets are at density 0.5; the batch is 8 wide.
func probes(seed uint64, probeK int) (map[string]float64, error) {
	parallel.SetProcs(1)
	out := map[string]float64{}
	var firstErr error
	note := func(err error) {
		if firstErr == nil {
			firstErr = err
		}
	}
	us := func(ns float64) float64 { return ns / 1e3 }
	rng := tensor.NewRNG(deriveSeed(seed, "probes"))

	// STREAM-style copy over buffers well past the last-level cache; a copy
	// reads and writes every byte, hence the factor 2.
	const copyLen = 16 << 20
	src, dst := make([]float32, copyLen), make([]float32, copyLen)
	for i := range src {
		src[i] = float32(i)
	}
	copyNS := minOfK(5, 1, func() { copy(dst, src) })
	out["host.copy_gb_s"] = 2 * 4 * copyLen / copyNS

	bw := model.New(bwConfig(), rng.Uint64())
	mlp := bw.Blocks[0].MLP
	w := mlp.Up.P.W // 768 x 256
	rows, cols := w.Rows, w.Cols
	macs := float64(rows * cols)
	x := tensor.NewVec(cols)
	for i := range x {
		x[i] = rng.NormFloat32()
	}
	xr := tensor.NewVec(rows)
	for i := range xr {
		xr[i] = rng.NormFloat32()
	}
	y, yc := tensor.NewVec(rows), tensor.NewVec(cols)
	idx := rng.Perm(cols)[:cols/2]
	active := make([]bool, cols)
	for _, j := range idx {
		active[j] = true
	}

	hostNS := minOfK(probeK, 50, func() { hostMatVec(w.Data, rows, cols, x, y) })
	out["host.matvec_gmac_s"] = macs / hostNS

	mv := minOfK(probeK, 50, func() { tensor.MatVec(w, x, y) })
	mtv := minOfK(probeK, 50, func() { yc.Zero(); tensor.MatTVec(w, xr, yc) })
	mvs := minOfK(probeK, 50, func() { tensor.MatVecSparse(w, x, idx, y) })
	msk := minOfK(probeK, 50, func() { tensor.MaskedMatVecCols(w, x, active, y) })
	var topk tensor.TopKScratch
	var topIdx []int
	tk := minOfK(probeK, 50, func() { topIdx = tensor.TopKIndicesInto(xr, rows/2, &topk, topIdx) })
	out["tensor.matvec_us"] = us(mv)
	out["tensor.mattvec_us"] = us(mtv)
	out["tensor.matvec_sparse_us"] = us(mvs)
	out["tensor.masked_cols_us"] = us(msk)
	out["tensor.topk_us"] = us(tk)
	out["tensor.sparse_over_dense"] = mvs / mv
	out["tensor.matvec_gmac_s"] = macs / mv
	out["tensor.matvec_sparse_gmac_s"] = macs / 2 / mvs

	xs, xrs := tensor.NewMat(cols, probeBatch), tensor.NewMat(rows, probeBatch)
	xs.RandNorm(rng, 1)
	xrs.RandNorm(rng, 1)
	ys, ycs := tensor.NewMat(rows, probeBatch), tensor.NewMat(cols, probeBatch)
	idxs := make([][]int, probeBatch)
	actives := make([][]bool, probeBatch)
	for b := range idxs {
		idxs[b] = rng.Perm(cols)[:cols/2]
		actives[b] = make([]bool, cols)
		for _, j := range idxs[b] {
			actives[b][j] = true
		}
	}
	var sbs tensor.SparseBatchScratch
	batchKernels := []func(){
		func() { tensor.MatVecBatch(w, xs, ys) },
		func() { ycs.Zero(); tensor.MatTVecBatch(w, xrs, ycs) },
		func() { tensor.MatVecSparseBatch(w, xs, idxs, ys, &sbs) },
		func() { tensor.MaskedMatVecColsBatch(w, xs, actives, ys) },
	}
	for i, k := range []struct {
		name   string
		single float64
	}{{"matvec", mv}, {"mattvec", mtv}, {"matvec_sparse", mvs}, {"masked_cols", msk}} {
		ns := minOfK(probeK, 10, batchKernels[i])
		out["tensor."+k.name+"_batch8_us"] = us(ns)
		out["tensor.batch8_over_8x."+k.name] = ns / (probeBatch * k.single)
	}
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	const allocCalls = 25
	for i := 0; i < allocCalls; i++ {
		for _, k := range batchKernels {
			k()
		}
	}
	runtime.ReadMemStats(&m1)
	out["tensor.batch_allocs_per_call"] = float64(m1.Mallocs-m0.Mallocs) / float64(allocCalls*len(batchKernels))

	// ForwardBatch over 8 DIP-CA clones against a cold cache view, so the
	// cache-aware re-weighting runs.
	proto := dipca()
	bwPlan, err := hwsim.NewPlan(bw, hwsim.A18Like(), hwsim.PlanOpts{Groups: hwsim.ProbeGroups(sparsity.Clone(proto), bw)})
	if err != nil {
		return nil, err
	}
	schemes := make([]sparsity.Scheme, probeBatch)
	views := make([]sparsity.CacheView, probeBatch)
	for b := range schemes {
		schemes[b] = sparsity.Clone(proto)
		views[b] = bwPlan.NewCache(cache.PolicyLFU)
	}
	outs := tensor.NewMat(cols, probeBatch)
	tas := make([]sparsity.TokenAccess, probeBatch)
	var scratch sparsity.BatchScratch
	fb := minOfK(probeK, 10, func() { sparsity.ForwardBatch(0, schemes, xs, mlp, views, outs, tas, &scratch) })
	out["sparsity.forward_batch8_us"] = us(fb)

	// One fused decode step over 8 streams with private caches.
	sys := system(soloWin)
	streams := make([]*eval.Stream, probeBatch)
	for b := range streams {
		toks := randomTokens(rng, soloWin, bw.Cfg.Vocab)
		st, err := eval.NewStreamWith(bw, sparsity.Clone(proto), toks, sys, eval.StreamOpts{Plan: bwPlan, Cache: bwPlan.NewCache(cache.PolicyLFU)})
		if err != nil {
			return nil, err
		}
		streams[b] = st
	}
	var arena eval.BatchArena
	var stepMS []float64
	for {
		t0 := now()
		if eval.BatchStep(streams, &arena) == 0 {
			break
		}
		stepMS = append(stepMS, float64(now()-t0)/1e6)
	}
	out["eval.batch_step_ms_p50"] = serving.Percentile(stepMS, 0.50)

	// What the serving engine pays per request (probe) and per admitted
	// session (plan once per engine, stream per session), on the mini model.
	mini := model.New(miniConfig(), rng.Uint64())
	miniSys := system(reqTokens)
	miniToks := randomTokens(rng, reqTokens, mini.Cfg.Vocab)
	var groups [sparsity.NumGroups]bool
	pg := minOfK(probeK, 200, func() { groups = hwsim.ProbeGroups(sparsity.Clone(proto), mini) })
	np := minOfK(probeK, 200, func() {
		_, err := hwsim.NewPlan(mini, miniSys.Device, hwsim.PlanOpts{Groups: groups})
		note(err)
	})
	ns := minOfK(probeK, 100, func() {
		_, err := eval.NewStream(mini, sparsity.Clone(proto), miniToks, miniSys)
		note(err)
	})
	out["hwsim.probe_groups_us"] = us(pg)
	out["hwsim.new_plan_us"] = us(np)
	out["eval.new_stream_us"] = us(ns)

	plan, err := faults.NewNodePlan(faults.NodeChaos{Seed: seed, CrashRate: 0.02, RecoverTicks: 12})
	if err != nil {
		return nil, err
	}
	tick, dead := 0, 0
	out["faults.node_draw_ns"] = minOfK(probeK, 3000, func() {
		if plan.Dead(tick, tick%chaosNodes) {
			dead++
		}
		tick++
	})

	parallel.SetProcs(chaosProcs)
	out["parallel.for_overhead_us"] = us(minOfK(probeK, 2000, func() { parallel.For(chaosProcs, 1, func(lo, hi int) {}) }))
	parallel.SetProcs(1)
	return out, firstErr
}
