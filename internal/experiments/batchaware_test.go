package experiments

import (
	"fmt"
	"slices"
	"testing"

	"repro/internal/eval"
	"repro/internal/hwsim"
	"repro/internal/serving"
	"repro/internal/sparsity"
)

// lockstep drives reqs by hand as a shared-cache FCFS engine of the given
// slots drives them: each tick fills free slots in admission order (order
// lists the submission indices by AdmitRank), then up
// to quantum sub-steps decode every unfinished admitted stream, in slot
// order, and commit them as one step on one cache; finished streams leave
// at the tick's end. With batchAware each sub-step of several columns opens
// a SubStepView first; without, every column's masks read the cache as of
// the last commit. It returns the streams' points in submission order and
// the decoded tokens over the summed step seconds.
func lockstep(t *testing.T, x mix, reqs []serving.Request, order []int, slots int, batchAware bool) ([]eval.Point, float64) {
	t.Helper()
	plan, err := hwsim.NewPlan(x.m, x.sys.Device, hwsim.PlanOpts{
		BytesPerWeight: x.sys.BytesPerWeight,
		Groups:         hwsim.ProbeGroups(sparsity.Clone(reqs[0].Scheme), x.m),
	})
	if err != nil {
		t.Fatal(err)
	}
	mc, step := plan.NewCache(x.sys.Policy), plan.NewStep()
	sts, queue := make([]*eval.Stream, len(reqs)), make([]*eval.Stream, len(reqs))
	for i, r := range reqs {
		if sts[i], err = eval.NewStreamWith(x.m, sparsity.Clone(r.Scheme), r.Tokens, x.sys, eval.StreamOpts{Plan: plan, Cache: mc}); err != nil {
			t.Fatal(err)
		}
	}
	for rank, i := range order {
		queue[rank] = sts[i]
	}
	var (
		view          eval.SubStepView
		active, batch []*eval.Stream
		seconds       float64
	)
	for len(queue) > 0 || len(active) > 0 {
		for len(active) < slots && len(queue) > 0 {
			active, queue = append(active, queue[0]), queue[1:]
		}
		for range quantum {
			batch = slices.DeleteFunc(append(batch[:0], active...), (*eval.Stream).Done)
			if len(batch) == 0 {
				break
			}
			if batchAware && len(batch) > 1 {
				view.Open(batch)
			}
			for _, st := range batch {
				st.Decode()
			}
			seconds += eval.Commit(batch, step)
		}
		active = slices.DeleteFunc(active, (*eval.Stream).Done)
	}
	points, tokens := make([]eval.Point, len(sts)), 0
	for i, st := range sts {
		points[i], tokens = st.Point(), tokens+st.Decoded()
	}
	return points, float64(tokens) / seconds
}

// meanPPL is the serve table's mean_ppl over points.
func meanPPL(points []eval.Point) float64 {
	sum := 0.0
	for _, p := range points {
		sum += p.PPL
	}
	return sum / float64(len(points))
}

// Batch-aware masking on phi3med's analog, eight fixed sessions under shared
// FCFS. The hand-driven lockstep with the view open is the engine, bit for
// bit. At 4 and 8 slots batch-aware DIP-CA at γ 0.3 decodes faster on the
// simulated device than the per-column masks of the same loop at the
// paper's γ 0.2, for at most 0.5 % more perplexity: it moves the front.
func TestBatchAwareMaskingMovesTheFront(t *testing.T) {
	x := sharedLab.requestMix(8, 8, 8)
	reqsAt := func(gamma float64) []serving.Request {
		return x.requests(sparsity.NewDIPCA(0.5, gamma), 0, func(i int) string { return fmt.Sprintf("s%02d", i) })
	}
	for _, slots := range []int{4, 8} {
		e, err := serving.NewEngine(x.m, serving.Config{System: x.sys, Arb: serving.ArbShared, Sched: serving.FCFS(),
			MaxActive: slots, Quantum: quantum}, serving.FixedBatch(reqsAt(0.3)))
		if err != nil {
			t.Fatal(err)
		}
		rep, err := e.Run()
		if err != nil {
			t.Fatal(err)
		}
		order := make([]int, len(rep.Sessions))
		for i, sm := range rep.Sessions {
			order[sm.AdmitRank] = i
		}
		aware, awareTokS := lockstep(t, x, reqsAt(0.3), order, slots, true)
		if rep.SimTokS != awareTokS {
			t.Fatalf("slots %d: engine priced %v tok/s, the batch-aware lockstep %v", slots, rep.SimTokS, awareTokS)
		}
		for i, sm := range rep.Sessions {
			if sm.Point != aware[i] {
				t.Fatalf("slots %d: session %s diverged from the lockstep:\nengine   %+v\nlockstep %+v", slots, sm.ID, sm.Point, aware[i])
			}
		}
		oracle, oracleTokS := lockstep(t, x, reqsAt(0.2), order, slots, false)
		awarePPL, oraclePPL := meanPPL(aware), meanPPL(oracle)
		t.Logf("slots %d: batch-aware γ 0.3 %.4g tok/s @ ppl %.4f; per-column γ 0.2 %.4g tok/s @ ppl %.4f",
			slots, awareTokS, awarePPL, oracleTokS, oraclePPL)
		if awareTokS <= oracleTokS || awarePPL > 1.005*oraclePPL {
			t.Errorf("slots %d: batch-aware γ 0.3 (%.4g tok/s, ppl %.4f) is not ahead of per-column γ 0.2 (%.4g tok/s, ppl %.4f)",
				slots, awareTokS, awarePPL, oracleTokS, oraclePPL)
		}
	}
}
