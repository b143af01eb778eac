package cluster

import (
	"fmt"
	"testing"

	"repro/internal/eval"
	"repro/internal/serving"
	"repro/internal/serving/obs"
	"repro/internal/sparsity"
)

// Recycling across nodes: a node failure evacuates exclusive sessions
// mid-decode, and each migrant finishes on a survivor, whose free lists
// then hold the failed node's stream, decoder, scheme clone and cache and
// hand them to the survivor's later admissions. 24 short DIP-CA requests
// over one shared scheme instance keep both survivors admitting after the
// migrants finish. Every session, migrated or not, recycled or fresh, must
// match its solo SystemEvaluate.
func TestMigrantsRecycleOnTheNodeTheyFinishOn(t *testing.T) {
	trained(t)
	shared := sparsity.NewDIPCA(0.5, 0.2)
	reqs := make([]serving.Request, 24)
	for i := range reqs {
		reqs[i] = serving.Request{ID: fmt.Sprintf("t%d/c%02d", i%4, i), Scheme: shared, Tokens: zoo.tokens[40*i : 40*i+32]}
	}
	matrix(t, row{
		name: "exclusive migrants recycle",
		cfg: Config{
			Nodes:  replicas(3, serving.ArbExclusive, 2),
			Router: LeastLoaded(), Seed: 13,
			Failures: []Failure{{Node: 1, Tick: 6, Ticks: 1000}},
		},
		w: func(t *testing.T) serving.Workload { return must(serving.PoissonArrivals(reqs, 1, 5))(t) },
		guard: func(t *testing.T, o outcome) {
			if o.rep.Migrations == 0 {
				t.Fatal("scenario broken: the failure migrated no session")
			}
			for n, nr := range o.rep.Nodes {
				for _, sm := range nr.Report.Sessions {
					solo := must(eval.SystemEvaluate(zoo.m, sparsity.NewDIPCA(0.5, 0.2), reqs[sm.Index].Tokens, sysCfg()))(t)
					if sm.Outcome != serving.OutcomeOK || sm.Point != solo {
						t.Fatalf("session %q on node %d diverged from its solo evaluation:\nserved %+v (%s)\nsolo   %+v",
							sm.ID, n, sm.Point, sm.Outcome, solo)
					}
				}
			}
		},
	})
}

// The merged event log reads the node recorders in place: Events()
// allocates the merged slice and nothing else.
func TestEventsAllocatesOnlyTheMergedLog(t *testing.T) {
	trained(t)
	reqs := requests(t, 6,
		func(i int) string { return fmt.Sprintf("t%d", i%3) },
		func(i int) int { return 2 },
		func(i int) serving.SLO { return serving.SLO{} })
	c, _ := drain(t, "run", Config{
		Nodes: replicas(3, serving.ArbExclusive, 2), Router: LeastLoaded(), Seed: 5,
		Obs: &obs.Config{},
	}, serving.FixedBatch(reqs))
	if len(c.Events()) == 0 {
		t.Fatal("scenario broken: the run emitted no events")
	}
	if n := testing.AllocsPerRun(10, func() { c.Events() }); n != 1 {
		t.Errorf("Events() allocated %v objects, want 1 (the merged slice)", n)
	}
}
