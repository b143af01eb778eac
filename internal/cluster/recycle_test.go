package cluster

import (
	"fmt"
	"runtime"
	"testing"

	"repro/internal/eval"
	"repro/internal/parallel"
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

// allocProbe is the cluster's Control with the process's malloc count read
// at the top of two ticks, before anything of either tick runs.
type allocProbe struct {
	control
	from, to int
	ms       runtime.MemStats
	mallocs  [2]uint64
}

func (p *allocProbe) Before(tick int, fin []serving.Finished) ([]serving.Finished, error) {
	if tick == p.from || tick == p.to {
		runtime.ReadMemStats(&p.ms)
		p.mallocs[min(tick-p.from, 1)] = p.ms.Mallocs
	}
	return p.control.Before(tick, fin)
}

// A steady-state Drive tick of a three-node partitioned cluster allocates
// nothing, on one worker and on two: the decode unit list and the fan-out
// over it are built once per run, every session is past its first window,
// and nothing arrives, retires or migrates between the two reads. The
// malloc count is the whole process's, so the pool's workers are counted.
func TestSteadyStateClusterTickAllocatesNothing(t *testing.T) {
	trained(t)
	defer parallel.SetProcs(parallel.Procs())
	reqs := requests(t, 6,
		func(i int) string { return fmt.Sprintf("t%d", i) },
		func(int) int { return 6 },
		func(int) serving.SLO { return serving.SLO{} })
	for _, procs := range []int{1, 2} {
		parallel.SetProcs(procs)
		c := must(New(zoo.m, Config{
			Nodes: replicas(3, serving.ArbExclusive, 2), Router: LeastLoaded(), Seed: 5,
		}, serving.FixedBatch(reqs)))(t)
		// Quantum 4 fills the 32-token window in 8 ticks; the 192-token
		// sessions drain at tick 48.
		p := &allocProbe{control: control{c}, from: 12, to: 40}
		if _, err := serving.Drive(c.w, c.cfg.Seed, c.nodes, p, c.stallHorizon); err != nil {
			t.Fatal(err)
		}
		for n, e := range c.nodes {
			if e.ActiveCount() != 0 || len(e.Finalize(48).Sessions) != 2 {
				t.Fatalf("procs %d: scenario broken: node %d did not serve two sessions to the end", procs, n)
			}
		}
		if p.mallocs[0] == 0 || p.mallocs[1] == 0 {
			t.Fatalf("procs %d: scenario broken: Drive skipped tick %d or %d", procs, p.from, p.to)
		}
		// Per tick, truncated, as testing.AllocsPerRun counts: a blocked
		// channel operation in the pool may now and then allocate the
		// runtime's wait record, which is not the tick's.
		if n := p.mallocs[1] - p.mallocs[0]; n/uint64(p.to-p.from) != 0 {
			t.Errorf("procs %d: %d steady-state ticks allocated %d objects, want 0 per tick", procs, p.to-p.from, n)
		}
	}
}
