package cluster

import (
	"bytes"
	"reflect"
	"testing"

	"repro/internal/serving"
	"repro/internal/serving/faults"
	"repro/internal/serving/obs"
)

// Engine.Run and Cluster.Run are both serving.Drive; what can still differ
// is the Control each passes. A one-node cluster with no drain, failures, or
// chaos has nothing for its Control to do, so it must be indistinguishable
// from the bare engine — node report and event log — on a run where
// preemption, fault retry, and shedding all fire. The closed-loop rows put
// the feedback path through the cluster's Control: arrivals shed at the door
// and terminations on a tick that decoded nothing both reach the workload,
// which only then schedules the user's next request. The engine runs at the
// two noFuse values are also compared with each other: the closed-loop rows
// are the only place fused ≡ per-session is held on a ClosedLoop workload.
func TestOneNodeClusterEqualsEngine(t *testing.T) {
	trained(t)
	run := func(closed bool, arb serving.ArbPolicy, noFuse, clustered bool) (*serving.Report, []obs.Event) {
		reqs := requests(t, 22,
			func(i int) string { return "t" },
			func(i int) int { return 1 + i%3 },
			func(i int) serving.SLO {
				if i%2 == 0 {
					return serving.SLO{Class: "interactive", Priority: 2, DeadlineTicks: 24 + 4*(i%5)}
				}
				return serving.SLO{Class: "batch"}
			})
		var w serving.Workload
		var err error
		if closed {
			// Eleven users, two requests each, all knocking at tick 0: six
			// find the queue at budget.
			scripts := make([][]serving.Request, 11)
			for u := range scripts {
				scripts[u] = reqs[2*u : 2*u+2]
			}
			w, err = serving.ClosedLoop(scripts, 3)
		} else {
			w, err = serving.PoissonArrivals(reqs, 0.7, 5)
		}
		if err != nil {
			t.Fatal(err)
		}
		mix, err := faults.Mix(0.08, 41)
		if err != nil {
			t.Fatal(err)
		}
		cfg := nodeCfg(arb, 2, noFuse)
		cfg.Preempt = serving.DeadlinePreempt()
		cfg.Faults = mix
		cfg.ShedQueueBudget = 5
		if !clustered {
			rec := obs.NewRecorder(obs.Config{Window: 8})
			cfg.Obs = rec
			e, err := serving.NewEngine(zoo.m, cfg, w)
			if err != nil {
				t.Fatal(err)
			}
			rep, err := e.Run()
			if err != nil {
				t.Fatal(err)
			}
			return rep, rec.Events()
		}
		c, err := New(zoo.m, Config{
			Nodes: []serving.Config{cfg}, Seed: cfg.Seed, Obs: &obs.Config{Window: 8},
		}, w)
		if err != nil {
			t.Fatal(err)
		}
		rep, err := c.Run()
		if err != nil {
			t.Fatal(err)
		}
		if err := rep.ReconcileObs(); err != nil {
			t.Fatal(err)
		}
		return rep.Nodes[0].Report, c.Events()
	}
	for _, closed := range []bool{false, true} {
		for _, arb := range serving.Policies() {
			var fused *serving.Report
			var fusedLog []byte
			for _, noFuse := range []bool{false, true} {
				want, wantEv := run(closed, arb, noFuse, false)
				got, gotEv := run(closed, arb, noFuse, true)
				if want.Shed == 0 || want.Retries == 0 || want.Preemptions == 0 {
					t.Fatalf("closed=%v %v noFuse=%v: the trace must exercise shedding, retry, and preemption; got shed %d, retries %d, preempts %d",
						closed, arb, noFuse, want.Shed, want.Retries, want.Preemptions)
				}
				want.Wall, got.Wall = serving.WallClock{}, serving.WallClock{}
				if !reflect.DeepEqual(want, got) {
					t.Errorf("closed=%v %v noFuse=%v: one-node cluster report differs from the engine's:\nengine  %+v\ncluster %+v", closed, arb, noFuse, want, got)
				}
				var wantLog, gotLog bytes.Buffer
				if err := obs.WriteJSONL(&wantLog, wantEv); err != nil {
					t.Fatal(err)
				}
				if err := obs.WriteJSONL(&gotLog, gotEv); err != nil {
					t.Fatal(err)
				}
				if !bytes.Equal(wantLog.Bytes(), gotLog.Bytes()) {
					t.Errorf("closed=%v %v noFuse=%v: one-node cluster event log (%d events) differs from the engine's (%d events)",
						closed, arb, noFuse, len(gotEv), len(wantEv))
				}
				if !noFuse {
					fused, fusedLog = want, wantLog.Bytes()
				} else if !reflect.DeepEqual(fused, want) || !bytes.Equal(fusedLog, wantLog.Bytes()) {
					t.Errorf("closed=%v %v: the fused engine's report or event log differs from the per-session engine's:\nfused       %+v\nper-session %+v", closed, arb, fused, want)
				}
				t.Logf("closed=%v %v noFuse=%v: %d events, shed %d, retries %d, preempts %d", closed, arb, noFuse, len(wantEv), want.Shed, want.Retries, want.Preemptions)
			}
		}
	}
}
