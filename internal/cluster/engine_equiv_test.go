package cluster

import (
	"fmt"
	"testing"

	"repro/internal/serving"
	"repro/internal/serving/faults"
)

// Engine.Run and Cluster.Run are both serving.Drive; what can still differ
// is the Control each passes. A one-node cluster with no drain, failures, or
// chaos has nothing for its Control to do, so it must be indistinguishable
// from the bare engine — node report and event log, the matrix's bare-engine
// variant — on a run where preemption, fault retry, and shedding all fire.
// The closed-loop rows put the feedback path through the cluster's Control:
// arrivals shed at the door and terminations on a tick that decoded nothing
// both reach the workload, which only then schedules the user's next
// request. They are also where fused ≡ per-session is held on a ClosedLoop
// workload.
func TestOneNodeClusterEqualsEngine(t *testing.T) {
	trained(t)
	reqs := requests(t, 22,
		func(i int) string { return "t" },
		func(i int) int { return 1 + i%3 },
		func(i int) serving.SLO {
			if i%2 == 0 {
				return serving.SLO{Class: "interactive", Priority: 2, DeadlineTicks: 24 + 4*(i%5)}
			}
			return serving.SLO{Class: "batch"}
		})
	open := func(t *testing.T) serving.Workload { return must(serving.PoissonArrivals(reqs, 0.7, 5))(t) }
	closed := func(t *testing.T) serving.Workload {
		// Eleven users, two requests each, all knocking at tick 0: six find
		// the queue at budget.
		scripts := make([][]serving.Request, 11)
		for u := range scripts {
			scripts[u] = reqs[2*u : 2*u+2]
		}
		return must(serving.ClosedLoop(scripts, 3))(t)
	}
	mix := must(faults.Mix(0.08, 41))(t)
	for _, arb := range serving.Policies() {
		cfg := nodeCfg(arb, 2)
		cfg.Preempt, cfg.Faults, cfg.ShedQueueBudget = serving.DeadlinePreempt(), mix, 5
		for i, w := range []func(*testing.T) serving.Workload{open, closed} {
			name := fmt.Sprintf("%s %v", [...]string{"open", "closed"}[i], arb)
			matrix(t, row{name: name, w: w, cfg: Config{Nodes: []serving.Config{cfg}, Seed: cfg.Seed},
				guard: func(t *testing.T, o outcome) {
					if n := o.rep.Nodes[0].Report; n.Shed == 0 || n.Retries == 0 || n.Preemptions == 0 {
						t.Fatalf("%s: the trace must exercise shedding, retry, and preemption; got shed %d, retries %d, preempts %d",
							name, n.Shed, n.Retries, n.Preemptions)
					}
				}})
		}
	}
}
