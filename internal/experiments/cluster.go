package experiments

import (
	"fmt"
	"slices"
	"strings"

	"repro/internal/cluster"
	"repro/internal/serving"
	"repro/internal/serving/faults"
	"repro/internal/serving/obs"
	"repro/internal/sparsity"
)

// ClusterServe benchmarks the deterministic sim-cluster (internal/cluster):
// N replica serving engines on one shared tick clock behind a pluggable
// session router, over a grid of node count × router policy × arbitration.
// The trace is deliberately tenant-skewed — ~75% of sessions belong to one
// "hot" tenant — so the session-affine hash router hot-spots a node while
// least-loaded and SLO-aware spread the same trace, and the imbalance and
// attainment columns price the difference. Each multi-node cell also
// replays the identical trace through two lifecycle scenarios: an
// administrative drain of the last node (placements stop, its queue
// migrates) and a fault-injected node failure (the node's sessions are
// evacuated mid-decode and fail over, live stream and cache state carried
// across the hop). Every column except the wall annotation runs on the
// simulated tick clock and is bit-identical for a fixed -seed, any worker
// count, either decode path; every run's rolled-up report is reconciled
// against its merged per-node event log.
func ClusterServe(l *Lab) ([]*Table, error) {
	s := l.Serve
	x := l.requestMix(12, 24, 9)
	svcTicks := x.svcTicks
	scheme := sparsity.NewDIPCA(0.5, 0.2)
	const slotsPerNode = 2
	nodesAxis := []int{1, 3}
	if s.Nodes > 0 {
		nodesAxis = []int{s.Nodes}
	}
	// The deadline is sized so the spread cluster attains it while a
	// hot-spotted node's serial backlog misses from the third wave on.
	deadline := x.deadline(slotsPerNode * slices.Max(nodesAxis))

	makeWorkload := func(nodes int) (serving.Workload, error) {
		// Skew: three of four sessions belong to the hot tenant; the rest
		// are singleton tenants. The router's affinity key is the prefix
		// before '/'.
		reqs := x.requests(scheme, deadline, func(i int) string {
			if i%4 != 3 {
				return fmt.Sprintf("hot/s%02d", i)
			}
			return fmt.Sprintf("t%02d/s%02d", i, i)
		})
		// Every node count faces the same per-capacity load.
		return x.poisson(reqs, nodes*slotsPerNode)
	}

	routers, err := axis(s.Router, func(name string) (string, error) {
		_, err := cluster.ParseRouter(name)
		return name, err
	}, cluster.RouterNames()...)
	if err != nil {
		return nil, err
	}
	arbs, err := axis(s.Arb, serving.ParseArbPolicy, serving.ArbExclusive, serving.ArbFairShare)
	if err != nil {
		return nil, err
	}

	// runScenario replays the cell's seeded trace through a cluster
	// configured for it, optionally with a drain, a failure or node chaos
	// scripted in (failNode picks the "fail" outage target), as
	// Lab.runEngine runs an engine cell: the report is reconciled against
	// the merged per-node event log, and under -events that log is exported
	// as n<N>-<router>-<arb>-<scenario>. The heartbeat chaos replay, the
	// measured system, keeps the shorter name "chaos".
	runScenario := func(nodes int, routerName string, arb serving.ArbPolicy, scenario string, failNode int) (*cluster.Report, error) {
		router, err := cluster.ParseRouter(routerName)
		if err != nil {
			return nil, err
		}
		nodeCfgs := make([]serving.Config, nodes)
		for i := range nodeCfgs {
			nodeCfgs[i] = serving.Config{
				System: x.sys, Arb: arb, Sched: serving.EDF(),
				MaxActive: slotsPerNode, Quantum: quantum, Seed: s.Seed,
			}
		}
		cfg := cluster.Config{
			Nodes: nodeCfgs, Router: router, Seed: s.Seed,
			Obs: &obs.Config{Window: s.ObsWindow},
		}
		switch scenario {
		case "steady":
		case "drain":
			cfg.DrainTick = s.DrainTick
			if cfg.DrainTick <= 0 {
				cfg.DrainTick = svcTicks
			}
			cfg.DrainNode = nodes - 1
		case "fail":
			cfg.Failures = []cluster.Failure{{Node: failNode, Tick: svcTicks / 2, Ticks: svcTicks}}
		case "chaos-heartbeat", "chaos-oracle", "chaos-off":
			rt := s.RecoverTicks
			if rt <= 0 {
				rt = svcTicks / 2
			}
			cfg.Chaos = faults.NodeChaos{
				Seed: s.Seed + 2, CrashRate: s.NodeChaos, RecoverTicks: rt,
			}
			cfg.Detect = cluster.Detect{
				Mode:        strings.TrimPrefix(scenario, "chaos-"),
				MissConfirm: s.DetectMiss,
			}
		}
		w, err := makeWorkload(nodes)
		if err != nil {
			return nil, err
		}
		c, err := cluster.New(x.m, cfg, w)
		if err != nil {
			return nil, err
		}
		rep, err := c.Run()
		if err != nil {
			return nil, err
		}
		cell := fmt.Sprintf("n%d-%s-%s-%s", nodes, routerName, arb, strings.TrimSuffix(scenario, "-heartbeat"))
		if err := rep.ReconcileObs(); err != nil {
			return nil, fmt.Errorf("cell %s: %w", cell, err)
		}
		return rep, l.writeCellEvents(cell, c.Events)
	}

	out := &Table{
		ID:    "cluster",
		Title: "Sim-cluster grid: session routing, drain, and failover across replica engines on a skewed-tenant trace",
		Columns: []string{"nodes", "router", "policy", "sessions", "slots",
			"sim_tok_s", "goodput", "hit_rate", "slo_attain", "imbalance",
			"queue_p50_t", "turn_p99_t", "drain_moved", "drain_attain",
			"fail_migr", "fail_goodput",
			"detect_lag", "rejoins", "stranded",
			"chaos_attain", "oracle_attain", "off_attain",
			"wall_tok_s"},
	}
	for _, nodes := range nodesAxis {
		rs := routers
		if nodes == 1 && s.Router == "" {
			// With one node every router degenerates to the same placement;
			// one representative row is enough.
			rs = routers[:1]
		}
		for _, routerName := range rs {
			for _, arb := range arbs {
				rep, err := runScenario(nodes, routerName, arb, "steady", 0)
				if err != nil {
					return nil, err
				}
				drainMoved, drainAttain := any("-"), any("-")
				failMigr, failGoodput := any("-"), any("-")
				if nodes > 1 {
					drain, err := runScenario(nodes, routerName, arb, "drain", 0)
					if err != nil {
						return nil, err
					}
					drainMoved, drainAttain = drain.Migrations+drain.Requeues, drain.SLOAttainRate
					// The failover replay targets the steady run's
					// most-loaded node (lowest index on ties) — the
					// worst-case outage, and a pure function of the steady
					// placements so the whole row stays deterministic.
					hottest := 0
					for n, p := range rep.Placements {
						if p > rep.Placements[hottest] {
							hottest = n
						}
					}
					fail, err := runScenario(nodes, routerName, arb, "fail", hottest)
					if err != nil {
						return nil, err
					}
					failMigr, failGoodput = fail.Migrations, fail.Goodput
				}
				detectLag, rejoins, stranded := any("-"), any("-"), any("-")
				attain := []any{"-", "-", "-"}
				if nodes > 1 && s.NodeChaos > 0 {
					// The chaos replay: the same trace under unscripted
					// crash+recover chaos, once per detector mode, in the
					// attainment columns' order. The heartbeat run is the
					// measured system, the zero-lag oracle bounds it from
					// above, and the detector-off run (stranded work frozen
					// until restart) from below.
					for i, mode := range cluster.DetectModes() {
						chaos, err := runScenario(nodes, routerName, arb, "chaos-"+mode, 0)
						if err != nil {
							return nil, err
						}
						if mode == "heartbeat" {
							detectLag, rejoins, stranded = chaos.MeanDetectLag, chaos.Rejoins, chaos.Stranded
						}
						attain[i] = chaos.SLOAttainRate
					}
				}
				out.AddRow(nodes, routerName, arb.String(), rep.Sessions, slotsPerNode,
					rep.SimTokS, rep.Goodput, rep.HitRate, rep.SLOAttainRate, rep.Imbalance,
					rep.QueueP50, rep.TurnaroundP99, drainMoved, drainAttain,
					failMigr, failGoodput,
					detectLag, rejoins, stranded,
					attain[0], attain[1], attain[2],
					rep.Wall.TokS)
			}
		}
	}
	out.Notes = append(out.Notes,
		"every column except wall_tok_s runs on the shared simulated tick clock and is bit-identical for a fixed -seed, any worker count, fused or per-session decode",
		fmt.Sprintf("the trace is tenant-skewed (3 of 4 sessions share one tenant); interactive sessions carry priority 2 and a %d-tick deadline (dipbench -slo overrides)", deadline),
		"imbalance is max/mean per-node placements (1.0 = perfect spread); the session-affine hash router concentrates the hot tenant on one node by design",
		"drain_* replays the cell's trace with the last node administratively drained mid-run: placements stop, its queue moves to survivors (drain_moved counts migrations + fresh re-routes), active sessions finish locally",
		"fail_* replays it with the steady run's most-loaded node failing mid-run: active sessions are evacuated and fail over with their stream and cache state carried to surviving nodes (fail_migr counts live-stream migrations)",
		"every run's rolled-up report is reconciled against its merged per-node event log (cluster-level: per-node books cannot balance under migration)",
	)
	if s.NodeChaos > 0 {
		out.Notes = append(out.Notes,
			fmt.Sprintf("chaos_* replays the cell's trace under unscripted node chaos (-node-chaos %g: seeded per-tick crash draws with timed restarts and rejoin probation): detect_lag is the heartbeat detector's mean crash-to-confirmation lag in ticks, stranded counts placements made onto dead-but-unconfirmed nodes, and chaos/oracle/off_attain price that lag — the zero-lag oracle bounds the detector from above, detection-off (work frozen until restart) from below", s.NodeChaos))
	}
	if s.Events != "" {
		out.Notes = append(out.Notes,
			"with -events each scenario wrote <prefix>-n<N>-<router>-<arb>-<scenario> merged event logs (scenario steady, drain, fail, chaos, chaos-oracle or chaos-off; node field disambiguates replicas)")
	}
	return []*Table{out}, nil
}
