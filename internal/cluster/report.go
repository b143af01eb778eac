package cluster

import (
	"fmt"
	"time"

	"repro/internal/serving"
	"repro/internal/serving/obs"
)

// NodeReport is one replica's slice of the cluster run.
type NodeReport struct {
	Node int
	// Drained / FailedTicks record the node's lifecycle: whether it was
	// administratively drained, and how many executed ticks it spent
	// ground-truth dead.
	Drained     bool
	FailedTicks int
	// Crashes counts ground-truth outage onsets (scripted and unscripted);
	// DetectLagTicks sums, over this node's confirmed real crashes, the
	// ticks between the crash and the detector's confirmation.
	Crashes        int
	DetectLagTicks int
	// StrandedRequests counts placements the router made onto this node
	// while it was already dead; Rejoins counts its returns from Down into
	// warm-up probation.
	StrandedRequests int
	Rejoins          int
	// Placements counts arrivals the router admitted to this node
	// (migrations excluded — a migrated session keeps its original
	// placement credit).
	Placements int
	// Report is the node's own engine report. Sessions appear on the node
	// they finished on; a migrated session is struck from its source.
	Report *serving.Report
}

// Report rolls one cluster run up: the per-node reports plus router and
// lifecycle metrics. Apart from Wall (and each node report's Wall), every
// field is deterministic — bit-identical across runs, worker counts, and
// decode paths for a fixed seed.
type Report struct {
	Router   string
	Workload string
	Ticks    int
	Nodes    []NodeReport

	// Rollup over every node's sessions: counts, token totals, exact
	// cluster-wide cache hit rate (from the nodes' raw hit/miss totals),
	// and latency/queueing percentiles recomputed over the merged session
	// set — not averaged node ratios.
	Sessions    int
	TotalTokens int
	GoodTokens  int
	// SimTokS / Goodput sum the node rates: replicas decode concurrently,
	// each against its own simulated memory system.
	SimTokS float64
	Goodput float64
	HitRate float64

	QueueP50, QueueP99           float64
	TurnaroundP50, TurnaroundP99 float64
	Deadlined, Attained          int
	SLOAttainRate                float64
	Classes                      []serving.ClassMetrics

	Preemptions, Retries, Failed, Shed int

	// Router metrics: per-node placement counts, imbalance (max/mean
	// placements — 1.0 is a perfect spread), and cross-node queueing: the
	// total and per-migrant mean ticks migrated sessions spent suspended
	// (their ResumeDelayTicks, which spans the node hop).
	Placements []int
	Imbalance  float64
	Migrations int
	// Requeues counts fresh (not-yet-admitted) queue entries re-routed off
	// a draining or failing node — placement paperwork, not live-stream
	// migrations.
	Requeues          int
	MigratedWaitTicks int
	MeanMigrantWait   float64

	// Lifecycle tallies: drains performed and ground-truth crash onsets.
	Drains, Failures int

	// Failure-detector metrics. HeartbeatMisses/Suspects/Confirms/Rejoins
	// tally the detector's transitions; Stranded counts placements made
	// onto already-dead nodes (re-routed with backoff at confirmation —
	// or, detector off, frozen until the node restarts). DetectLagTicks
	// sums crash→confirmation lag over the confirms (each is of a
	// ground-truth-dead node) and MeanDetectLag is its per-confirm mean —
	// the measured cost the zero-lag oracle mode sets to 0. Availability is
	// the fraction of node-ticks the cluster's nodes were actually up.
	HeartbeatMisses int
	Suspects        int
	Confirms        int
	Rejoins         int
	Stranded        int
	DetectLagTicks  int
	MeanDetectLag   float64
	Availability    float64

	// Counts is the merged per-node event tally when Config.Obs was set
	// (nil otherwise) — the input to ReconcileObs.
	Counts *obs.Counts

	// Wall is the host-measured annotation, outside the determinism
	// contract.
	Wall serving.WallClock
}

func (c *Cluster) report(ticks int, wall time.Duration) *Report {
	r := &Report{
		Router: c.router.Name(), Workload: c.w.Name(), Ticks: ticks,
		Placements: append([]int(nil), c.placements...),
		Migrations: c.migrations, Requeues: c.requeues,
		Drains: c.drains, Failures: c.failures,
		HeartbeatMisses: c.hbMisses, Suspects: c.suspects, Confirms: c.confirms,
		Wall: serving.WallClock{Seconds: wall.Seconds()},
	}
	var hits, misses int64
	sets := make([][]serving.SessionMetrics, len(c.nodes))
	for n, e := range c.nodes {
		nr := e.Finalize(ticks)
		r.Nodes = append(r.Nodes, NodeReport{
			Node: n, Drained: c.drained[n], FailedTicks: c.failTicks[n],
			Crashes: c.crashes[n], DetectLagTicks: c.detectLagN[n],
			StrandedRequests: c.strandedN[n], Rejoins: c.rejoinsN[n],
			Placements: c.placements[n], Report: nr,
		})
		r.Rejoins += c.rejoinsN[n]
		r.Stranded += c.strandedN[n]
		r.DetectLagTicks += c.detectLagN[n]
		r.TotalTokens += nr.TotalTokens
		r.GoodTokens += nr.GoodTokens
		r.SimTokS += nr.SimTokS
		r.Goodput += nr.Goodput
		hits += nr.CacheHits
		misses += nr.CacheMisses
		r.Preemptions += nr.Preemptions
		r.Retries += nr.Retries
		r.Failed += nr.Failed
		r.Shed += nr.Shed
		sets[n] = nr.Sessions
		r.Sessions += len(nr.Sessions)
	}
	if t := hits + misses; t > 0 {
		r.HitRate = float64(hits) / float64(t)
	}
	if r.Wall.Seconds > 0 {
		r.Wall.TokS = float64(r.TotalTokens) / r.Wall.Seconds
	}
	agg := serving.Summarize(sets...)
	r.QueueP50, r.QueueP99 = agg.QueueP50, agg.QueueP99
	r.TurnaroundP50, r.TurnaroundP99 = agg.TurnaroundP50, agg.TurnaroundP99
	r.Deadlined, r.Attained, r.SLOAttainRate = agg.Deadlined, agg.Attained, agg.AttainRate
	r.Classes = agg.Classes
	for _, sms := range sets {
		for i := range sms {
			if c.migrated[sms[i].Index] {
				r.MigratedWaitTicks += sms[i].ResumeDelayTicks
			}
		}
	}
	if r.Migrations > 0 {
		r.MeanMigrantWait = float64(r.MigratedWaitTicks) / float64(r.Migrations)
	}
	if r.Confirms > 0 {
		r.MeanDetectLag = float64(r.DetectLagTicks) / float64(r.Confirms)
	}
	r.Availability = 1
	if ticks > 0 && len(c.nodes) > 0 {
		r.Availability = 1 - float64(c.deadTicks)/float64(ticks*len(c.nodes))
	}
	if total := sum(r.Placements); total > 0 {
		mean := float64(total) / float64(len(r.Placements))
		maxP := 0
		for _, p := range r.Placements {
			if p > maxP {
				maxP = p
			}
		}
		r.Imbalance = float64(maxP) / mean
	}
	if c.cfg.Obs != nil {
		merged := obs.Counts{}
		for _, rec := range c.recs {
			merged.Add(rec.Counts())
		}
		r.Counts = &merged
	}
	return r
}

func sum(xs []int) int {
	total := 0
	for _, x := range xs {
		total += x
	}
	return total
}

// ReconcileObs cross-checks the merged per-node event counts against the
// rolled-up report — the cluster analogue of serving.Report.ReconcileObs.
// Per-node reconciliation cannot hold under migration (a session admits on
// its source and finishes on its target), but the cluster-wide sums must:
// both sides count each decision exactly once on whichever node made it.
func (r *Report) ReconcileObs() error {
	if r.Counts == nil {
		return fmt.Errorf("cluster: report carries no merged event counts (run with Config.Obs set)")
	}
	nodes := make([]*serving.Report, len(r.Nodes))
	for n := range r.Nodes {
		nodes[n] = r.Nodes[n].Report
	}
	c := *r.Counts
	return serving.Reconcile("cluster", append(serving.ObsChecks(c, nodes...),
		serving.ObsCheck{Name: "migrate-suspend events vs Report.Migrations", Events: c.Migrations, Counter: r.Migrations},
		serving.ObsCheck{Name: "heartbeat-miss events vs Report.HeartbeatMisses", Events: c.HeartbeatMisses, Counter: r.HeartbeatMisses},
		serving.ObsCheck{Name: "suspect events vs Report.Suspects", Events: c.Suspects, Counter: r.Suspects},
		serving.ObsCheck{Name: "confirm events vs Report.Confirms", Events: c.Confirms, Counter: r.Confirms},
		serving.ObsCheck{Name: "rejoin events vs Report.Rejoins", Events: c.Rejoins, Counter: r.Rejoins},
		serving.ObsCheck{Name: "strand events vs Report.Stranded", Events: c.Stranded, Counter: r.Stranded},
	))
}
