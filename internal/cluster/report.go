package cluster

import (
	"fmt"
	"slices"
	"time"

	"repro/internal/serving"
	"repro/internal/serving/obs"
)

// NodeReport is one replica's slice of the cluster run.
type NodeReport struct {
	// Report is the node's own engine report. Sessions appear on the node
	// they finished on; a migrated session is struck from its source.
	Report *serving.Report
}

// Report rolls one cluster run up. Apart from Wall (and each node report's
// Wall), every field is deterministic — bit-identical across runs, worker
// counts, and decode paths for a fixed seed.
type Report struct {
	// Report is the rollup, serving.Merge over the node reports: counters
	// and token totals add, SimTokS and Goodput add the node rates (replicas
	// decode concurrently, each against its own simulated memory system),
	// HitRate comes from the summed raw hit/miss totals, and the
	// percentiles from the merged session set — never averaged node
	// ratios. Its Wall is the cluster's own.
	serving.Report
	// Sessions counts the session rows across the nodes: every request, once
	// the run drains. It shadows the rollup's row slice, which a merge
	// leaves nil; the rows live in Nodes.
	Sessions int
	Nodes    []NodeReport

	// Router metrics: per-node placement counts (migrations excluded — a
	// migrated session keeps its original placement credit), imbalance
	// (max/mean placements — 1.0 is a perfect spread), and live-stream
	// migrations.
	Placements []int
	Imbalance  float64
	Migrations int
	// Requeues counts fresh (not-yet-admitted) queue entries re-routed off
	// a draining or failing node — placement paperwork, not live-stream
	// migrations.
	Requeues int
	// Failures counts ground-truth crash onsets (scripted and unscripted).
	Failures int

	// Failure-detector metrics. HeartbeatMisses/Suspects/Confirms/Rejoins
	// tally the detector's transitions; Stranded counts placements made
	// onto already-dead nodes (re-routed with backoff at confirmation —
	// or, detector off, frozen until the node restarts). MeanDetectLag is
	// the mean crash→confirmation lag per confirm (each is of a
	// ground-truth-dead node) — the measured cost the zero-lag oracle mode
	// sets to 0. Availability is the fraction of node-ticks the cluster's
	// nodes were actually up.
	HeartbeatMisses int
	Suspects        int
	Confirms        int
	Rejoins         int
	Stranded        int
	MeanDetectLag   float64
	Availability    float64

	// Counts is the Tally of every node's event log when Config.Obs was
	// set (nil otherwise) — the input to ReconcileObs.
	Counts *obs.Counts
}

func (c *Cluster) report(ticks int, wall time.Duration) *Report {
	r := &Report{
		Nodes:      make([]NodeReport, len(c.nodes)),
		Placements: append([]int(nil), c.placements...),
		Migrations: c.migrations, Requeues: c.requeues, Failures: c.failures,
		HeartbeatMisses: c.hbMisses, Suspects: c.suspects, Confirms: c.confirms,
		Rejoins: c.rejoins, Stranded: c.stranded,
	}
	reps := make([]*serving.Report, len(c.nodes))
	for n, e := range c.nodes {
		reps[n] = e.Finalize(ticks)
		r.Nodes[n].Report = reps[n]
		r.Sessions += len(reps[n].Sessions)
	}
	r.Report = *serving.Merge(reps...)
	r.Wall = serving.WallClock{Seconds: wall.Seconds()}
	if r.Wall.Seconds > 0 {
		r.Wall.TokS = float64(r.TotalTokens) / r.Wall.Seconds
	}
	if r.Confirms > 0 {
		r.MeanDetectLag = float64(c.detectLag) / float64(r.Confirms)
	}
	r.Availability = 1
	if ticks > 0 && len(c.nodes) > 0 {
		r.Availability = 1 - float64(c.deadTicks)/float64(ticks*len(c.nodes))
	}
	if total := sum(r.Placements); total > 0 {
		r.Imbalance = float64(slices.Max(r.Placements)) / (float64(total) / float64(len(r.Placements)))
	}
	if c.cfg.Obs != nil {
		merged := obs.Tally(c.recs...)
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
	rows := make([][]serving.SessionMetrics, len(r.Nodes))
	for n, nr := range r.Nodes {
		rows[n] = nr.Report.Sessions
	}
	c := *r.Counts
	return serving.Reconcile("cluster", append(serving.ObsChecks(c, &r.Report, rows...),
		serving.ObsCheck{Name: "migrate-suspend events vs Report.Migrations", Events: c.Migrations, Counter: r.Migrations},
		serving.ObsCheck{Name: "heartbeat-miss events vs Report.HeartbeatMisses", Events: c.HeartbeatMisses, Counter: r.HeartbeatMisses},
		serving.ObsCheck{Name: "suspect events vs Report.Suspects", Events: c.Suspects, Counter: r.Suspects},
		serving.ObsCheck{Name: "confirm events vs Report.Confirms", Events: c.Confirms, Counter: r.Confirms},
		serving.ObsCheck{Name: "rejoin events vs Report.Rejoins", Events: c.Rejoins, Counter: r.Rejoins},
		serving.ObsCheck{Name: "strand events vs Report.Stranded", Events: c.Stranded, Counter: r.Stranded},
	))
}
