package cluster

import (
	"fmt"

	"repro/internal/serving"
	"repro/internal/serving/faults"
	"repro/internal/serving/obs"
)

// This file is the cluster's failure-detection layer: the per-node health
// state machine, the deterministic heartbeat failure detector, and the
// bridge from unscripted node chaos (faults.NodePlan) into the same
// lifecycle machine the scripted Failures feed.
//
// Ground truth and the detector's view are deliberately separate. Ground
// truth — is node n actually down at tick t? — is a pure function of the
// scripted failure windows and the chaos plan's stateless crash draws. The
// detector only sees heartbeats: one per node per tick, missing exactly
// while the node is dead. The gap between the two views is the detection
// lag the reports price: requests routed onto a dead-but-not-yet-confirmed
// node are stranded, and failover migration happens at the confirmation
// tick, not the failure tick.

// Health is the detector's view of one node.
type Health int

const (
	// Healthy nodes take placements normally.
	Healthy Health = iota
	// Suspect nodes missed two consecutive heartbeats (see
	// Detect.missSuspect); the router avoids them while any healthy
	// candidate remains.
	Suspect
	// Down nodes missed MissConfirm heartbeats and were evacuated; they
	// take no placements until a heartbeat returns.
	Down
	// Rejoining nodes came back from Down and are in warm-up probation:
	// they take placements only while lightly loaded, and return to
	// Healthy once the probation window passes with live heartbeats.
	Rejoining
)

// String names the health state; the names double as obs event details
// (see obs.DetailNames), which the keep-in-sync tests pin.
func (h Health) String() string {
	switch h {
	case Healthy:
		return obs.DetailHealthy
	case Suspect:
		return obs.DetailSuspect
	case Down:
		return obs.DetailDown
	case Rejoining:
		return obs.DetailRejoining
	default:
		return "invalid"
	}
}

// HealthNames lists the health states in declaration order.
func HealthNames() []string {
	return []string{obs.DetailHealthy, obs.DetailSuspect, obs.DetailDown, obs.DetailRejoining}
}

// DetectModes lists the failure-detector modes Detect.Mode accepts.
func DetectModes() []string { return []string{"heartbeat", "oracle", "off"} }

// Detect tunes the cluster's failure detector. The zero value is the
// heartbeat detector at the default thresholds.
type Detect struct {
	// Mode selects the detector: "heartbeat" (the default — suspicion
	// counted from missed heartbeats, failover at confirmation),
	// "oracle" (zero detection lag: confirmation at the ground-truth
	// crash tick, the upper bound any real detector is priced against),
	// or "off" (no detection and no failover — stranded work stays
	// frozen on the dead node until its restart, the lower bound).
	Mode string
	// MissConfirm is how many consecutive missed heartbeats confirm a
	// node Down and trigger failover (0 = default 4).
	MissConfirm int
}

// probationTicks is the warm-up window a rejoining node serves before it
// counts as fully Healthy again.
const probationTicks = 8

// missSuspect is how many consecutive missed heartbeats mark a node
// Suspect: two, or fewer when the confirmation budget is tighter.
func (d Detect) missSuspect() int { return min(2, d.MissConfirm) }

// Validate reports the first invalid Detect field by name.
func (d Detect) Validate() error {
	switch d.Mode {
	case "", "heartbeat", "oracle", "off":
	default:
		return fmt.Errorf("cluster: Detect.Mode must be one of heartbeat|oracle|off, got %q", d.Mode)
	}
	if d.MissConfirm < 0 {
		return fmt.Errorf("cluster: Detect.MissConfirm must be non-negative (0 = default 4), got %d", d.MissConfirm)
	}
	return nil
}

// withDefaults resolves the zero fields. The oracle is the heartbeat
// detector with a confirmation budget of one miss — the crash tick itself —
// so its lag is zero by construction, whatever budget was asked for.
func (d Detect) withDefaults() Detect {
	if d.Mode == "" {
		d.Mode = "heartbeat"
	}
	if d.MissConfirm == 0 {
		d.MissConfirm = 4
	}
	if d.Mode == "oracle" {
		d.MissConfirm = 1
	}
	return d
}

// deadAt is ground truth: whether node is actually down at tick, from the
// scripted failure windows or the chaos plan's stateless crash draws.
func (c *Cluster) deadAt(tick, node int) bool {
	for _, f := range c.cfg.Failures {
		if f.Node == node && tick >= f.Tick && tick < f.Tick+f.Ticks {
			return true
		}
	}
	return c.plan != nil && c.plan.Dead(tick, node)
}

// missesAt counts the consecutive ticks up to and including tick with no
// heartbeat from node — a node beats exactly while it is alive — capped at
// MissConfirm (past the confirmation threshold the exact count no longer
// matters). The backward scan keeps the count a pure function of the tick
// clock, so fast-forwarded idle ticks can never skew the detector.
func (c *Cluster) missesAt(tick, node int) int {
	bound := c.detect.MissConfirm
	for d := 0; d <= bound && d <= tick; d++ {
		if !c.deadAt(tick-d, node) {
			return d
		}
	}
	if tick < bound {
		return tick + 1
	}
	return bound
}

// emitHealth emits one detector event on the node's recorder (no-op with
// tracing off). Detector events carry Slot -1 and the health-state detail.
func (c *Cluster) emitHealth(tick, node int, kind obs.Kind, detail string) {
	if c.recs[node] != nil {
		c.recs[node].Emit(obs.Event{Tick: tick, Slot: -1, Kind: kind, Detail: detail})
	}
}

// confirmDown declares the node Down and fails it over. Both detectors
// confirm only on a tick the node is ground-truth dead (a heartbeat is
// missing only then), so every confirm has a crash tick to measure its
// detection lag against. Active sessions are evacuated with their live
// stream and cache state, and every stranded request re-routes with retry
// backoff.
func (c *Cluster) confirmDown(tick, node int) error {
	c.health[node] = Down
	c.confirms++
	c.emitHealth(tick, node, obs.KindConfirm, obs.DetailDown)
	c.detectLag += tick - c.crashTick[node]
	migs := c.nodes[node].Evacuate(tick)
	for _, mig := range migs {
		sess := mig.Sess
		if sess.State() == serving.Queued && c.strandAttempts[sess.Index] > 0 {
			// Retry accounting for stranded requests: the re-route backs
			// off like a faulted session's retry, de-synchronized by the
			// seeded jitter, so failover does not thundering-herd the
			// survivors.
			nb := tick + faults.RetryPolicy{}.Backoff(c.cfg.Seed, sess.Index, c.strandAttempts[sess.Index])
			if nb > sess.NotBefore {
				sess.NotBefore = nb
			}
		}
	}
	return c.migrate(migs, tick)
}

// detectTick runs one serial detector pass over every node, in node order,
// before the tick's routing: ground-truth crash/restart edges feed the
// lifecycle tallies, and the configured detector advances each node's
// health state. With chaos off and every node healthy this is a pure
// scalar scan — zero allocations per tick (pinned by a test).
func (c *Cluster) detectTick(tick int) error {
	for n := range c.nodes {
		dead := c.deadAt(tick, n)
		if dead && !c.wasDead[n] {
			c.crashTick[n] = tick
			c.failures++
		}
		if dead {
			c.deadTicks++
		}
		c.wasDead[n] = dead
		if c.detectOff {
			continue
		}
		// Heartbeat detector (the oracle too, at MissConfirm 1 — see
		// withDefaults): a node beats exactly while it is alive.
		if dead && c.health[n] != Down {
			c.hbMisses++
			c.emitHealth(tick, n, obs.KindHeartbeatMiss, "")
		}
		switch c.health[n] {
		case Down:
			if !dead {
				// A heartbeat from a Down node is the rejoin signal.
				c.startRejoin(tick, n)
			}
		case Rejoining:
			switch {
			case c.missesAt(tick, n) >= c.detect.MissConfirm:
				// Crashed again during probation.
				if err := c.confirmDown(tick, n); err != nil {
					return err
				}
			case tick >= c.probation[n] && !dead:
				c.health[n] = Healthy
				c.emitHealth(tick, n, obs.KindRejoin, obs.DetailHealthy)
			}
		default: // Healthy or Suspect
			switch m := c.missesAt(tick, n); {
			case m >= c.detect.MissConfirm:
				if err := c.confirmDown(tick, n); err != nil {
					return err
				}
			case m >= c.detect.missSuspect():
				if c.health[n] == Healthy {
					c.health[n] = Suspect
					c.suspects++
					c.emitHealth(tick, n, obs.KindSuspect, obs.DetailSuspect)
				}
			default:
				// Heartbeats resumed before confirmation: quietly clear
				// the suspicion.
				c.health[n] = Healthy
			}
		}
	}
	if len(c.parked) > 0 {
		// A prior failover found no routable node; re-place the parked
		// migrants now that the detector pass may have readmitted one
		// (migrate re-parks, in order, whatever still has nowhere to go).
		migs := c.parked
		c.parked = nil
		return c.migrate(migs, tick)
	}
	return nil
}

// startRejoin moves a Down node into warm-up probation.
func (c *Cluster) startRejoin(tick, node int) {
	c.health[node] = Rejoining
	c.probation[node] = tick + probationTicks
	c.rejoins++
	c.emitHealth(tick, node, obs.KindRejoin, obs.DetailRejoining)
}

// noteStrand records a placement that landed on a ground-truth-dead node:
// the request sits frozen until the detector confirms the node Down (or,
// detector off, until the node restarts). Each strand bumps the request's
// attempt count, which scales its failover backoff.
func (c *Cluster) noteStrand(node, tick, idx int, id string) {
	if !c.wasDead[node] {
		return
	}
	c.stranded++
	c.strandAttempts[idx]++
	if c.recs[node] != nil {
		c.recs[node].Emit(obs.Event{Tick: tick, Slot: -1, Kind: obs.KindStrand, Session: id})
	}
}

// armed reports whether the clock must advance tick by tick for the
// detector: unscripted chaos can draw a crash on any tick, and any node
// that is dead or not plainly Healthy has pending detector transitions.
// With chaos off and every node healthy the cluster fast-forwards exactly
// as before.
func (c *Cluster) armed() bool {
	if c.plan != nil || len(c.parked) > 0 || len(c.held) > 0 {
		return true
	}
	for n := range c.nodes {
		if c.wasDead[n] || c.health[n] != Healthy {
			return true
		}
	}
	return false
}
