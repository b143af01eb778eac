package cluster

import (
	"bytes"
	"encoding/json"
	"fmt"
	"strings"
	"testing"

	"repro/internal/eval"
	"repro/internal/serving"
	"repro/internal/serving/faults"
	"repro/internal/serving/obs"
	"repro/internal/sparsity"
)

// chaosRow is the pinned unscripted-chaos scenario the detector tests
// share: three single-slot exclusive nodes, nine deadlined sessions on
// Poisson arrivals, seeded node chaos (crashes with timed restarts), and the
// requested detector. Everything is deterministic for the pinned seeds, so
// the assertions on it are exact pins, not expectations.
func chaosRow(t *testing.T, det Detect, chaos faults.NodeChaos) row {
	reqs := requests(t, 9,
		func(i int) string { return fmt.Sprintf("t%d", i%4) },
		func(i int) int { return 2 },
		func(i int) serving.SLO {
			return serving.SLO{Class: "interactive", Priority: 2, DeadlineTicks: 64}
		})
	return row{
		name: fmt.Sprintf("chaos %s seed=%d rate=%v", det.Mode, chaos.Seed, chaos.CrashRate),
		cfg: Config{
			Nodes:  replicas(3, serving.ArbExclusive, 1),
			Router: LeastLoaded(), Seed: 23,
			Chaos:  chaos,
			Detect: det,
		},
		w: func(t *testing.T) serving.Workload { return must(serving.PoissonArrivals(reqs, 0.25, 7))(t) },
	}
}

func runChaos(t *testing.T, mode string, chaosSeed uint64, rate float64) *Report {
	t.Helper()
	r := chaosRow(t, Detect{Mode: mode}, faults.NodeChaos{Seed: chaosSeed, CrashRate: rate, RecoverTicks: 20})
	r.cfg.Obs = &obs.Config{Window: 8}
	return run(t, r.cfg, r.w(t))
}

// The health-state names double as obs event details; both directions of
// that contract are pinned here (dipbench re-checks it at the CLI layer).
func TestHealthNamesAreObsDetails(t *testing.T) {
	states := []Health{Healthy, Suspect, Down, Rejoining}
	names := HealthNames()
	if len(states) != len(names) {
		t.Fatalf("HealthNames lists %d names for %d states", len(names), len(states))
	}
	details := obs.DetailNames()
	for i, h := range states {
		if h.String() != names[i] {
			t.Errorf("state %d stringifies to %q, HealthNames says %q", i, h.String(), names[i])
		}
		found := false
		for _, d := range details {
			if d == h.String() {
				found = true
			}
		}
		if !found {
			t.Errorf("health state %q is not a registered obs detail", h.String())
		}
	}
	for _, mode := range DetectModes() {
		if err := (Detect{Mode: mode}).Validate(); err != nil {
			t.Errorf("listed detector mode %q does not validate: %v", mode, err)
		}
	}
}

// Satellite: lifecycle/chaos validation — conflicting or out-of-range
// configs must come back as named errors at New, not as mid-run surprises.
func TestClusterLifecycleValidationNamedErrors(t *testing.T) {
	trained(t)
	reqs := requests(t, 2,
		func(i int) string { return "v" },
		func(i int) int { return 2 },
		func(i int) serving.SLO { return serving.SLO{} })
	base := func() Config {
		return Config{
			Nodes:  replicas(2, serving.ArbExclusive, 1),
			Router: LeastLoaded(), Seed: 5,
		}
	}
	cases := []struct {
		name string
		mut  func(*Config)
		want string
	}{
		{"failure overlapping drain", func(c *Config) {
			c.DrainTick, c.DrainNode = 10, 1
			c.Failures = []Failure{{Node: 1, Tick: 6, Ticks: 8}}
		}, "overlaps the drain"},
		{"crash rate above one", func(c *Config) { c.Chaos.CrashRate = 1.5 }, "CrashRate"},
		{"negative crash rate", func(c *Config) { c.Chaos.CrashRate = -0.1 }, "CrashRate"},
		{"negative recover ticks", func(c *Config) {
			c.Chaos.CrashRate, c.Chaos.RecoverTicks = 0.1, -1
		}, "RecoverTicks"},
		{"unknown detector mode", func(c *Config) { c.Detect.Mode = "psychic" }, "Detect.Mode"},
		{"negative confirm threshold", func(c *Config) { c.Detect.MissConfirm = -2 }, "MissConfirm"},
		{"negative obs window", func(c *Config) { c.Obs = &obs.Config{Window: -1} }, "cluster: Config.Obs.Window"},
		{"chaos on a single node", func(c *Config) {
			c.Nodes = c.Nodes[:1]
			c.Chaos.CrashRate = 0.1
		}, "at least 2 nodes"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			cfg := base()
			tc.mut(&cfg)
			if _, err := New(zoo.m, cfg, serving.FixedBatch(reqs)); err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("error %v does not name %q", err, tc.want)
			}
		})
	}
	// A failure strictly before the drain on the same node stays legal.
	cfg := base()
	cfg.DrainTick, cfg.DrainNode = 40, 1
	cfg.Failures = []Failure{{Node: 1, Tick: 6, Ticks: 8}}
	if _, err := New(zoo.m, cfg, serving.FixedBatch(reqs)); err != nil {
		t.Fatalf("failure ending before the drain rejected: %v", err)
	}
}

// The headline, pinned on a seeded chaos trace with crashes and recoveries:
// detection lag is a real, measured cost. The zero-lag oracle bounds the
// heartbeat detector from above, the detector-off run (stranded work frozen
// until restart) from below, and the detector's mean lag is strictly
// positive while the oracle's is exactly zero.
func TestDetectionLagIsPricedAgainstOracleAndOff(t *testing.T) {
	trained(t)
	hb := runChaos(t, "heartbeat", 29, 0.02)
	or := runChaos(t, "oracle", 29, 0.02)
	off := runChaos(t, "off", 29, 0.02)

	if hb.Failures == 0 || hb.Rejoins == 0 {
		t.Fatalf("scenario broken: %d crashes, %d rejoins — chaos did not exercise crash+recover", hb.Failures, hb.Rejoins)
	}
	if hb.MeanDetectLag <= 0 {
		t.Fatalf("heartbeat detector shows no detection lag: mean %v", hb.MeanDetectLag)
	}
	if or.MeanDetectLag != 0 {
		t.Fatalf("oracle detector shows nonzero lag: mean %v", or.MeanDetectLag)
	}
	if off.Confirms != 0 || off.Migrations != 0 {
		t.Fatalf("detector-off run still confirmed (%d) or failed over (%d)", off.Confirms, off.Migrations)
	}
	if hb.Confirms == 0 || hb.Migrations == 0 {
		t.Fatalf("heartbeat detector never failed over: %d confirms, %d migrations", hb.Confirms, hb.Migrations)
	}
	if or.SLOAttainRate < hb.SLOAttainRate {
		t.Fatalf("zero-lag oracle attains %v, below the lagged detector's %v", or.SLOAttainRate, hb.SLOAttainRate)
	}
	if hb.SLOAttainRate <= off.SLOAttainRate {
		t.Fatalf("detector attainment %v does not beat the detector-off baseline %v", hb.SLOAttainRate, off.SLOAttainRate)
	}
	if hb.Availability <= 0 || hb.Availability >= 1 {
		t.Fatalf("availability %v not in (0, 1) despite real outages", hb.Availability)
	}
	// The two detecting modes replay the same trace and see the same ground
	// truth (the off run drags on longer, so later chaos draws may add
	// crashes there — run length is part of ground truth, not a free knob).
	if hb.Failures != or.Failures {
		t.Fatalf("detector modes disagree on ground-truth crashes: hb=%d oracle=%d", hb.Failures, or.Failures)
	}
}

// With heartbeats lost only to death, a confirm can only name a dead node:
// every confirm event lands on a tick where ground truth says the node is
// down, so each one carries a detection-lag sample — the ticks back to that
// outage's onset — and the report's mean is the plain per-confirm mean of
// those samples, across chaos seeds, miss budgets and outage lengths, for
// the heartbeat detector and the oracle alike.
func TestEveryConfirmIsOfADeadNode(t *testing.T) {
	trained(t)
	confirms := 0
	for _, seed := range []uint64{19, 29, 41} {
		for _, miss := range []int{1, 2, 4} {
			for _, recover := range []int{6, 20} {
				for _, mode := range []string{"heartbeat", "oracle"} {
					r := chaosRow(t, Detect{Mode: mode, MissConfirm: miss},
						faults.NodeChaos{Seed: seed, CrashRate: 0.04, RecoverTicks: recover})
					r.cfg.Obs = &obs.Config{}
					name := fmt.Sprintf("seed=%d miss=%d recover=%d %s", seed, miss, recover, mode)
					c, rep := drain(t, name, r.cfg, r.w(t))
					n, lag := 0, 0
					for _, ev := range c.Events() {
						if ev.Kind != obs.KindConfirm {
							continue
						}
						n++
						if !c.deadAt(ev.Tick, ev.Node) {
							t.Errorf("%s: node %d confirmed Down at tick %d while alive", name, ev.Node, ev.Tick)
						}
						onset := ev.Tick
						for onset > 0 && c.deadAt(onset-1, ev.Node) {
							onset--
						}
						lag += ev.Tick - onset
					}
					if n != rep.Confirms {
						t.Errorf("%s: %d confirm events, report counts %d", name, n, rep.Confirms)
					}
					if n > 0 && rep.MeanDetectLag != float64(lag)/float64(n) {
						t.Errorf("%s: mean lag %v is not %d ticks over %d confirms", name, rep.MeanDetectLag, lag, n)
					}
					confirms += n
				}
			}
		}
	}
	if confirms == 0 {
		t.Fatal("no cell confirmed a node: the table exercised nothing")
	}
}

// The chaos acceptance pin: one unscripted crash+recover run — detector,
// stranded placements, rejoins and all — must be bit-identical across the
// variant matrix: rolled-up report via DeepEqual, merged event log byte for
// byte. Run under -race this also proves the detector never races the node
// fan-out.
func TestClusterChaosDeterministicAcrossWorkerCountsAndFuse(t *testing.T) {
	trained(t)
	r := chaosRow(t, Detect{Mode: "heartbeat"}, faults.NodeChaos{Seed: 19, CrashRate: 0.04, RecoverTicks: 20})
	r.guard = func(t *testing.T, o outcome) {
		if rep := o.rep; rep.Rejoins == 0 || rep.Stranded == 0 || rep.MeanDetectLag == 0 {
			t.Fatalf("scenario broken: rejoins=%d stranded=%d lag=%v", rep.Rejoins, rep.Stranded, rep.MeanDetectLag)
		}
	}
	matrix(t, r)
}

// A crashed node that recovers rejoins behind warm-up probation and then
// serves new sessions bit-identical to a node that never failed: the
// session placed onto the rejoined node must reproduce an uninterrupted
// solo SystemEvaluate exactly — cold caches change nothing about a fresh
// session's decode.
func TestRejoinedNodeServesNewSessionsBitIdenticalToSolo(t *testing.T) {
	trained(t)
	// Fixed arrival ticks via a trace: session "a" at tick 0 lands on node
	// 0 and decodes throughout; node 1 crashes at tick 1, restarts at tick
	// 9, and is mid-probation when "b" arrives at tick 12 — the least-loaded
	// router places "b" on the rejoining node (one unit of warm-up work is
	// allowed) while node 0 is still busy.
	w := must(serving.TraceWorkload([]serving.TraceEntry{
		{ID: "a", Tick: 0, Tokens: 96, Start: 0},
		{ID: "b", Tick: 12, Tokens: 96, Start: 256},
	}, serving.TraceBinder{
		Corpus: zoo.tokens,
		Scheme: func(string) (sparsity.Scheme, error) { return sparsity.NewDIPCA(0.5, 0.2), nil },
	}))(t)
	cfg := Config{
		Nodes:  replicas(2, serving.ArbExclusive, 1),
		Router: LeastLoaded(), Seed: 5,
		Failures: []Failure{{Node: 1, Tick: 1, Ticks: 8}},
		Obs:      &obs.Config{},
	}
	rep := run(t, cfg, w)
	// Node 1 is the only node that crashes, so the cluster's tallies are
	// its own.
	if rep.Failures != 1 || rep.Rejoins != 1 {
		t.Fatalf("node 1 lifecycle: %d crashes, %d rejoins, want 1/1", rep.Failures, rep.Rejoins)
	}
	n1 := rep.Nodes[1]
	if len(n1.Report.Sessions) != 1 || n1.Report.Sessions[0].ID != "b" {
		t.Fatalf("rejoined node served %+v, want exactly session b", n1.Report.Sessions)
	}
	sm := n1.Report.Sessions[0]
	if sm.Outcome != serving.OutcomeOK {
		t.Fatalf("session b finished %q, want ok", sm.Outcome)
	}
	solo := must(eval.SystemEvaluate(zoo.m, sparsity.NewDIPCA(0.5, 0.2), zoo.tokens[256:352], sysCfg()))(t)
	if sm.Point != solo {
		t.Fatalf("rejoined node diverged from a never-failed node:\nserved %+v\nsolo   %+v", sm.Point, solo)
	}
	if rep.Stranded != 0 || rep.Migrations != 0 {
		t.Fatalf("scenario drifted: %d stranded, %d migrations, want a clean rejoin placement", rep.Stranded, rep.Migrations)
	}
}

// Satellite: the fair-share suspend-resume spec, pinned at cluster level.
// A session evacuated off a crashed fair-share node releases its partition,
// so the failover resume re-fills a cold cache: with a cache-independent
// scheme (plain DIP, as in the single-engine spec) decode quality stays
// bit-equal to the same session in an undisturbed cluster, the cache hit
// rate strictly drops, and the wasted re-prefill work is priced in cluster
// goodput — same tokens, strictly lower goodput.
func TestClusterFailoverUnderFairPaysReprefillNotQuality(t *testing.T) {
	trained(t)
	arb := serving.ArbFairShare
	runFail := func(fail bool) *Report {
		reqs := make([]serving.Request, 2)
		for i := range reqs {
			lo := i * 256
			reqs[i] = serving.Request{
				ID:     fmt.Sprintf("solo/s%02d", i),
				Scheme: sparsity.NewDIP(0.5),
				Tokens: zoo.tokens[lo : lo+96],
			}
		}
		cfg := Config{
			Nodes:  replicas(2, arb, 1),
			Router: LeastLoaded(), Seed: 5,
		}
		if fail {
			// Node 1 crashes at tick 2 — mid-decode for its session —
			// and never comes back; the detector confirms and evacuates.
			cfg.Failures = []Failure{{Node: 1, Tick: 2, Ticks: 1000}}
		}
		return run(t, cfg, serving.FixedBatch(reqs))
	}
	base := runFail(false)
	fail := runFail(true)
	if fail.Migrations != 1 {
		t.Fatalf("arb=%v: expected exactly one failover migration, got %d", arb, fail.Migrations)
	}
	sess := func(r *Report, id string) serving.SessionMetrics {
		for _, nr := range r.Nodes {
			for _, sm := range nr.Report.Sessions {
				if sm.ID == id {
					return sm
				}
			}
		}
		t.Fatalf("arb=%v: no session %q", arb, id)
		return serving.SessionMetrics{}
	}
	for _, id := range []string{"solo/s00", "solo/s01"} {
		b, f := sess(base, id), sess(fail, id)
		if f.Outcome != serving.OutcomeOK {
			t.Fatalf("arb=%v: session %q finished %q, want ok", arb, id, f.Outcome)
		}
		if f.Point.PPL != b.Point.PPL || f.Point.Density != b.Point.Density {
			t.Fatalf("arb=%v: failover changed session %q decode quality:\nfail %+v\nbase %+v", arb, id, f.Point, b.Point)
		}
	}
	// The migrated session (node 1's at placement, finishing on node 0)
	// pays the cold re-prefill in hit rate.
	migrated := ""
	for _, sm := range base.Nodes[1].Report.Sessions {
		migrated = sm.ID
	}
	if migrated == "" {
		t.Fatalf("arb=%v: baseline placed nothing on node 1", arb)
	}
	bm, fm := sess(base, migrated), sess(fail, migrated)
	if fm.Point.HitRate >= bm.Point.HitRate {
		t.Fatalf("arb=%v: cold failover resume did not cost session %q hit rate: %v vs %v",
			arb, migrated, fm.Point.HitRate, bm.Point.HitRate)
	}
	// Same tokens served, strictly lower goodput: the re-prefill ticks
	// are wasted work the cluster pays for.
	if fail.TotalTokens != base.TotalTokens || fail.GoodTokens != base.GoodTokens {
		t.Fatalf("arb=%v: failover changed token totals: %d/%d vs %d/%d",
			arb, fail.TotalTokens, fail.GoodTokens, base.TotalTokens, base.GoodTokens)
	}
	if fail.Goodput >= base.Goodput {
		t.Fatalf("arb=%v: failover wasted work is not priced in goodput: %v vs %v",
			arb, fail.Goodput, base.Goodput)
	}
}

// Satellite: with chaos off and every node healthy the detector pass is a
// pure scalar scan — zero allocations per tick, so clusters that never
// crash pay nothing for the detection machinery.
func TestDetectTickZeroAllocWhenChaosOff(t *testing.T) {
	trained(t)
	reqs := requests(t, 2,
		func(i int) string { return "z" },
		func(i int) int { return 2 },
		func(i int) serving.SLO { return serving.SLO{} })
	c := must(New(zoo.m, Config{
		Nodes:  replicas(2, serving.ArbExclusive, 1),
		Router: LeastLoaded(), Seed: 5,
	}, serving.FixedBatch(reqs)))(t)
	allocs := testing.AllocsPerRun(200, func() {
		if err := c.detectTick(7); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Fatalf("detector pass allocates %v objects/tick with chaos off, want 0", allocs)
	}
}

// Shared and partitioned nodes exchange sessions: a stream commits alone or
// in its engine's shared sub-step as that engine decodes it, so the chaos
// scenario on one node of each arbitration policy — sessions failing over
// across the shared/partitioned boundary — holds every variant, the
// end-of-run invariants and ReconcileObs.
func TestMixedArbitrationClusterUnderChaos(t *testing.T) {
	trained(t)
	r := chaosRow(t, Detect{Mode: "heartbeat"}, faults.NodeChaos{Seed: 19, CrashRate: 0.04, RecoverTicks: 20})
	r.name = "mixed arbitration " + r.name
	r.cfg.Nodes = []serving.Config{
		nodeCfg(serving.ArbShared, 2),
		nodeCfg(serving.ArbFairShare, 2),
		nodeCfg(serving.ArbExclusive, 1),
	}
	r.guard = func(t *testing.T, o outcome) {
		// A session with events on node 0 and on another node crossed.
		sides := map[string][2]bool{}
		crossed := 0
		for _, line := range bytes.Split(bytes.TrimSpace(o.log), []byte("\n")) {
			var ev struct {
				Node    int
				Session string
			}
			if err := json.Unmarshal(line, &ev); err != nil {
				t.Fatal(err)
			}
			if ev.Session == "" {
				continue
			}
			s := sides[ev.Session]
			if s[0] && s[1] {
				continue
			}
			s[min(ev.Node, 1)] = true
			if sides[ev.Session] = s; s[0] && s[1] {
				crossed++
			}
		}
		if o.rep.Migrations == 0 || crossed == 0 {
			t.Fatalf("scenario broken: %d migrations, %d sessions crossed between shared and partitioned nodes", o.rep.Migrations, crossed)
		}
	}
	matrix(t, r)
}

// A suspended session migrates partitioned→shared and back: evacuated off
// a failed fair-share node onto a shared one and, when that one fails,
// back to the recovered fair-share node, it finishes there at the share of
// its last grant. DIP reads no cache, so its perplexity and density equal
// an uninterrupted solo evaluation's whichever way each token committed.
func TestSuspendedSessionMigratesAcrossArbitration(t *testing.T) {
	trained(t)
	toks := zoo.tokens[:6*32]
	req := serving.Request{ID: "solo/s00", Scheme: sparsity.NewDIP(0.5), Tokens: toks}
	cfg := Config{
		Nodes:  []serving.Config{nodeCfg(serving.ArbFairShare, 2), nodeCfg(serving.ArbShared, 2)},
		Router: LeastLoaded(), Seed: 5,
		Detect: Detect{Mode: "oracle"},
		// Node 0 fails mid-decode and recovers; node 1 fails after the
		// session reached it, and stays down.
		Failures: []Failure{{Node: 0, Tick: 2, Ticks: 6}, {Node: 1, Tick: 20, Ticks: 1000}},
	}
	rep := run(t, cfg, serving.FixedBatch([]serving.Request{req}))
	if rep.Migrations != 2 {
		t.Fatalf("%d migrations, want 2: partitioned to shared and back", rep.Migrations)
	}
	sm := rep.Nodes[0].Report.Sessions
	if len(sm) != 1 || sm[0].Outcome != serving.OutcomeOK {
		t.Fatalf("node 0 reports %+v, want the session finished ok", sm)
	}
	if sm[0].Share != 0.5 {
		t.Fatalf("finished at share %v, want its last grant's 0.5", sm[0].Share)
	}
	solo := must(eval.SystemEvaluate(zoo.m, sparsity.NewDIP(0.5), toks, sysCfg()))(t)
	if got := sm[0].Point; got.PPL != solo.PPL || got.Density != solo.Density {
		t.Fatalf("migrated session diverged from solo evaluation:\nserved %+v\nsolo   %+v", got, solo)
	}
}
