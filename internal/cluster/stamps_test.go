package cluster

import (
	"bytes"
	"encoding/json"
	"testing"

	"repro/internal/serving"
	"repro/internal/serving/faults"
	"repro/internal/serving/obs"
)

// stamps are the per-session facts a report row keeps that the event log
// can rebuild on its own.
type stamps struct {
	AdmitTick, FinishTick                                        int
	Preemptions, Faults, Retries, ResumeDelayTicks, RecoverTicks int
}

// stampsFromLog rebuilds every session's stamps from exported JSONL alone.
// Each event adds to its session's stamps independently of the others, so
// the rebuild does not depend on how a merged log orders two nodes' events
// within a tick: every suspension except a migration hop ends in exactly one
// resume, so the ticks spent suspended are Σ resume ticks − Σ suspend ticks,
// and the fault-recovery ticks the same sum over the "fault" suspensions
// (step faults and revocations alike) and their resumes.
func stampsFromLog(t *testing.T, log []byte) map[string]*stamps {
	t.Helper()
	out := map[string]*stamps{}
	dec := json.NewDecoder(bytes.NewReader(log))
	for dec.More() {
		var ev struct {
			Tick                  int
			Kind, Session, Detail string
		}
		if err := dec.Decode(&ev); err != nil {
			t.Fatal(err)
		}
		if ev.Session == "" {
			continue
		}
		s := out[ev.Session]
		if s == nil {
			s = &stamps{}
			out[ev.Session] = s
		}
		sign := 1
		switch ev.Kind {
		case "admit":
			s.AdmitTick = ev.Tick
		case "finish", "shed", "degrade":
			s.FinishTick = ev.Tick
		case "fault":
			if ev.Detail != obs.DetailCancel {
				s.Faults++
			}
		case "retry":
			s.Retries++
		case "suspend":
			if ev.Detail == obs.DetailMigrate {
				break
			}
			if ev.Detail == obs.DetailPreempt {
				s.Preemptions++
			}
			sign = -1
			fallthrough
		case "resume":
			s.ResumeDelayTicks += sign * ev.Tick
			if ev.Detail == obs.DetailFault {
				s.RecoverTicks += sign * ev.Tick
			}
		}
	}
	return out
}

// checkStamps holds every row to the stamps its session's events rebuild,
// and fails if the log names a session no row reports.
func checkStamps(t *testing.T, log []byte, rows ...[]serving.SessionMetrics) {
	t.Helper()
	fromLog := stampsFromLog(t, log)
	n := 0
	for _, sms := range rows {
		for _, sm := range sms {
			n++
			want := stamps{sm.AdmitTick, sm.FinishTick, sm.Preemptions, sm.Faults, sm.Retries, sm.ResumeDelayTicks, sm.RecoverTicks}
			if got := fromLog[sm.ID]; got == nil || *got != want {
				t.Errorf("session %q: the event log rebuilds %+v, the row reports %+v", sm.ID, got, want)
			}
		}
	}
	if n != len(fromLog) {
		t.Errorf("the event log names %d sessions, the rows report %d", len(fromLog), n)
	}
}

// Every per-session stamp a report row carries is written where it happens
// — admit, displace, resume, terminate — and each of those sites also logs
// an event, so the exported log alone must rebuild every row's stamps
// exactly. One engine run covers preemption, step faults with retries, a
// revocation and shedding at the door; one cluster run adds failover
// migration and a drain, where a session's events come from two nodes.
func TestRowStampsReplayFromTheEventLog(t *testing.T) {
	trained(t)
	t.Run("engine", func(t *testing.T) {
		reqs := requests(t, 8,
			func(int) string { return "t" },
			func(i int) int { return 1 + i%3 },
			func(i int) serving.SLO {
				if i%2 == 0 {
					return serving.SLO{Class: "interactive", Priority: 2, DeadlineTicks: 12 + 4*i}
				}
				return serving.SLO{Class: "batch"}
			})
		rec := obs.NewRecorder(obs.Config{})
		cfg := nodeCfg(serving.ArbFairShare, 2)
		cfg.Preempt, cfg.Obs, cfg.ShedQueueBudget = serving.DeadlinePreempt(), rec, 3
		cfg.Retry = faults.RetryPolicy{MaxAttempts: 3}
		cfg.Faults = must(faults.Scripted(
			faults.Event{Tick: 2, Kind: faults.Step, Slot: 0},
			faults.Event{Tick: 5, Kind: faults.Step, Slot: 1},
			faults.Event{Tick: 7, Kind: faults.Revoke, Slot: 0},
		))(t)
		e := must(serving.NewEngine(zoo.m, cfg, must(serving.PoissonArrivals(reqs, 1, 7))(t)))(t)
		rep := must(e.Run())(t)
		if rep.Preemptions == 0 || rep.StepFaults == 0 || rep.Revocations == 0 || rep.Retries == 0 || rep.Shed == 0 {
			t.Fatalf("scenario broken: want preemptions, step faults, a revocation, retries and sheds, got %+v", rep)
		}
		checkStamps(t, jsonl(t, rec.Events()), rep.Sessions)
	})
	t.Run("cluster", func(t *testing.T) {
		reqs := requests(t, 8,
			func(i int) string { return []string{"hot", "t1", "t2"}[i%3] },
			func(i int) int { return 2 + i%2 },
			func(i int) serving.SLO {
				if i%2 == 0 {
					return serving.SLO{Class: "interactive", Priority: 2, DeadlineTicks: 64}
				}
				return serving.SLO{Class: "batch"}
			})
		cfg := Config{
			Nodes: []serving.Config{
				nodeCfg(serving.ArbExclusive, 2),
				nodeCfg(serving.ArbFairShare, 1),
				nodeCfg(serving.ArbExclusive, 1),
			},
			Router: must(ParseRouter("least-loaded"))(t), Seed: 19,
			DrainTick: 9, DrainNode: 2,
			Failures: []Failure{{Node: 1, Tick: 5, Ticks: 12}},
			Obs:      &obs.Config{},
		}
		c, rep := drain(t, "stamps", cfg, must(serving.PoissonArrivals(reqs, 0.5, 3))(t))
		if rep.Migrations == 0 {
			t.Fatalf("scenario broken: no session migrated: %+v", rep)
		}
		rows := make([][]serving.SessionMetrics, len(rep.Nodes))
		for n, nr := range rep.Nodes {
			rows[n] = nr.Report.Sessions
		}
		checkStamps(t, jsonl(t, c.Events()), rows...)
	})
}
