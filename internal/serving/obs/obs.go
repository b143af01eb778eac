// Package obs is the serving engine's deterministic observability layer: a
// structured event bus on the simulated tick clock plus tick-bucketed
// moving-window telemetry.
//
// The engine emits one Event per control-plane decision — arrivals,
// admission, suspensions, faults, retries, grants, releases, per-tick batch
// steps and shared-cache commits, and terminal finishes — always from the
// serial engine loop, never from inside a parallel decode phase. Event
// order is therefore the engine loop's own deterministic order: for a fixed
// seed the full event log is bit-identical across runs, worker counts, and
// the fused/unfused decode paths, so a trace file is a reproducible
// artifact, not a sample.
//
// The log is the one record of those decisions: Tally derives the counts
// reconciliation reads from it, for one recorder or a cluster's. Beside it,
// a Recorder keeps two moving-window trackers (decoded throughput and
// admission-queue depth) with windows measured in simulated ticks, exposed
// through Snapshot, which the serve grid's obs columns read.
// Exporters serialize the event log as JSONL or as Chrome trace-event JSON
// (see export.go).
//
// A nil *Recorder is the disabled observer: the engine guards every
// emission site on it, so tracing off adds zero allocations and no detail
// formatting to the tick hot path.
package obs

import (
	"encoding/json"
	"fmt"
	"slices"
)

// Kind classifies an engine decision.
type Kind int

const (
	// KindArrive: a request arrived from the workload (detail: SLO class).
	KindArrive Kind = iota
	// KindShed: an arrival was rejected by admission control at the door.
	KindShed
	// KindDegrade: a queued best-effort entry was shed by graceful
	// degradation under sustained pressure.
	KindDegrade
	// KindAdmit: a fresh queue entry was admitted to a slot (detail: class).
	KindAdmit
	// KindResume: a suspended session was re-placed into a slot (detail:
	// the suspension cause it returns from — preempt, fault, or dip).
	KindResume
	// KindGrant: the arbiter granted a cache share (detail: "share=F").
	KindGrant
	// KindRelease: a fair-share or revoked cache grant was released.
	KindRelease
	// KindSuspend: a running session left its slot with its stream retained
	// (detail: preempt, fault, dip, or migrate — the latter emitted by the
	// source node when a cluster moves the session elsewhere; Slot is -1,
	// the session was already parked in the queue).
	KindSuspend
	// KindFault: an injected fault landed on a running session (detail:
	// step, revoke, or cancel).
	KindFault
	// KindRetry: a faulted session was granted a re-placement (detail:
	// "attempt=N backoff=B").
	KindRetry
	// KindStepBatch: the engine advanced the active batch one tick
	// (detail: "width=N"; Slot is -1 — a batch-level event).
	KindStepBatch
	// KindCommit: the tick's buffered shared-cache accesses were committed
	// in slot order (ArbShared only; detail: "width=N").
	KindCommit
	// KindFinish: a session reached its terminal state (detail: the
	// Outcome — ok, failed, or cancelled; SubStep carries the 1-based
	// sub-quantum drain step for ok finishes).
	KindFinish
	// KindHeartbeatMiss: the cluster's failure detector saw no heartbeat
	// from this node at an executed tick (Slot is -1 — a node-level event,
	// like every detector kind below).
	KindHeartbeatMiss
	// KindSuspect: consecutive misses crossed the suspicion threshold; the
	// router stops preferring the node (detail: DetailSuspect).
	KindSuspect
	// KindConfirm: misses crossed the confirmation threshold; the node is
	// declared down and its work evacuates (detail: DetailDown).
	KindConfirm
	// KindRejoin: a down node's heartbeat returned (detail:
	// DetailRejoining — warm-up probation begins) or its probation ended
	// (detail: DetailHealthy — full candidate again).
	KindRejoin
	// KindStrand: the router placed a request on a node that was already
	// dead but not yet confirmed — the request is stranded until the
	// detector confirms and re-routes it with backoff.
	KindStrand

	numKinds
)

var kindNames = [numKinds]string{
	"arrive", "shed", "degrade", "admit", "resume", "grant", "release",
	"suspend", "fault", "retry", "step-batch", "commit", "finish",
	"hb-miss", "suspect", "confirm", "rejoin", "strand",
}

func (k Kind) String() string {
	if k < 0 || k >= numKinds {
		return fmt.Sprintf("kind(%d)", int(k))
	}
	return kindNames[k]
}

// MarshalJSON serializes the kind as its registry name, so JSONL logs and
// Chrome traces are self-describing.
func (k Kind) MarshalJSON() ([]byte, error) {
	if k < 0 || k >= numKinds {
		return nil, fmt.Errorf("obs: cannot marshal unknown event kind %d", int(k))
	}
	return []byte(`"` + kindNames[k] + `"`), nil
}

// UnmarshalJSON parses a registry name back into its kind, the inverse of
// MarshalJSON, so an exported JSONL line decodes into an Event. An unknown
// name is an error that names it.
func (k *Kind) UnmarshalJSON(data []byte) error {
	var name string
	if err := json.Unmarshal(data, &name); err != nil {
		return fmt.Errorf("obs: event kind %s is not a string", data)
	}
	i := slices.Index(kindNames[:], name)
	if i < 0 {
		return fmt.Errorf("obs: unknown event kind %q", name)
	}
	*k = Kind(i)
	return nil
}

// Detail constants for the kinds whose detail field is an enumeration;
// Tally switches on these.
const (
	DetailPreempt   = "preempt"
	DetailFault     = "fault"
	DetailDip       = "dip"
	DetailMigrate   = "migrate"
	DetailStep      = "step"
	DetailRevoke    = "revoke"
	DetailCancel    = "cancel"
	DetailOK        = "ok"
	DetailFailed    = "failed"
	DetailCancelled = "cancelled"
	DetailHealthy   = "healthy"
	DetailSuspect   = "suspect"
	DetailDown      = "down"
	DetailRejoining = "rejoining"
)

// DetailNames lists every enumerated Detail value, in declaration order —
// the registry keep-in-sync tests check emitters (e.g. the cluster's
// health-state names) against.
func DetailNames() []string {
	return []string{
		DetailPreempt, DetailFault, DetailDip, DetailMigrate,
		DetailStep, DetailRevoke, DetailCancel,
		DetailOK, DetailFailed, DetailCancelled,
		DetailHealthy, DetailSuspect, DetailDown, DetailRejoining,
	}
}

// Event is one engine decision on the simulated tick clock.
type Event struct {
	// Tick is the simulated tick the decision was made on. SubStep is the
	// 1-based sub-quantum offset within the tick where one is defined
	// (finish events); 0 means tick granularity.
	Tick    int `json:"tick"`
	SubStep int `json:"substep,omitempty"`
	// Node identifies the engine that emitted the event in a multi-node
	// merge (see MergeEvents). Single-engine logs leave it 0, and the
	// omitempty keeps their serialized form unchanged.
	Node int `json:"node,omitempty"`
	// Slot is the batch slot the event concerns at the time of the event
	// (slots compact as sessions retire), or -1 for engine-level events
	// (arrivals, shedding, batch steps, commits).
	Slot int `json:"slot"`
	// Kind classifies the decision; Session names the request it concerns
	// ("" for batch- and node-level events); Detail carries the kind-specific
	// qualifier documented on each Kind constant.
	Kind    Kind   `json:"kind"`
	Session string `json:"session,omitempty"`
	Detail  string `json:"detail,omitempty"`
}

// Counts is the event log's tally by kind (and detail, where the detail is
// an enumeration), as Tally reads it. The serving report reconciles these
// against its own counters — see serving.Report.ReconcileObs — so silent
// metrics drift between the event stream and the aggregate report fails
// loudly; a kind no reconciliation row reads has no tally.
type Counts struct {
	Arrivals      int `json:"arrivals"`
	ShedArrivals  int `json:"shed_arrivals"`
	Degraded      int `json:"degraded"`
	Admits        int `json:"admits"`
	Preemptions   int `json:"preemptions"`
	FaultSuspends int `json:"fault_suspends"`
	Migrations    int `json:"migrations"`
	StepFaults    int `json:"step_faults"`
	Revocations   int `json:"revocations"`
	Cancellations int `json:"cancellations"`
	Retries       int `json:"retries"`
	FinishedOK    int `json:"finished_ok"`
	Failed        int `json:"failed"`
	Cancelled     int `json:"cancelled"`
	// Failure-detector kinds (cluster runs only; zero for single engines).
	// Rejoins counts probation starts (DetailRejoining), not probation ends.
	HeartbeatMisses int `json:"heartbeat_misses,omitempty"`
	Suspects        int `json:"suspects,omitempty"`
	Confirms        int `json:"confirms,omitempty"`
	Rejoins         int `json:"rejoins,omitempty"`
	Stranded        int `json:"stranded,omitempty"`
}

// Tally counts the events in the recorders' logs: the one mapping from an
// event to a tally, so the counts of a cluster are those of its merged log.
// It reads each recorder's chunks in place and allocates nothing.
func Tally(recs ...*Recorder) Counts {
	var c Counts
	for _, r := range recs {
		for cur := (cursor{c: r.head, left: r.n}); cur.left > 0; cur.advance() {
			switch ev := cur.peek(); ev.Kind {
			case KindArrive:
				c.Arrivals++
			case KindShed:
				c.ShedArrivals++
			case KindDegrade:
				c.Degraded++
			case KindAdmit:
				c.Admits++
			case KindSuspend:
				switch ev.Detail {
				case DetailPreempt:
					c.Preemptions++
				case DetailFault:
					c.FaultSuspends++
				case DetailMigrate:
					c.Migrations++
				}
			case KindFault:
				switch ev.Detail {
				case DetailStep:
					c.StepFaults++
				case DetailRevoke:
					c.Revocations++
				case DetailCancel:
					c.Cancellations++
				}
			case KindRetry:
				c.Retries++
			case KindFinish:
				switch ev.Detail {
				case DetailOK:
					c.FinishedOK++
				case DetailFailed:
					c.Failed++
				case DetailCancelled:
					c.Cancelled++
				}
			case KindHeartbeatMiss:
				c.HeartbeatMisses++
			case KindSuspect:
				c.Suspects++
			case KindConfirm:
				c.Confirms++
			case KindRejoin:
				if ev.Detail == DetailRejoining {
					c.Rejoins++
				}
			case KindStrand:
				c.Stranded++
			}
		}
	}
	return c
}

// Snapshot is the moving-window view at a tick — every field derives from
// simulated-clock observations, so snapshots are bit-identical across
// worker counts and decode paths.
type Snapshot struct {
	// Tick is the snapshot instant; Window the configured width in ticks.
	// Rates divide by the effective window min(Window, Tick+1), so early
	// snapshots are not diluted by ticks that never happened.
	Tick   int `json:"tick"`
	Window int `json:"window"`
	// TokensPerTick is decoded throughput over the window (all sessions,
	// including work later discarded).
	TokensPerTick float64 `json:"tokens_per_tick"`
	// MeanQueueDepth averages the admission-queue depth at decode time over
	// the window; ticks the engine fast-forwarded past count as empty.
	MeanQueueDepth float64 `json:"mean_queue_depth"`
	// Counts is the Tally of the full event log since the start of the run.
	Counts Counts `json:"counts"`
}

// DefaultWindow is the moving-window width, in simulated ticks, when the
// Config leaves it zero.
const DefaultWindow = 32

// Config tunes a Recorder.
type Config struct {
	// Window is the moving-window width in simulated ticks (0 = the
	// DefaultWindow, 32).
	Window int
}

// Recorder collects the event log and feeds the moving-window trackers. It
// is bound to a single engine run (NewEngine rejects reuse via Bind) and is
// not safe for concurrent use — the engine only touches it from the serial
// control loop, which is exactly what keeps the event order deterministic.
type Recorder struct {
	window int
	bound  bool

	// The log is a list of fixed-size chunks, so no event is copied while
	// it grows.
	head, tail *chunk
	n          int

	tokens *Tracker
	queue  *Tracker
}

// chunkEvents is the number of events per log chunk: 255 events and the
// link fill one 18 KB allocation size class exactly.
const chunkEvents = 255

// chunk is one fixed-size block of the event log.
type chunk struct {
	events [chunkEvents]Event
	next   *chunk
}

// NewRecorder builds a recorder. A negative window is a caller bug and
// panics; code that takes a Config from outside validates it first
// (cluster.New returns a named error before building any recorder).
func NewRecorder(cfg Config) *Recorder {
	if cfg.Window < 0 {
		panic(fmt.Sprintf("obs: Config.Window must be non-negative (0 = default %d), got %d", DefaultWindow, cfg.Window))
	}
	w := cfg.Window
	if w == 0 {
		w = DefaultWindow
	}
	return &Recorder{window: w, tokens: NewTracker(w), queue: NewTracker(w)}
}

// Bind marks the recorder as owned by one engine run. A recorder carries
// an append-only log and cumulative windows, so sharing one across engines
// would silently merge two runs' telemetry; NewEngine calls Bind and
// surfaces the error as a Config validation failure.
func (r *Recorder) Bind() error {
	if r.bound {
		return fmt.Errorf("obs: recorder already bound to an engine run; build one Recorder per run")
	}
	r.bound = true
	return nil
}

// Emit appends one event to the log.
func (r *Recorder) Emit(ev Event) {
	i := r.n % chunkEvents
	if i == 0 {
		c := new(chunk)
		if r.tail == nil {
			r.head = c
		} else {
			r.tail.next = c
		}
		r.tail = c
	}
	r.tail.events[i] = ev
	r.n++
}

// ObserveDecode records one executed tick's decoded tokens.
func (r *Recorder) ObserveDecode(tick, tokens int) {
	r.tokens.Observe(tick, int64(tokens))
}

// ObserveQueue records the admission-queue depth at decode time.
func (r *Recorder) ObserveQueue(tick, depth int) {
	r.queue.Observe(tick, int64(depth))
}

// Events returns the full event log in emission order: the one-recorder
// MergeEvents, so every exported log, an engine's or a cluster's, is made by
// one merge. Each call builds a fresh slice.
func (r *Recorder) Events() []Event { return MergeEvents(r) }

// Snapshot assembles the moving-window view at the given tick. The engine
// takes one at drain time and attaches it to the Report; callers holding
// the recorder may also sample mid-run between ticks.
func (r *Recorder) Snapshot(tick int) Snapshot {
	s := Snapshot{Tick: tick, Window: r.window, Counts: Tally(r)}
	if span := float64(r.tokens.Span(tick)); span > 0 {
		s.TokensPerTick = float64(r.tokens.Sum(tick)) / span
		s.MeanQueueDepth = float64(r.queue.Sum(tick)) / span
	}
	return s
}

// MergeEvents interleaves per-node event logs into one cluster-wide log:
// each event is stamped with its recorder's index as Node, and the logs are
// k-way merged by (Tick, node index) with intra-node order preserved.
// Engine logs are non-decreasing in Tick, so the merge is a total,
// deterministic order — the cluster's analogue of one engine's log, safe
// to byte-compare across worker counts; one recorder's merge is its own log
// (Recorder.Events). It reads the recorders' chunks in place and allocates
// only the merged slice (for up to eight recorders).
func MergeEvents(recs ...*Recorder) []Event {
	total := 0
	for _, r := range recs {
		total += r.n
	}
	if total == 0 {
		return nil
	}
	var stack [8]cursor
	cur := stack[:0]
	if len(recs) > len(stack) {
		cur = make([]cursor, 0, len(recs))
	}
	for _, r := range recs {
		cur = append(cur, cursor{c: r.head, left: r.n})
	}
	out := make([]Event, total)
	for k := range out {
		best := -1
		for n := range cur {
			if cur[n].left > 0 && (best < 0 || cur[n].peek().Tick < cur[best].peek().Tick) {
				best = n
			}
		}
		out[k] = *cur[best].peek()
		out[k].Node = best
		cur[best].advance()
	}
	return out
}

// cursor walks one recorder's chunks: the next event is c.events[i], and
// left events remain.
type cursor struct {
	c       *chunk
	i, left int
}

func (c *cursor) peek() *Event { return &c.c.events[c.i] }

func (c *cursor) advance() {
	c.left--
	if c.i++; c.i == chunkEvents {
		c.c, c.i = c.c.next, 0
	}
}
