package tune

import (
	"sync"
	"time"

	"txconflict/internal/metrics"
	"txconflict/internal/stm"
)

// decisionLogCap bounds the tuner's decision log; older entries fall
// off.
const decisionLogCap = 32

// Decision is one applied policy change, as rendered in /v1/policy.
type Decision struct {
	Seq     uint64    `json:"seq"`
	At      time.Time `json:"at"`
	Policy  string    `json:"policy"`
	Reasons []string  `json:"reasons"`
}

// PolicyView is the JSON shape of the control plane for remote
// observers: the live policy, whether the tuner is deciding or has
// been manually overridden, and the recent decision log.
type PolicyView struct {
	Policy    string     `json:"policy"`
	Auto      bool       `json:"auto"`
	Swaps     uint64     `json:"swaps"`
	KEstimate float64    `json:"kEstimate"`
	Decisions []Decision `json:"decisions,omitempty"`
}

// Tuner drives the control loop: every interval it snapshots the
// runtime's metrics plane, asks the Controller for a decision over
// the Window since the previous snapshot, and applies any change
// through Runtime.SetPolicy. Step runs one iteration synchronously
// for tests and harnesses that want deterministic pacing; Start runs
// it on a goroutine until Stop.
type Tuner struct {
	rt   *stm.Runtime
	ctl  *Controller
	lazy bool

	mu        sync.Mutex
	prev      metrics.PlaneSnapshot
	prevAt    time.Time
	decisions []Decision
	seq       uint64
	manual    bool

	interval time.Duration
	stop     chan struct{}
	wg       sync.WaitGroup
	started  bool
}

// New builds a Tuner over rt. interval <= 0 defaults to 100ms.
func New(rt *stm.Runtime, lim Limits, interval time.Duration) *Tuner {
	if interval <= 0 {
		interval = 100 * time.Millisecond
	}
	return &Tuner{
		rt:       rt,
		ctl:      NewController(lim),
		lazy:     rt.Config().Lazy,
		prev:     rt.Metrics().Snapshot(),
		prevAt:   time.Now(),
		interval: interval,
	}
}

// Start launches the control loop goroutine. Safe to call once;
// subsequent calls are no-ops.
func (t *Tuner) Start() {
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.started {
		return
	}
	t.started = true
	t.stop = make(chan struct{})
	t.wg.Add(1)
	go func() {
		defer t.wg.Done()
		tick := time.NewTicker(t.interval)
		defer tick.Stop()
		for {
			select {
			case <-t.stop:
				return
			case <-tick.C:
				t.Step()
			}
		}
	}()
}

// Stop halts the control loop and waits for it to exit. The applied
// policy stays in force.
func (t *Tuner) Stop() {
	t.mu.Lock()
	if !t.started {
		t.mu.Unlock()
		return
	}
	t.started = false
	close(t.stop)
	t.mu.Unlock()
	t.wg.Wait()
}

// Step runs one control iteration and reports whether it changed the
// policy. Safe to call concurrently with the Start loop (iterations
// serialize on the tuner lock) and while transactions run.
func (t *Tuner) Step() bool {
	t.mu.Lock()
	defer t.mu.Unlock()
	now := time.Now()
	cur := t.rt.Metrics().Snapshot()
	w := windowOf(&cur, &t.prev, now.Sub(t.prevAt))
	t.prev, t.prevAt = cur, now
	return t.decide(w)
}

// StepWindow runs one control iteration over a caller-supplied
// window instead of differencing the plane: deterministic replay.
// Harnesses use it to drive the controller through a canned sequence
// (a latency-regression drill, a recorded production trace) with the
// tuner's real policy application and decision log, free of wall
// clock noise. It does not disturb the plane snapshot the periodic
// Step differencing uses.
func (t *Tuner) StepWindow(w Window) bool {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.decide(w)
}

// decide asks the controller about one window and applies its answer.
// Caller holds t.mu.
func (t *Tuner) decide(w Window) bool {
	if t.manual {
		return false
	}
	p, reasons := t.ctl.Decide(w, t.rt.KEstimate(), t.lazy, t.rt.Policy())
	if len(reasons) == 0 {
		return false
	}
	t.rt.SetPolicy(p)
	t.record(p.String(), reasons)
	return true
}

// Override applies p manually and suspends automatic decisions until
// Resume — the POST /v1/policy path. The override is logged like any
// decision.
func (t *Tuner) Override(p stm.Policy) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.manual = true
	t.rt.SetPolicy(p)
	t.record(t.rt.Policy().String(), []string{"manual override"})
}

// Resume re-enables automatic decisions after an Override.
func (t *Tuner) Resume() {
	t.mu.Lock()
	defer t.mu.Unlock()
	if !t.manual {
		return
	}
	t.manual = false
	t.record(t.rt.Policy().String(), []string{"manual override lifted"})
}

// record appends to the bounded decision log. Caller holds t.mu.
func (t *Tuner) record(policy string, reasons []string) {
	t.seq++
	t.decisions = append(t.decisions, Decision{
		Seq:     t.seq,
		At:      time.Now(),
		Policy:  policy,
		Reasons: reasons,
	})
	if len(t.decisions) > decisionLogCap {
		t.decisions = t.decisions[len(t.decisions)-decisionLogCap:]
	}
}

// View renders the control plane for /v1/policy.
func (t *Tuner) View() PolicyView {
	t.mu.Lock()
	defer t.mu.Unlock()
	v := PolicyView{
		Policy:    t.rt.Policy().String(),
		Auto:      !t.manual,
		Swaps:     t.rt.PolicySwaps(),
		KEstimate: t.rt.KEstimate(),
	}
	v.Decisions = append(v.Decisions, t.decisions...)
	return v
}

// Decisions returns a copy of the recent decision log.
func (t *Tuner) Decisions() []Decision {
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]Decision(nil), t.decisions...)
}
