// Package sim provides the discrete-event simulation kernel
// underlying the multicore/HTM model (the stand-in for the MIT
// Graphite simulator used in the paper's Section 8.2).
//
// Time is measured in abstract cycles (uint64). Events scheduled for
// the same cycle fire in scheduling order (deterministic FIFO
// tie-breaking), which makes every simulation reproducible from its
// seed.
//
// An event takes one of two forms. At and After schedule a func():
// convenient, and each closure is a heap object. Post schedules a
// typed record — a Handler plus the kind, epoch and message it will be
// handed back — which the kernel stores by value, so a caller that
// recycles its messages schedules and fires without allocating. Both
// forms live in the one queue under the one ordering rule, (time,
// scheduling sequence); mixing them never reorders anything.
package sim

import "fmt"

// Time is a simulation timestamp in cycles.
type Time = uint64

// Handler receives typed events. kind, epoch and msg are the values
// given to Post, opaque to the kernel: kind selects what to do, epoch
// lets the receiver drop an event its state has moved past, and msg
// points at a payload the receiver owns (a pointer in an interface
// does not allocate).
type Handler interface {
	Fire(kind int, epoch uint64, msg any)
}

// funcEvent is the func() form of an event: a handler that ignores
// the typed fields. A func value is pointer-shaped, so wrapping one
// in a Handler does not allocate.
type funcEvent func()

func (f funcEvent) Fire(int, uint64, any) { f() }

// event is one scheduled firing, stored by value in the queue.
type event struct {
	at    Time
	seq   uint64 // tie-breaker: FIFO among same-cycle events
	h     Handler
	msg   any
	epoch uint64
	kind  int
}

// before is the queue order: (at, seq).
func (e *event) before(o *event) bool {
	if e.at != o.at {
		return e.at < o.at
	}
	return e.seq < o.seq
}

// Kernel is a single-threaded discrete-event simulator. The zero
// value is ready to use.
type Kernel struct {
	now     Time
	seq     uint64
	events  []event // binary min-heap by (at, seq)
	stopped bool
	fired   uint64
}

// Now returns the current simulation time.
func (k *Kernel) Now() Time { return k.now }

// Fired returns the number of events executed so far.
func (k *Kernel) Fired() uint64 { return k.fired }

// Pending returns the number of scheduled, not-yet-fired events.
func (k *Kernel) Pending() int { return len(k.events) }

// At schedules fn to run at absolute time t. Scheduling in the past
// panics: it would silently corrupt causality.
func (k *Kernel) At(t Time, fn func()) { k.push(event{at: t, h: funcEvent(fn)}) }

// After schedules fn to run d cycles from now.
func (k *Kernel) After(d Time, fn func()) { k.At(k.now+d, fn) }

// Post schedules h.Fire(kind, epoch, msg) d cycles from now.
func (k *Kernel) Post(d Time, h Handler, kind int, epoch uint64, msg any) {
	k.push(event{at: k.now + d, h: h, msg: msg, epoch: epoch, kind: kind})
}

// push stamps ev with the next sequence number and sifts it up from
// the end of the heap, moving parents down into the hole.
func (k *Kernel) push(ev event) {
	if ev.at < k.now {
		panic(fmt.Sprintf("sim: scheduling event at %d before now %d", ev.at, k.now))
	}
	k.seq++
	ev.seq = k.seq
	h := append(k.events, ev)
	i := len(h) - 1
	for i > 0 {
		p := (i - 1) / 2
		if !ev.before(&h[p]) {
			break
		}
		h[i] = h[p]
		i = p
	}
	h[i] = ev
	k.events = h
}

// pop removes the earliest event: the last one is sifted down from
// the root, and the vacated slot is zeroed so the queue's spare
// capacity holds no handler or message alive.
func (k *Kernel) pop() event {
	h := k.events
	top := h[0]
	n := len(h) - 1
	last := h[n]
	h[n] = event{}
	h = h[:n]
	if n > 0 {
		i := 0
		for {
			c := 2*i + 1
			if c >= n {
				break
			}
			if c+1 < n && h[c+1].before(&h[c]) {
				c++
			}
			if !h[c].before(&last) {
				break
			}
			h[i] = h[c]
			i = c
		}
		h[i] = last
	}
	k.events = h
	return top
}

// Stop makes Run return after the currently executing event.
func (k *Kernel) Stop() { k.stopped = true }

// Step fires the single next event, advancing the clock. It reports
// whether an event was fired.
func (k *Kernel) Step() bool {
	if len(k.events) == 0 {
		return false
	}
	ev := k.pop()
	k.now = ev.at
	k.fired++
	ev.h.Fire(ev.kind, ev.epoch, ev.msg)
	return true
}

// Run fires events until the queue is empty or Stop is called.
func (k *Kernel) Run() {
	k.stopped = false
	for !k.stopped && k.Step() {
	}
}

// RunUntil fires events with timestamps <= limit (or until Stop), then
// advances the clock to limit if it hasn't passed it already.
func (k *Kernel) RunUntil(limit Time) {
	k.stopped = false
	for !k.stopped {
		if len(k.events) == 0 || k.events[0].at > limit {
			break
		}
		k.Step()
	}
	if k.now < limit {
		k.now = limit
	}
}
