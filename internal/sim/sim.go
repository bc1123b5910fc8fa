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
//
// The queue is a calendar: event records sit in a slab and are linked
// by index, never moved. An event less than wheelSize cycles ahead of
// the clock is appended to the FIFO bucket of its cycle — the window
// is exactly one turn of the wheel, so a bucket holds one cycle's
// events and its FIFO order is their scheduling order. An event
// further out waits in a small binary heap of (time, sequence, slot)
// keys and is moved to its bucket the moment the clock comes within
// wheelSize of it, before any handler runs at the new time. Whatever
// is scheduled directly into that bucket is scheduled after that
// moment, hence later than every event that waited, so appending the
// waiting ones first, in (time, sequence) order, keeps the global order
// exact. Scheduling, firing and finding the next event's time cost the
// same whatever the queue holds; only the far heap, which restart
// backoffs and long think times reach, is logarithmic.
package sim

import (
	"fmt"
	"math/bits"
)

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

// wheelSize is the number of per-cycle buckets, a power of two. Any
// size from 256 to 4096 runs the HTM model at the same speed: message
// latencies and op lengths are tens of cycles, so nearly every event
// lands in the window, and the few that do not cost one heap push.
const (
	wheelSize  = 1024
	wheelMask  = wheelSize - 1
	wheelWords = wheelSize / 64
)

// event is one scheduled firing: a slab slot. Its time is implied by
// the bucket that links it (or held by its far-heap key); next links
// the bucket's FIFO, or the free list once the slot is vacant. Slot 0
// is never used, so 0 means "none".
type event struct {
	h     Handler
	msg   any
	epoch uint64
	kind  int
	next  int32
}

// bucket is the FIFO of one cycle's events, as slab indices.
type bucket struct{ head, tail int32 }

// farKey is a far-heap entry: an event at least wheelSize cycles ahead
// when it was scheduled. seq orders the far events of one cycle among
// themselves.
type farKey struct {
	at   Time
	seq  uint64
	slot int32
}

func (a farKey) before(b farKey) bool {
	if a.at != b.at {
		return a.at < b.at
	}
	return a.seq < b.seq
}

// Kernel is a single-threaded discrete-event simulator. The zero
// value is ready to use.
type Kernel struct {
	now     Time
	fired   uint64
	stopped bool

	slab []event
	free int32 // head of the vacant-slot list

	// The wheel holds every event with now <= time < now+wheelSize, in
	// bucket time&wheelMask; occ has a bit per non-empty bucket.
	near  int
	wheel [wheelSize]bucket
	occ   [wheelWords]uint64

	far    []farKey // binary min-heap: events at or beyond now+wheelSize
	farSeq uint64
}

// Now returns the current simulation time.
func (k *Kernel) Now() Time { return k.now }

// Fired returns the number of events executed so far.
func (k *Kernel) Fired() uint64 { return k.fired }

// Pending returns the number of scheduled, not-yet-fired events.
func (k *Kernel) Pending() int { return k.near + len(k.far) }

// At schedules fn to run at absolute time t. Scheduling in the past
// panics: it would silently corrupt causality.
func (k *Kernel) At(t Time, fn func()) { k.push(t, funcEvent(fn), 0, 0, nil) }

// After schedules fn to run d cycles from now.
func (k *Kernel) After(d Time, fn func()) { k.At(k.now+d, fn) }

// Post schedules h.Fire(kind, epoch, msg) d cycles from now.
func (k *Kernel) Post(d Time, h Handler, kind int, epoch uint64, msg any) {
	k.push(k.now+d, h, kind, epoch, msg)
}

// push fills a slab slot and files it under its time: in the wheel
// when the time is inside the window, in the far heap otherwise.
func (k *Kernel) push(at Time, h Handler, kind int, epoch uint64, msg any) {
	if at < k.now {
		panic(fmt.Sprintf("sim: scheduling event at %d before now %d", at, k.now))
	}
	slot := k.free
	if slot != 0 {
		k.free = k.slab[slot].next
	} else {
		if len(k.slab) == 0 {
			k.slab = append(k.slab, event{}) // slot 0, the "none" index
		}
		slot = int32(len(k.slab))
		k.slab = append(k.slab, event{})
	}
	e := &k.slab[slot]
	e.h, e.msg, e.epoch, e.kind, e.next = h, msg, epoch, kind, 0
	if at-k.now < wheelSize {
		k.link(at, slot)
		return
	}
	k.farSeq++
	k.pushFar(farKey{at, k.farSeq, slot})
}

// link appends a slot to the bucket of a time inside the window.
func (k *Kernel) link(at Time, slot int32) {
	b := &k.wheel[at&wheelMask]
	if b.head == 0 {
		b.head = slot
		k.occ[(at&wheelMask)>>6] |= 1 << (at & 63)
	} else {
		k.slab[b.tail].next = slot
	}
	b.tail = slot
	k.near++
}

func (k *Kernel) pushFar(key farKey) {
	h := append(k.far, key)
	i := len(h) - 1
	for i > 0 {
		p := (i - 1) / 2
		if !key.before(h[p]) {
			break
		}
		h[i] = h[p]
		i = p
	}
	h[i] = key
	k.far = h
}

func (k *Kernel) popFar() farKey {
	h := k.far
	top := h[0]
	n := len(h) - 1
	last := h[n]
	h = h[:n]
	if n > 0 {
		i := 0
		for {
			c := 2*i + 1
			if c >= n {
				break
			}
			if c+1 < n && h[c+1].before(h[c]) {
				c++
			}
			if !h[c].before(last) {
				break
			}
			h[i] = h[c]
			i = c
		}
		h[i] = last
	}
	k.far = h
	return top
}

// next returns the time of the earliest pending event; there must be
// one. With the wheel non-empty that is the first occupied bucket at
// or after the clock's own, found by scanning the occupancy bitmap one
// turn from there; otherwise it is the far heap's root.
func (k *Kernel) next() Time {
	if k.near == 0 {
		return k.far[0].at
	}
	p := k.now & wheelMask
	w := p >> 6
	if m := k.occ[w] >> (p & 63); m != 0 {
		return k.now + Time(bits.TrailingZeros64(m))
	}
	// The rest of the turn, word by word; the last step is back in the
	// starting word, where only the bits below p can be set.
	d := 64 - p&63
	for {
		w = (w + 1) % wheelWords
		if m := k.occ[w]; m != 0 {
			return k.now + d + Time(bits.TrailingZeros64(m))
		}
		d += 64
	}
}

// advance moves the clock forward to t, which no pending event
// precedes, and pulls into the wheel every far event the window now
// reaches — in (time, sequence) order, and before anything can be
// scheduled from t, so each lands ahead of whatever joins its bucket
// directly.
func (k *Kernel) advance(t Time) {
	k.now = t
	for len(k.far) > 0 && k.far[0].at-t < wheelSize {
		key := k.popFar()
		k.link(key.at, key.slot)
	}
}

// fire moves the clock to t, the time of the earliest pending event,
// and runs that event. The slot is vacated, holding no handler or
// message alive, before the handler runs and schedules into it.
func (k *Kernel) fire(t Time) {
	if t != k.now {
		k.advance(t)
	}
	b := &k.wheel[t&wheelMask]
	slot := b.head
	e := &k.slab[slot]
	h, kind, epoch, msg := e.h, e.kind, e.epoch, e.msg
	if b.head = e.next; b.head == 0 {
		k.occ[(t&wheelMask)>>6] &^= 1 << (t & 63)
	}
	e.h, e.msg, e.next = nil, nil, k.free
	k.free = slot
	k.near--
	k.fired++
	h.Fire(kind, epoch, msg)
}

// Stop makes Run and RunUntil return after the currently executing
// event, leaving the clock at that event's time.
func (k *Kernel) Stop() { k.stopped = true }

// Step fires the single next event, advancing the clock. It reports
// whether an event was fired.
func (k *Kernel) Step() bool {
	if k.Pending() == 0 {
		return false
	}
	k.fire(k.next())
	return true
}

// Run fires events until the queue is empty or Stop is called.
func (k *Kernel) Run() {
	k.stopped = false
	for !k.stopped && k.Step() {
	}
}

// RunUntil fires events with timestamps <= limit, then advances the
// clock to limit if it hasn't passed it already. After a Stop the
// clock moves to limit only if no event at or before limit is left:
// jumping over a pending event would make the next run step back.
func (k *Kernel) RunUntil(limit Time) {
	k.stopped = false
	for k.Pending() > 0 {
		t := k.next()
		if t > limit {
			break
		}
		if k.stopped {
			return
		}
		k.fire(t)
	}
	if k.now < limit {
		k.advance(limit)
	}
}
