package sim

import (
	"testing"
	"testing/quick"

	"txconflict/internal/rng"
)

func TestEventOrdering(t *testing.T) {
	var k Kernel
	var order []int
	k.At(30, func() { order = append(order, 3) })
	k.At(10, func() { order = append(order, 1) })
	k.At(20, func() { order = append(order, 2) })
	k.Run()
	if len(order) != 3 || order[0] != 1 || order[1] != 2 || order[2] != 3 {
		t.Fatalf("events fired in order %v", order)
	}
	if k.Now() != 30 {
		t.Fatalf("clock at %d, want 30", k.Now())
	}
	if k.Fired() != 3 {
		t.Fatalf("fired %d", k.Fired())
	}
}

func TestFIFOTieBreaking(t *testing.T) {
	var k Kernel
	var order []int
	for i := 0; i < 100; i++ {
		i := i
		k.At(5, func() { order = append(order, i) })
	}
	k.Run()
	for i, v := range order {
		if v != i {
			t.Fatalf("same-cycle events reordered: pos %d got %d", i, v)
		}
	}
}

func TestAfter(t *testing.T) {
	var k Kernel
	var at Time
	k.After(7, func() {
		at = k.Now()
		k.After(5, func() { at = k.Now() })
	})
	k.Run()
	if at != 12 {
		t.Fatalf("nested After landed at %d, want 12", at)
	}
}

func TestSchedulingInPastPanics(t *testing.T) {
	var k Kernel
	k.At(10, func() {
		defer func() {
			if recover() == nil {
				t.Error("scheduling in the past did not panic")
			}
		}()
		k.At(5, func() {})
	})
	k.Run()
}

func TestStop(t *testing.T) {
	var k Kernel
	count := 0
	for i := 1; i <= 10; i++ {
		k.At(Time(i), func() {
			count++
			if count == 3 {
				k.Stop()
			}
		})
	}
	k.Run()
	if count != 3 {
		t.Fatalf("ran %d events after Stop, want 3", count)
	}
	if k.Pending() != 7 {
		t.Fatalf("pending %d, want 7", k.Pending())
	}
	// Run resumes.
	k.Run()
	if count != 10 {
		t.Fatalf("resume ran to %d", count)
	}
}

func TestRunUntil(t *testing.T) {
	var k Kernel
	fired := []Time{}
	for _, at := range []Time{5, 10, 15, 20} {
		at := at
		k.At(at, func() { fired = append(fired, at) })
	}
	k.RunUntil(12)
	if len(fired) != 2 {
		t.Fatalf("fired %v, want events at 5,10", fired)
	}
	if k.Now() != 12 {
		t.Fatalf("clock %d, want 12", k.Now())
	}
	k.RunUntil(100)
	if len(fired) != 4 {
		t.Fatalf("fired %v after full run", fired)
	}
	if k.Now() != 100 {
		t.Fatalf("clock %d, want 100", k.Now())
	}
}

func TestRunUntilBoundaryInclusive(t *testing.T) {
	var k Kernel
	hit := false
	k.At(10, func() { hit = true })
	k.RunUntil(10)
	if !hit {
		t.Fatal("event at the limit did not fire")
	}
}

func TestStepOnEmpty(t *testing.T) {
	var k Kernel
	if k.Step() {
		t.Fatal("Step on empty queue returned true")
	}
}

// TestMonotoneClockProperty fires random event sets and checks the
// clock never goes backwards and all events fire in timestamp order.
func TestMonotoneClockProperty(t *testing.T) {
	f := func(seed uint32, nRaw uint8) bool {
		r := rng.New(uint64(seed))
		n := int(nRaw)%200 + 1
		var k Kernel
		var stamps []Time
		for i := 0; i < n; i++ {
			at := Time(r.Intn(1000))
			k.At(at, func() { stamps = append(stamps, k.Now()) })
		}
		k.Run()
		if len(stamps) != n {
			return false
		}
		for i := 1; i < len(stamps); i++ {
			if stamps[i] < stamps[i-1] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestCascadingEvents(t *testing.T) {
	// An event chain where each event schedules the next; ensures the
	// heap handles interleaved push/pop during Run.
	var k Kernel
	count := 0
	var step func()
	step = func() {
		count++
		if count < 1000 {
			k.After(1, step)
		}
	}
	k.At(0, step)
	k.Run()
	if count != 1000 {
		t.Fatalf("cascade ran %d steps", count)
	}
	if k.Now() != 999 {
		t.Fatalf("clock %d, want 999", k.Now())
	}
}

func BenchmarkScheduleAndRun(b *testing.B) {
	for i := 0; i < b.N; i++ {
		var k Kernel
		for j := 0; j < 1000; j++ {
			k.At(Time(j%97), func() {})
		}
		k.Run()
	}
}

func BenchmarkCascade(b *testing.B) {
	var k Kernel
	count := 0
	var step func()
	step = func() {
		count++
		if count < b.N {
			k.After(1, step)
		}
	}
	k.At(0, step)
	k.Run()
}

// recorder is a typed-event handler that logs what it was handed.
type recorder struct {
	k   *Kernel
	log *[]firing
}

// firing identifies one fired event: the id it was scheduled with and
// the clock when it fired.
type firing struct {
	id int
	at Time
}

func (r recorder) Fire(kind int, epoch uint64, msg any) {
	if msg.(*int) == nil || uint64(kind) != epoch {
		panic("typed event lost its fields")
	}
	*r.log = append(*r.log, firing{kind, r.k.Now()})
}

// TestMixedFormsAgainstSortedReference interleaves scheduling (both
// event forms, absolute and relative, many ties) with firing, and
// checks the firing order against the rule the package states: by
// time, then by scheduling order, whatever the form.
func TestMixedFormsAgainstSortedReference(t *testing.T) {
	for seed := uint64(1); seed <= 20; seed++ {
		r := rng.New(seed)
		var k Kernel
		var got, want []firing
		var pending []firing // scheduled, not yet fired, in scheduling order
		payload := new(int)
		rec := recorder{&k, &got}
		for next := 0; next < 3000; {
			// Schedule a burst; few distinct times, so ties dominate.
			for n := r.Intn(6); n > 0; n-- {
				d := Time(r.Intn(8))
				id := next
				next++
				switch r.Intn(3) {
				case 0:
					k.After(d, func() { got = append(got, firing{id, k.Now()}) })
				case 1:
					k.At(k.Now()+d, func() { got = append(got, firing{id, k.Now()}) })
				case 2:
					k.Post(d, rec, id, uint64(id), payload)
				}
				pending = append(pending, firing{id, k.Now() + d})
			}
			// Fire a few. The reference pops the earliest time, first
			// scheduled among equals.
			for n := r.Intn(5); n > 0 && len(pending) > 0; n-- {
				best := 0
				for i, p := range pending {
					if p.at < pending[best].at {
						best = i
					}
				}
				want = append(want, pending[best])
				pending = append(pending[:best], pending[best+1:]...)
				if !k.Step() {
					t.Fatalf("seed %d: queue empty with %d events outstanding", seed, len(pending)+1)
				}
			}
		}
		if k.Pending() != len(pending) {
			t.Fatalf("seed %d: Pending = %d, reference holds %d", seed, k.Pending(), len(pending))
		}
		if len(got) != len(want) || k.Fired() != uint64(len(want)) {
			t.Fatalf("seed %d: fired %d (Fired()=%d), want %d", seed, len(got), k.Fired(), len(want))
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("seed %d: firing %d was %+v, want %+v", seed, i, got[i], want[i])
			}
		}
	}
}

// nopHandler reschedules itself: the shape of a simulator's steady
// state, one event scheduled per event fired.
type nopHandler struct{ k *Kernel }

func (h nopHandler) Fire(kind int, epoch uint64, msg any) {
	h.k.Post(Time(kind%7), h, kind+1, epoch, msg)
}

// TestWarmKernelDoesNotAllocate gates the point of storing events by
// value: once the queue has reached its working size, scheduling and
// firing allocate nothing — in the typed form with a recycled message,
// and in the func form when the func itself is not a fresh closure.
func TestWarmKernelDoesNotAllocate(t *testing.T) {
	var k Kernel
	h := nopHandler{&k}
	msg := new(int)
	for i := 0; i < 64; i++ {
		k.Post(Time(i), h, i, 0, msg)
	}
	var tick func()
	tick = func() { k.After(3, tick) }
	k.After(0, tick)
	for i := 0; i < 1000; i++ {
		k.Step()
	}
	if allocs := testing.AllocsPerRun(1000, func() { k.Step() }); allocs != 0 {
		t.Fatalf("%.2f allocs per schedule+fire on a warm kernel, want 0", allocs)
	}
}
