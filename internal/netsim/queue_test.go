package netsim

import (
	"container/heap"
	"fmt"
	"reflect"
	"testing"
	"time"

	"dnscontext/internal/stats"
)

// refSim is Sim as it was on container/heap, with one *refItem per
// event and cancellation by clearing the item's callback: the reference
// the value-typed heap must match operation for operation.
type refSim struct {
	now    time.Duration
	queue  refQueue
	seq    uint64
	events uint64
}

type refItem struct {
	at  time.Duration
	seq uint64
	fn  Event
}

type refQueue []*refItem

func (q refQueue) Len() int { return len(q) }
func (q refQueue) Less(i, j int) bool {
	if q[i].at != q[j].at {
		return q[i].at < q[j].at
	}
	return q[i].seq < q[j].seq
}
func (q refQueue) Swap(i, j int) { q[i], q[j] = q[j], q[i] }
func (q *refQueue) Push(x any)   { *q = append(*q, x.(*refItem)) }
func (q *refQueue) Pop() any {
	old := *q
	n := len(old)
	it := old[n-1]
	old[n-1] = nil
	*q = old[:n-1]
	return it
}

func (s *refSim) At(at time.Duration, fn Event) *refItem {
	if at < s.now {
		panic(fmt.Sprintf("netsim: scheduling event at %v, before now %v", at, s.now))
	}
	s.seq++
	it := &refItem{at: at, seq: s.seq, fn: fn}
	heap.Push(&s.queue, it)
	return it
}

func (s *refSim) After(delay time.Duration, fn Event) { s.At(s.now+max(delay, 0), fn) }

// cancel is the reference Handle.Cancel.
func (s *refSim) cancel(it *refItem) bool {
	if it.fn == nil {
		return false
	}
	it.fn = nil
	return true
}

func (s *refSim) Step() bool {
	for len(s.queue) > 0 {
		it := heap.Pop(&s.queue).(*refItem)
		if it.fn == nil {
			continue
		}
		s.now = it.at
		s.events++
		it.fn(s.now)
		return true
	}
	return false
}

func (s *refSim) RunUntil(end time.Duration) {
	for len(s.queue) > 0 {
		if s.queue[0].fn == nil {
			heap.Pop(&s.queue)
			continue
		}
		if s.queue[0].at > end {
			break
		}
		s.Step()
	}
	if s.now < end {
		s.now = end
	}
}

// queueUnderTest is what the differential driver needs from either
// simulator.
type queueUnderTest struct {
	// at schedules fn; a cancellable event comes back with its cancel.
	at       func(at time.Duration, fn Event, cancellable bool) (cancel func() bool)
	after    func(d time.Duration, fn Event)
	step     func() bool
	runUntil func(end time.Duration)
	now      func() time.Duration
	events   func() uint64
	pending  func() int
}

func wrapSim(s *Sim) queueUnderTest {
	return queueUnderTest{
		at: func(at time.Duration, fn Event, cancellable bool) func() bool {
			if cancellable {
				return s.Schedule(at, fn).Cancel
			}
			s.At(at, fn)
			return nil
		},
		after:    s.After,
		step:     s.Step,
		runUntil: s.RunUntil,
		now:      s.Now,
		events:   s.Events,
		pending:  s.Pending,
	}
}

func wrapRef(s *refSim) queueUnderTest {
	return queueUnderTest{
		at: func(at time.Duration, fn Event, cancellable bool) func() bool {
			it := s.At(at, fn)
			if !cancellable {
				return nil
			}
			return func() bool { return s.cancel(it) }
		},
		after:    s.After,
		step:     s.Step,
		runUntil: s.RunUntil,
		now:      func() time.Duration { return s.now },
		events:   func() uint64 { return s.events },
		pending:  func() int { return len(s.queue) },
	}
}

// queueRun is one simulator's side of a differential run: the log of
// executed events and the cancellable events scheduled so far.
type queueRun struct {
	q           queueUnderTest
	log         []string
	ran         map[int]bool
	cancellable []cancellableEvent
}

type cancellableEvent struct {
	id     int
	cancel func() bool
}

// event returns the callback of event id: it logs the run and, for some
// ids, schedules a follow-up (id -id, which schedules nothing) at the
// same instant or just after, so events also enter the queue from inside
// the loop.
func (r *queueRun) event(id int) Event {
	return func(now time.Duration) {
		r.log = append(r.log, fmt.Sprintf("%d@%v", id, now))
		r.ran[id] = true
		if id > 0 && id%3 == 0 {
			r.schedule(now+time.Duration(id%2)*time.Millisecond, -id, id%2 == 0)
		}
	}
}

func (r *queueRun) schedule(at time.Duration, id int, cancellable bool) {
	if cancel := r.q.at(at, r.event(id), cancellable); cancel != nil {
		r.cancellable = append(r.cancellable, cancellableEvent{id, cancel})
	}
}

// TestSimMatchesHeapReference drives Sim and the container/heap reference
// through the same seeded sequences of At, After, Schedule, Cancel, Step
// and RunUntil — timestamps drawn from a few values so many events tie,
// and cancellations of events at the head of the queue — and requires
// the same executions, Events, Pending and Now after every operation.
func TestSimMatchesHeapReference(t *testing.T) {
	for seed := uint64(1); seed <= 60; seed++ {
		r := stats.NewRNG(seed)
		got := &queueRun{q: wrapSim(New()), ran: map[int]bool{}}
		want := &queueRun{q: wrapRef(&refSim{}), ran: map[int]bool{}}
		id := 0
		for step := 0; step < 400; step++ {
			now := want.q.now()
			where := fmt.Sprintf("seed %d step %d", seed, step)
			switch op := r.Intn(10); {
			case op < 4: // At or Schedule, often at an instant already queued
				at := now + time.Duration(r.Intn(4))*time.Millisecond
				cancellable := r.Bool(0.5)
				id++
				got.schedule(at, id, cancellable)
				want.schedule(at, id, cancellable)
			case op < 5: // After, negative delays included
				d := time.Duration(r.Intn(4)-1) * time.Millisecond
				id++
				got.q.after(d, got.event(id))
				want.q.after(d, want.event(id))
			case op < 7: // Cancel, mostly of the earliest-scheduled events
				n := len(want.cancellable)
				if n == 0 {
					continue
				}
				k := r.Intn(min(n, 4))
				if r.Bool(0.3) {
					k = r.Intn(n)
				}
				ev := want.cancellable[k]
				g, w := got.cancellable[k].cancel(), ev.cancel()
				// The reference reports an executed event as still
				// pending; Cancel's contract says it is not.
				if g != (w && !want.ran[ev.id]) {
					t.Fatalf("%s: Cancel of event %d = %v, reference %v (ran %v)", where, ev.id, g, w, want.ran[ev.id])
				}
			case op < 9:
				if g, w := got.q.step(), want.q.step(); g != w {
					t.Fatalf("%s: Step = %v, reference %v", where, g, w)
				}
			default:
				end := now + time.Duration(r.Intn(3))*time.Millisecond
				got.q.runUntil(end)
				want.q.runUntil(end)
			}
			if !reflect.DeepEqual(got.log, want.log) {
				t.Fatalf("%s: executed %v, reference %v", where, got.log, want.log)
			}
			if got.q.now() != want.q.now() || got.q.events() != want.q.events() || got.q.pending() != want.q.pending() {
				t.Fatalf("%s: Now %v Events %d Pending %d, reference %v %d %d", where,
					got.q.now(), got.q.events(), got.q.pending(), want.q.now(), want.q.events(), want.q.pending())
			}
		}
	}
}

// TestCancelAfterRunReportsNotPending pins Cancel's contract for an
// event that has already executed: it was not pending, so Cancel
// reports false and changes nothing.
func TestCancelAfterRunReportsNotPending(t *testing.T) {
	s := New()
	h := s.Schedule(time.Second, func(time.Duration) {})
	s.Run()
	if h.Cancel() {
		t.Fatal("Cancel of an executed event reported it pending")
	}
	if s.Events() != 1 || s.Now() != time.Second {
		t.Fatalf("Events %d, Now %v after one executed event", s.Events(), s.Now())
	}
}
