// Package netsim implements a small discrete-event simulation engine with a
// virtual clock, an event queue, and latency/jitter link models. The
// dnscontext traffic generator runs entirely on this engine, so simulated
// time is decoupled from wall-clock time and runs are deterministic.
package netsim

import (
	"fmt"
	"time"

	"dnscontext/internal/obs"
)

// Event is a callback scheduled to run at a virtual time.
type Event func(now time.Duration)

// item is one scheduled event, held by value in the queue.
type item struct {
	at  time.Duration
	seq uint64 // tie-breaker: FIFO among equal timestamps
	fn  Event
}

// before orders events by time, then by scheduling order.
func (a *item) before(b *item) bool {
	if a.at != b.at {
		return a.at < b.at
	}
	return a.seq < b.seq
}

// eventQueue is a binary min-heap of events ordered by (at, seq).
type eventQueue []item

func (q *eventQueue) push(it item) {
	*q = append(*q, it)
	h := *q
	i := len(h) - 1
	for i > 0 {
		parent := (i - 1) / 2
		if !h[i].before(&h[parent]) {
			break
		}
		h[i], h[parent] = h[parent], h[i]
		i = parent
	}
}

// pop removes and returns the earliest event; the queue must not be
// empty.
func (q *eventQueue) pop() item {
	h := *q
	top := h[0]
	n := len(h) - 1
	h[0] = h[n]
	h[n] = item{} // drop the closure reference
	h = h[:n]
	*q = h
	for i := 0; ; {
		least, l := i, 2*i+1
		if l >= n {
			break
		}
		if h[l].before(&h[least]) {
			least = l
		}
		if r := l + 1; r < n && h[r].before(&h[least]) {
			least = r
		}
		if least == i {
			break
		}
		h[i], h[least] = h[least], h[i]
		i = least
	}
	return top
}

// Sim is a discrete-event simulator. The zero value is not usable; call New.
type Sim struct {
	now    time.Duration
	queue  eventQueue
	seq    uint64
	events uint64

	// handles holds the seq of every pending event scheduled through
	// Schedule, mapped to whether it was cancelled. Events scheduled
	// through At never enter it.
	handles map[uint64]bool

	// Optional observability hooks; nil instruments are no-ops, so an
	// unobserved simulator pays one nil check per event. Instruments
	// record event-loop activity but never influence scheduling, keeping
	// seeded runs bit-identical with observation on or off.
	obsEvents   *obs.Counter
	obsDepth    *obs.Gauge
	obsDepthMax *obs.Gauge
}

// Observe mirrors event-loop activity into the given instruments:
// events counts executed events, depth tracks the pending-queue length
// (sampled after each executed event), and depthMax its high-water mark.
// Any of them may be nil.
func (s *Sim) Observe(events *obs.Counter, depth, depthMax *obs.Gauge) {
	s.obsEvents = events
	s.obsDepth = depth
	s.obsDepthMax = depthMax
}

// New returns an empty simulator with the clock at zero.
func New() *Sim {
	return &Sim{}
}

// Now returns the current virtual time.
func (s *Sim) Now() time.Duration { return s.now }

// Events returns the number of events executed so far.
func (s *Sim) Events() uint64 { return s.events }

// Pending returns the number of scheduled-but-unexecuted events.
// Cancelled events still occupy their slot until their time comes up, so
// the count is an upper bound while cancellations are in flight.
func (s *Sim) Pending() int { return len(s.queue) }

// At schedules fn to run at absolute virtual time at. Scheduling in the
// past panics: it indicates a logic error that would otherwise silently
// reorder causality.
func (s *Sim) At(at time.Duration, fn Event) {
	if at < s.now {
		panic(fmt.Sprintf("netsim: scheduling event at %v, before now %v", at, s.now))
	}
	s.seq++
	s.queue.push(item{at: at, seq: s.seq, fn: fn})
}

// After schedules fn to run delay after the current virtual time. Negative
// delays are clamped to zero.
func (s *Sim) After(delay time.Duration, fn Event) {
	if delay < 0 {
		delay = 0
	}
	s.At(s.now+delay, fn)
}

// Handle identifies a scheduled event so it can be cancelled — the
// primitive timeout modelling needs: schedule a deadline, cancel it when
// the awaited response arrives first.
type Handle struct {
	s   *Sim
	seq uint64
}

// Cancel withdraws the event. It reports whether the event was still
// pending; cancelling an executed or already-cancelled event is a no-op.
// The queue slot is reclaimed lazily when the event's time comes up.
func (h *Handle) Cancel() bool {
	if h == nil || h.s == nil {
		return false
	}
	if cancelled, pending := h.s.handles[h.seq]; !pending || cancelled {
		return false
	}
	h.s.handles[h.seq] = true
	return true
}

// Schedule is At returning a cancellable Handle. Cancelled events do not
// execute, do not advance the clock, and do not count toward Events().
func (s *Sim) Schedule(at time.Duration, fn Event) *Handle {
	s.At(at, fn)
	if s.handles == nil {
		s.handles = make(map[uint64]bool)
	}
	s.handles[s.seq] = false
	return &Handle{s: s, seq: s.seq}
}

// popEvent removes the earliest event from the queue and reports
// whether it was cancelled, settling its handle if it has one.
func (s *Sim) popEvent() (item, bool) {
	it := s.queue.pop()
	if len(s.handles) == 0 {
		return it, false
	}
	cancelled := s.handles[it.seq]
	delete(s.handles, it.seq)
	return it, cancelled
}

// Step executes the single earliest pending event, discarding cancelled
// ones along the way. It reports whether an event was executed.
func (s *Sim) Step() bool {
	for len(s.queue) > 0 {
		it, cancelled := s.popEvent()
		if cancelled {
			continue
		}
		s.now = it.at
		s.events++
		it.fn(s.now)
		s.obsEvents.Inc()
		depth := int64(len(s.queue))
		s.obsDepth.Set(depth)
		s.obsDepthMax.SetMax(depth)
		return true
	}
	return false
}

// RunUntil executes events in order until the queue is empty or the next
// event is later than end. The clock finishes at end (or at the last
// executed event if the queue drains first and that is later).
func (s *Sim) RunUntil(end time.Duration) {
	for len(s.queue) > 0 {
		if s.handles[s.queue[0].seq] { // cancelled
			s.popEvent()
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

// Run executes every pending event, including events scheduled by events.
// Use RunUntil for workloads that self-perpetuate.
func (s *Sim) Run() {
	for s.Step() {
	}
}
