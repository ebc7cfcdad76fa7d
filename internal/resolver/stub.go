package resolver

import (
	"container/list"
	"time"

	"dnscontext/internal/trace"
)

// Stub models the DNS cache closest to the application: the on-device stub
// resolver (or, for §8's what-if, a home-router forwarder). Unlike the
// shared Cache, a Stub can be configured to keep serving entries past
// their TTL — the paper finds 22.2% of local-cache connections use such
// outdated records, attributing it to residential gear that does not
// respect the TTL.
type Stub struct {
	// MinHold extends every entry's usable lifetime to at least MinHold
	// past insertion. Zero means the stub honors TTLs exactly.
	MinHold time.Duration
	// StaleHold keeps entries around for this long past their normal
	// eviction point so they can be served stale (RFC 8767) when the
	// upstream resolver is unreachable. Zero disables serve-stale; Get
	// still reports such retained entries as misses — only GetStale
	// returns them.
	StaleHold time.Duration

	capacity int
	entries  map[string]*list.Element
	lru      *list.List
}

type stubEntry struct {
	host       string
	answers    []trace.Answer
	insertedAt time.Duration
	ttlExpiry  time.Duration // when the record *should* die
	holdExpiry time.Duration // when this stub actually stops serving it
}

// StubLookup is what the stub returns to the application.
type StubLookup struct {
	Answers []trace.Answer
	// Expired is true when the entry was served past its TTL — a TTL
	// violation observable in the trace.
	Expired bool
}

// NewStub returns a stub cache with the given entry capacity (<=0 means
// unbounded) and TTL-violation hold.
func NewStub(capacity int, minHold time.Duration) *Stub {
	return &Stub{
		MinHold:  minHold,
		capacity: capacity,
		entries:  make(map[string]*list.Element),
		lru:      list.New(),
	}
}

// Len returns the number of stored entries.
func (s *Stub) Len() int { return len(s.entries) }

// Put stores a response. Answerless responses are not cached (stubs do
// little negative caching, and the analysis does not need it).
func (s *Stub) Put(now time.Duration, host string, answers []trace.Answer) {
	if len(answers) == 0 {
		return
	}
	life := answers[0].TTL
	for _, a := range answers[1:] {
		if a.TTL < life {
			life = a.TTL
		}
	}
	hold := life
	if s.MinHold > hold {
		hold = s.MinHold
	}
	e := &stubEntry{
		host:       host,
		answers:    answers,
		insertedAt: now,
		ttlExpiry:  now + life,
		holdExpiry: now + hold,
	}
	if el, ok := s.entries[host]; ok {
		el.Value = e
		s.lru.MoveToFront(el)
		return
	}
	s.entries[host] = s.lru.PushFront(e)
	if s.capacity > 0 && s.lru.Len() > s.capacity {
		oldest := s.lru.Back()
		s.lru.Remove(oldest)
		delete(s.entries, oldest.Value.(*stubEntry).host)
	}
}

// Get returns the stored answers if the stub is still willing to serve
// them. Remaining TTLs are decremented, clamping at zero for entries
// served in violation of their TTL.
func (s *Stub) Get(now time.Duration, host string) (StubLookup, bool) {
	el, found := s.entries[host]
	if !found {
		return StubLookup{}, false
	}
	e := el.Value.(*stubEntry)
	if now >= e.holdExpiry {
		if s.StaleHold > 0 && now < e.holdExpiry+s.StaleHold {
			// Retained for serve-stale, but a regular lookup must still
			// miss and go upstream; GetStale is the failure path.
			return StubLookup{}, false
		}
		s.lru.Remove(el)
		delete(s.entries, host)
		return StubLookup{}, false
	}
	s.lru.MoveToFront(el)
	age := now - e.insertedAt
	if age < 0 {
		age = 0
	}
	out := make([]trace.Answer, len(e.answers))
	for i, a := range e.answers {
		rem := a.TTL - age
		if rem < 0 {
			rem = 0
		}
		out[i] = trace.Answer{Addr: a.Addr, TTL: rem}
	}
	return StubLookup{Answers: out, Expired: now >= e.ttlExpiry}, true
}

// GetStale returns an entry retained past its lifetime for RFC 8767
// serve-stale: the failure path a device takes when the upstream resolver
// times out. Answers come back with zero remaining TTL and Expired set.
// Returns ok=false when serve-stale is disabled, the entry is unknown, or
// the stale window itself has lapsed. Entries still inside their normal
// lifetime are returned too — a device that just failed upstream serves
// whatever it has.
func (s *Stub) GetStale(now time.Duration, host string) (StubLookup, bool) {
	el, found := s.entries[host]
	if !found {
		return StubLookup{}, false
	}
	e := el.Value.(*stubEntry)
	if now >= e.holdExpiry {
		if s.StaleHold <= 0 || now >= e.holdExpiry+s.StaleHold {
			s.lru.Remove(el)
			delete(s.entries, host)
			return StubLookup{}, false
		}
		out := make([]trace.Answer, len(e.answers))
		for i, a := range e.answers {
			out[i] = trace.Answer{Addr: a.Addr, TTL: 0}
		}
		return StubLookup{Answers: out, Expired: true}, true
	}
	return s.Get(now, host)
}
