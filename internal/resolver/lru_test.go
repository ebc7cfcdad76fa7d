package resolver

import (
	"container/list"
	"fmt"
	"net/netip"
	"reflect"
	"testing"
	"time"

	"dnscontext/internal/obs"
	"dnscontext/internal/stats"
	"dnscontext/internal/trace"
)

// refCache and refStub are Cache and Stub as they were on container/list,
// with a heap-allocated entry per Put: the references the index-linked
// LRU must match operation for operation.
type refCache struct {
	capacity              int
	entries               map[string]*list.Element
	lru                   *list.List
	hits, misses, expired uint64
	evictCtr              *obs.Counter
}

type refCacheEntry struct {
	host       string
	answers    []trace.Answer
	rcode      uint8
	insertedAt time.Duration
	expiresAt  time.Duration
}

func newRefCache(capacity int) *refCache {
	return &refCache{capacity: capacity, entries: make(map[string]*list.Element), lru: list.New()}
}

func (c *refCache) Put(now time.Duration, host string, answers []trace.Answer, rcode uint8, negTTL time.Duration) {
	life := negTTL
	for i, a := range answers {
		if i == 0 || a.TTL < life {
			life = a.TTL
		}
	}
	e := &refCacheEntry{host: host, answers: answers, rcode: rcode, insertedAt: now, expiresAt: now + life}
	if el, ok := c.entries[host]; ok {
		el.Value = e
		c.lru.MoveToFront(el)
		return
	}
	c.entries[host] = c.lru.PushFront(e)
	if c.capacity > 0 && c.lru.Len() > c.capacity {
		oldest := c.lru.Back()
		c.lru.Remove(oldest)
		delete(c.entries, oldest.Value.(*refCacheEntry).host)
		c.evictCtr.Inc()
	}
}

func (c *refCache) Get(now time.Duration, host string) ([]trace.Answer, uint8, bool) {
	el, found := c.entries[host]
	if !found {
		c.misses++
		return nil, 0, false
	}
	e := el.Value.(*refCacheEntry)
	if now >= e.expiresAt {
		c.expired++
		c.misses++
		c.lru.Remove(el)
		delete(c.entries, host)
		return nil, 0, false
	}
	c.hits++
	c.lru.MoveToFront(el)
	return refRemaining(e.answers, e.insertedAt, now), e.rcode, true
}

func (c *refCache) Peek(now time.Duration, host string) (time.Duration, bool) {
	el, found := c.entries[host]
	if !found {
		return 0, false
	}
	e := el.Value.(*refCacheEntry)
	return e.expiresAt, now < e.expiresAt
}

func refRemaining(answers []trace.Answer, insertedAt, now time.Duration) []trace.Answer {
	age := max(now-insertedAt, 0)
	out := make([]trace.Answer, len(answers))
	for i, a := range answers {
		out[i] = trace.Answer{Addr: a.Addr, TTL: max(a.TTL-age, 0)}
	}
	return out
}

type refStub struct {
	MinHold, StaleHold time.Duration
	capacity           int
	entries            map[string]*list.Element
	lru                *list.List
}

type refStubEntry struct {
	host       string
	answers    []trace.Answer
	insertedAt time.Duration
	ttlExpiry  time.Duration
	holdExpiry time.Duration
}

func newRefStub(capacity int, minHold time.Duration) *refStub {
	return &refStub{MinHold: minHold, capacity: capacity, entries: make(map[string]*list.Element), lru: list.New()}
}

func (s *refStub) Put(now time.Duration, host string, answers []trace.Answer) {
	if len(answers) == 0 {
		return
	}
	life := answers[0].TTL
	for _, a := range answers[1:] {
		if a.TTL < life {
			life = a.TTL
		}
	}
	hold := max(life, s.MinHold)
	e := &refStubEntry{host: host, answers: answers, insertedAt: now, ttlExpiry: now + life, holdExpiry: now + hold}
	if el, ok := s.entries[host]; ok {
		el.Value = e
		s.lru.MoveToFront(el)
		return
	}
	s.entries[host] = s.lru.PushFront(e)
	if s.capacity > 0 && s.lru.Len() > s.capacity {
		oldest := s.lru.Back()
		s.lru.Remove(oldest)
		delete(s.entries, oldest.Value.(*refStubEntry).host)
	}
}

func (s *refStub) Get(now time.Duration, host string) (StubLookup, bool) {
	el, found := s.entries[host]
	if !found {
		return StubLookup{}, false
	}
	e := el.Value.(*refStubEntry)
	if now >= e.holdExpiry {
		if s.StaleHold > 0 && now < e.holdExpiry+s.StaleHold {
			return StubLookup{}, false
		}
		s.lru.Remove(el)
		delete(s.entries, host)
		return StubLookup{}, false
	}
	s.lru.MoveToFront(el)
	return StubLookup{Answers: refRemaining(e.answers, e.insertedAt, now), Expired: now >= e.ttlExpiry}, true
}

func (s *refStub) GetStale(now time.Duration, host string) (StubLookup, bool) {
	el, found := s.entries[host]
	if !found {
		return StubLookup{}, false
	}
	e := el.Value.(*refStubEntry)
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

// lruOrder lists l's keys from most to least recently used.
func lruOrder[V any](l *lru[V]) []string {
	var keys []string
	for i := l.head; i != nilSlot; i = l.slots[i].next {
		keys = append(keys, l.slots[i].key)
	}
	return keys
}

// listOrder lists a reference list's keys from front to back.
func listOrder(l *list.List, key func(any) string) []string {
	var keys []string
	for el := l.Front(); el != nil; el = el.Next() {
		keys = append(keys, key(el.Value))
	}
	return keys
}

// lruOp draws one step of a random workload over a small namespace: the
// time advances by up to maxStep, and the answers' TTLs span zero to a
// minute, so entries expire, get refreshed while live and get evicted.
type lruOp struct {
	now     time.Duration
	host    string
	answers []trace.Answer
	kind    int
}

func drawLRUOp(r *stats.RNG, now time.Duration, hosts int, kinds int) lruOp {
	op := lruOp{
		now:  now + time.Duration(r.Intn(5000))*time.Millisecond,
		host: fmt.Sprintf("h%d.example", r.Intn(hosts)),
		kind: r.Intn(kinds),
	}
	for range r.Intn(4) {
		addr := netip.AddrFrom4([4]byte{203, 0, 113, byte(r.Intn(256))})
		op.answers = append(op.answers, trace.Answer{Addr: addr, TTL: time.Duration(r.Intn(61)) * time.Second})
	}
	return op
}

// TestCacheMatchesListReference drives Cache and the container/list
// reference through the same seeded Put/Get/Peek sequences and requires
// the same results, counters, evictions and recency order after every
// step.
func TestCacheMatchesListReference(t *testing.T) {
	for seed := uint64(1); seed <= 40; seed++ {
		r := stats.NewRNG(seed)
		capacity := r.Intn(9) - 1 // -1 and 0 are unbounded
		c, ref := NewCache(capacity), newRefCache(capacity)
		reg := obs.NewRegistry()
		c.Observe(reg.Counter("evictions", ""))
		ref.evictCtr = reg.Counter("ref_evictions", "")
		var now time.Duration
		for step := 0; step < 3000; step++ {
			op := drawLRUOp(r, now, 12, 3)
			now = op.now
			where := fmt.Sprintf("seed %d step %d (capacity %d)", seed, step, capacity)
			switch op.kind {
			case 0:
				rcode := uint8(r.Intn(4))
				negTTL := time.Duration(r.Intn(30)) * time.Second
				c.Put(now, op.host, op.answers, rcode, negTTL)
				ref.Put(now, op.host, op.answers, rcode, negTTL)
			case 1:
				ga, gr, gok := c.Get(now, op.host)
				wa, wr, wok := ref.Get(now, op.host)
				if !reflect.DeepEqual(ga, wa) || gr != wr || gok != wok {
					t.Fatalf("%s: Get(%s) = %v %d %v, reference %v %d %v", where, op.host, ga, gr, gok, wa, wr, wok)
				}
			case 2:
				ge, gok := c.Peek(now, op.host)
				we, wok := ref.Peek(now, op.host)
				if ge != we || gok != wok {
					t.Fatalf("%s: Peek(%s) = %v %v, reference %v %v", where, op.host, ge, gok, we, wok)
				}
			}
			gh, gm, gx := c.Stats()
			if c.Len() != len(ref.entries) || gh != ref.hits || gm != ref.misses || gx != ref.expired ||
				c.evictCtr.Value() != ref.evictCtr.Value() {
				t.Fatalf("%s: Len %d, Stats %d/%d/%d, evictions %d; reference %d, %d/%d/%d, %d", where,
					c.Len(), gh, gm, gx, c.evictCtr.Value(),
					len(ref.entries), ref.hits, ref.misses, ref.expired, ref.evictCtr.Value())
			}
			got := lruOrder(&c.entries)
			want := listOrder(ref.lru, func(v any) string { return v.(*refCacheEntry).host })
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("%s: recency order %v, reference %v", where, got, want)
			}
		}
	}
}

// TestStubMatchesListReference does the same for Stub's Put/Get/GetStale
// under random capacities, TTL-violating holds and serve-stale windows.
func TestStubMatchesListReference(t *testing.T) {
	for seed := uint64(1); seed <= 40; seed++ {
		r := stats.NewRNG(seed)
		capacity := r.Intn(9) - 1
		minHold := time.Duration(r.Intn(3)) * 20 * time.Second
		staleHold := time.Duration(r.Intn(3)) * 15 * time.Second
		s, ref := NewStub(capacity, minHold), newRefStub(capacity, minHold)
		s.StaleHold, ref.StaleHold = staleHold, staleHold
		var now time.Duration
		for step := 0; step < 3000; step++ {
			op := drawLRUOp(r, now, 12, 3)
			now = op.now
			where := fmt.Sprintf("seed %d step %d (capacity %d, hold %v, stale %v)", seed, step, capacity, minHold, staleHold)
			var got, want StubLookup
			var gok, wok bool
			switch op.kind {
			case 0:
				s.Put(now, op.host, op.answers)
				ref.Put(now, op.host, op.answers)
			case 1:
				got, gok = s.Get(now, op.host)
				want, wok = ref.Get(now, op.host)
			case 2:
				got, gok = s.GetStale(now, op.host)
				want, wok = ref.GetStale(now, op.host)
			}
			if !reflect.DeepEqual(got, want) || gok != wok {
				t.Fatalf("%s: lookup of %s = %v %v, reference %v %v", where, op.host, got, gok, want, wok)
			}
			if s.Len() != len(ref.entries) {
				t.Fatalf("%s: Len %d, reference %d", where, s.Len(), len(ref.entries))
			}
			gotOrder := lruOrder(&s.entries)
			wantOrder := listOrder(ref.lru, func(v any) string { return v.(*refStubEntry).host })
			if !reflect.DeepEqual(gotOrder, wantOrder) {
				t.Fatalf("%s: recency order %v, reference %v", where, gotOrder, wantOrder)
			}
		}
	}
}
