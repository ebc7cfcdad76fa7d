// Package resolver simulates the DNS resolution ecosystem the paper's
// traffic traverses: authoritative servers, recursive resolver platforms
// with shared caches (the SC/R distinction of §5.3), device stub-resolver
// caches (the LC/P distinction of §5.2, including TTL-violating gear), and
// whole-house forwarders (§8).
package resolver

import (
	"container/list"
	"time"

	"dnscontext/internal/obs"
	"dnscontext/internal/trace"
)

// Cache is a TTL-honoring DNS cache with LRU eviction. Entries store the
// original answers with their insertion time so reads return decremented
// remaining TTLs, as real resolvers do.
type Cache struct {
	capacity int
	entries  map[string]*list.Element
	lru      *list.List // front = most recently used

	hits, misses, expired uint64

	// evictCtr mirrors the eviction count into the observability layer
	// when the owning platform is instrumented; nil is a no-op.
	evictCtr *obs.Counter
}

type cacheEntry struct {
	host       string
	answers    []trace.Answer // TTLs as stored (full lifetime from insertedAt)
	rcode      uint8
	insertedAt time.Duration
	expiresAt  time.Duration
}

// NewCache returns a cache holding at most capacity entries; capacity <= 0
// means unbounded.
func NewCache(capacity int) *Cache {
	return &Cache{
		capacity: capacity,
		entries:  make(map[string]*list.Element),
		lru:      list.New(),
	}
}

// Len returns the number of live entries (including expired ones not yet
// evicted).
func (c *Cache) Len() int { return len(c.entries) }

// Stats returns cumulative hit/miss/expired-hit counters.
func (c *Cache) Stats() (hits, misses, expired uint64) {
	return c.hits, c.misses, c.expired
}

// Observe mirrors future evictions into ctr (nil detaches).
func (c *Cache) Observe(ctr *obs.Counter) { c.evictCtr = ctr }

// Put stores answers for host at time now. The entry's lifetime is the
// minimum answer TTL. Answerless results (e.g. NXDOMAIN) may be stored
// with an explicit negTTL.
func (c *Cache) Put(now time.Duration, host string, answers []trace.Answer, rcode uint8, negTTL time.Duration) {
	life := negTTL
	for i, a := range answers {
		if i == 0 || a.TTL < life {
			life = a.TTL
		}
	}
	e := &cacheEntry{
		host:       host,
		answers:    answers,
		rcode:      rcode,
		insertedAt: now,
		expiresAt:  now + life,
	}
	if el, ok := c.entries[host]; ok {
		el.Value = e
		c.lru.MoveToFront(el)
		return
	}
	c.entries[host] = c.lru.PushFront(e)
	if c.capacity > 0 && c.lru.Len() > c.capacity {
		oldest := c.lru.Back()
		c.lru.Remove(oldest)
		delete(c.entries, oldest.Value.(*cacheEntry).host)
		c.evictCtr.Inc()
	}
}

// Get returns the unexpired answers for host with remaining TTLs, or
// ok=false on a miss or expiry. Expired entries are evicted.
func (c *Cache) Get(now time.Duration, host string) (answers []trace.Answer, rcode uint8, ok bool) {
	el, found := c.entries[host]
	if !found {
		c.misses++
		return nil, 0, false
	}
	e := el.Value.(*cacheEntry)
	if now >= e.expiresAt {
		c.expired++
		c.misses++
		c.lru.Remove(el)
		delete(c.entries, host)
		return nil, 0, false
	}
	c.hits++
	c.lru.MoveToFront(el)
	return remainingTTLs(e, now), e.rcode, true
}

// Peek is Get without statistics, LRU promotion, or eviction; the refresh
// simulator uses it to inspect cache state.
func (c *Cache) Peek(now time.Duration, host string) (expiresAt time.Duration, ok bool) {
	el, found := c.entries[host]
	if !found {
		return 0, false
	}
	e := el.Value.(*cacheEntry)
	if now >= e.expiresAt {
		return e.expiresAt, false
	}
	return e.expiresAt, true
}

func remainingTTLs(e *cacheEntry, now time.Duration) []trace.Answer {
	age := now - e.insertedAt
	if age < 0 {
		// Entries are stamped with the time their response completes; a
		// concurrent reader a moment earlier sees the full TTL.
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
	return out
}
