package resolver

import (
	"net/netip"
	"testing"
	"time"

	"dnscontext/internal/stats"
	"dnscontext/internal/trace"
	"dnscontext/internal/zonedb"
)

func ans(addr string, ttl time.Duration) trace.Answer {
	return trace.Answer{Addr: netip.MustParseAddr(addr), TTL: ttl}
}

func TestCacheBasicHitMiss(t *testing.T) {
	c := NewCache(10)
	if _, _, ok := c.Get(0, "a.com"); ok {
		t.Fatal("hit on empty cache")
	}
	c.Put(0, "a.com", []trace.Answer{ans("203.0.0.1", 300*time.Second)}, 0, 0)
	got, rcode, ok := c.Get(100*time.Second, "a.com")
	if !ok || rcode != 0 {
		t.Fatal("expected hit")
	}
	if got[0].TTL != 200*time.Second {
		t.Fatalf("remaining TTL %v, want 200s", got[0].TTL)
	}
	hits, misses, _ := c.Stats()
	if hits != 1 || misses != 1 {
		t.Fatalf("stats %d/%d", hits, misses)
	}
}

func TestCacheExpiry(t *testing.T) {
	c := NewCache(10)
	c.Put(0, "a.com", []trace.Answer{ans("203.0.0.1", 60*time.Second)}, 0, 0)
	if _, _, ok := c.Get(60*time.Second, "a.com"); ok {
		t.Fatal("hit exactly at expiry")
	}
	_, _, expired := c.Stats()
	if expired != 1 {
		t.Fatalf("expired counter %d", expired)
	}
	if c.Len() != 0 {
		t.Fatal("expired entry not evicted")
	}
}

func TestCacheMinTTLGovernsLifetime(t *testing.T) {
	c := NewCache(10)
	c.Put(0, "a.com", []trace.Answer{
		ans("203.0.0.1", 300*time.Second),
		ans("203.0.0.2", 10*time.Second),
	}, 0, 0)
	if _, _, ok := c.Get(11*time.Second, "a.com"); ok {
		t.Fatal("entry outlived its minimum TTL")
	}
}

func TestCacheNegativeEntries(t *testing.T) {
	c := NewCache(10)
	c.Put(0, "nx.com", nil, 3, 30*time.Second)
	_, rcode, ok := c.Get(10*time.Second, "nx.com")
	if !ok || rcode != 3 {
		t.Fatalf("negative entry: ok=%v rcode=%d", ok, rcode)
	}
	if _, _, ok := c.Get(31*time.Second, "nx.com"); ok {
		t.Fatal("negative entry outlived negTTL")
	}
}

func TestCacheLRUEviction(t *testing.T) {
	c := NewCache(2)
	c.Put(0, "a.com", []trace.Answer{ans("203.0.0.1", time.Hour)}, 0, 0)
	c.Put(0, "b.com", []trace.Answer{ans("203.0.0.2", time.Hour)}, 0, 0)
	c.Get(0, "a.com") // promote a
	c.Put(0, "c.com", []trace.Answer{ans("203.0.0.3", time.Hour)}, 0, 0)
	if _, _, ok := c.Get(0, "b.com"); ok {
		t.Fatal("LRU victim b.com still present")
	}
	if _, _, ok := c.Get(0, "a.com"); !ok {
		t.Fatal("recently used a.com evicted")
	}
}

func TestCacheOverwrite(t *testing.T) {
	c := NewCache(10)
	c.Put(0, "a.com", []trace.Answer{ans("203.0.0.1", 10*time.Second)}, 0, 0)
	c.Put(5*time.Second, "a.com", []trace.Answer{ans("203.0.0.9", 100*time.Second)}, 0, 0)
	got, _, ok := c.Get(50*time.Second, "a.com")
	if !ok || got[0].Addr != netip.MustParseAddr("203.0.0.9") {
		t.Fatalf("overwrite lost: %v %v", got, ok)
	}
	if c.Len() != 1 {
		t.Fatalf("len %d after overwrite", c.Len())
	}
}

func TestCachePeek(t *testing.T) {
	c := NewCache(10)
	c.Put(0, "a.com", []trace.Answer{ans("203.0.0.1", 60*time.Second)}, 0, 0)
	if exp, ok := c.Peek(30*time.Second, "a.com"); !ok || exp != 60*time.Second {
		t.Fatalf("peek = %v %v", exp, ok)
	}
	if _, ok := c.Peek(61*time.Second, "a.com"); ok {
		t.Fatal("peek returned expired entry")
	}
	if c.Len() != 1 {
		t.Fatal("peek evicted")
	}
}

func newEcosystem(t *testing.T) (*zonedb.DB, *Authority) {
	t.Helper()
	zones, err := zonedb.New(zonedb.Config{NumNames: 200, ZipfExponent: 1, CDNFraction: 0.3, CDNPoolSize: 10}, stats.NewRNG(5))
	if err != nil {
		t.Fatal(err)
	}
	return zones, NewAuthority(zones)
}

func TestAuthorityResolve(t *testing.T) {
	zones, auth := newEcosystem(t)
	r := stats.NewRNG(1)
	n := zones.ByRank(0)
	res := auth.Resolve(n.Host, r)
	if res.RCode != 0 || len(res.Answers) != len(n.Addrs) {
		t.Fatalf("result %+v", res)
	}
	if res.Answers[0].TTL != n.TTL {
		t.Fatalf("TTL %v, want %v", res.Answers[0].TTL, n.TTL)
	}
	if res.Delay < n.AuthDelay {
		t.Fatalf("delay %v below zone base %v", res.Delay, n.AuthDelay)
	}
}

func TestAuthorityNXDomain(t *testing.T) {
	_, auth := newEcosystem(t)
	res := auth.Resolve("definitely.not.a.name", stats.NewRNG(2))
	if res.RCode != 3 || len(res.Answers) != 0 {
		t.Fatalf("NXDOMAIN result %+v", res)
	}
	if res.Delay <= 0 {
		t.Fatal("NXDOMAIN was free")
	}
}

func TestRecursiveColdThenWarm(t *testing.T) {
	zones, auth := newEcosystem(t)
	prof := DefaultProfiles()[int(PlatformCloudflare)]
	prof.ExternalQPS = 0 // isolate the in-simulation cache behavior
	rr := NewRecursive(prof, auth, stats.NewRNG(3))
	host := zones.ByRank(0).Host

	cold := rr.Lookup(0, host)
	if cold.FromCache {
		t.Fatal("first lookup was a cache hit")
	}
	warm := rr.Lookup(time.Second, host)
	if !warm.FromCache {
		t.Fatal("second lookup missed a single-partition cache")
	}
	if warm.Duration >= cold.Duration {
		t.Fatalf("warm %v not faster than cold %v", warm.Duration, cold.Duration)
	}
	// Warm lookup duration is just the RTT: roughly 2*Base for Cloudflare.
	if warm.Duration < 2*prof.Link.Base {
		t.Fatalf("warm duration %v below minimum RTT", warm.Duration)
	}
	if rr.HitRate() != 0.5 {
		t.Fatalf("hit rate %v", rr.HitRate())
	}
}

func TestRecursiveTTLDecrementsAcrossCache(t *testing.T) {
	zones, auth := newEcosystem(t)
	prof := DefaultProfiles()[int(PlatformCloudflare)]
	prof.ExternalQPS = 0
	rr := NewRecursive(prof, auth, stats.NewRNG(4))
	// Find a name with a comfortable TTL.
	var host string
	var ttl time.Duration
	for _, n := range zones.Names() {
		if n.TTL >= 300*time.Second {
			host, ttl = n.Host, n.TTL
			break
		}
	}
	rr.Lookup(0, host)
	res := rr.Lookup(ttl/2, host)
	if !res.FromCache {
		t.Fatal("expected warm hit")
	}
	if res.Answers[0].TTL >= ttl {
		t.Fatalf("cached answer TTL %v not decremented from %v", res.Answers[0].TTL, ttl)
	}
}

func TestRecursivePartitioningLowersHitRate(t *testing.T) {
	zones, auth := newEcosystem(t)
	mono := DefaultProfiles()[int(PlatformCloudflare)]
	mono.ExternalQPS = 0
	parted := mono
	parted.Partitions = 64

	run := func(prof PlatformProfile, seed uint64) float64 {
		rr := NewRecursive(prof, auth, stats.NewRNG(seed))
		r := stats.NewRNG(seed + 1)
		now := time.Duration(0)
		for i := 0; i < 4000; i++ {
			now += 500 * time.Millisecond
			rr.Lookup(now, zones.Pick(r).Host)
		}
		return rr.HitRate()
	}
	hrMono := run(mono, 10)
	hrParted := run(parted, 20)
	if hrParted >= hrMono-0.1 {
		t.Fatalf("partitioned hit rate %.3f not clearly below monolithic %.3f", hrParted, hrMono)
	}
}

func TestRecursiveNXDomainNegativeCache(t *testing.T) {
	_, auth := newEcosystem(t)
	prof := DefaultProfiles()[int(PlatformCloudflare)]
	prof.ExternalQPS = 0
	rr := NewRecursive(prof, auth, stats.NewRNG(6))
	first := rr.Lookup(0, "missing.example.test")
	if first.RCode != 3 || first.FromCache {
		t.Fatalf("first NX result %+v", first)
	}
	second := rr.Lookup(10*time.Second, "missing.example.test")
	if !second.FromCache || second.RCode != 3 {
		t.Fatalf("negative answer not cached: %+v", second)
	}
}

func TestPlatformOf(t *testing.T) {
	profiles := DefaultProfiles()
	id, ok := PlatformOf(netip.MustParseAddr("8.8.4.4"), profiles)
	if !ok || id != PlatformGoogle {
		t.Fatalf("PlatformOf(8.8.4.4) = %v %v", id, ok)
	}
	if _, ok := PlatformOf(netip.MustParseAddr("9.9.9.9"), profiles); ok {
		t.Fatal("unknown resolver matched a platform")
	}
	if PlatformLocal.String() != "Local" || PlatformID(99).String() != "Unknown" {
		t.Fatal("PlatformID.String")
	}
}

func TestStubHonorsTTLByDefault(t *testing.T) {
	s := NewStub(100, 0)
	s.Put(0, "a.com", []trace.Answer{ans("203.0.0.1", 60*time.Second)})
	if got, ok := s.Get(30*time.Second, "a.com"); !ok || got.Expired {
		t.Fatalf("mid-TTL get = %+v %v", got, ok)
	}
	if _, ok := s.Get(61*time.Second, "a.com"); ok {
		t.Fatal("TTL-honoring stub served expired entry")
	}
}

func TestStubTTLViolation(t *testing.T) {
	s := NewStub(100, time.Hour)
	s.Put(0, "a.com", []trace.Answer{ans("203.0.0.1", 60*time.Second)})
	got, ok := s.Get(30*time.Minute, "a.com")
	if !ok {
		t.Fatal("violating stub dropped held entry")
	}
	if !got.Expired {
		t.Fatal("expired use not flagged")
	}
	if got.Answers[0].TTL != 0 {
		t.Fatalf("expired entry remaining TTL %v, want 0", got.Answers[0].TTL)
	}
	if _, ok := s.Get(61*time.Minute, "a.com"); ok {
		t.Fatal("entry outlived the hold window")
	}
}

func TestStubMinHoldShorterThanTTL(t *testing.T) {
	s := NewStub(100, time.Second)
	s.Put(0, "a.com", []trace.Answer{ans("203.0.0.1", time.Hour)})
	if got, ok := s.Get(30*time.Minute, "a.com"); !ok || got.Expired {
		t.Fatal("long-TTL entry must survive to its TTL regardless of MinHold")
	}
}

func TestStubIgnoresAnswerless(t *testing.T) {
	s := NewStub(100, 0)
	s.Put(0, "nx.com", nil)
	if s.Len() != 0 {
		t.Fatal("answerless response cached")
	}
}

func TestStubCapacity(t *testing.T) {
	s := NewStub(2, 0)
	for i, h := range []string{"a.com", "b.com", "c.com"} {
		s.Put(time.Duration(i)*time.Second, h, []trace.Answer{ans("203.0.0.1", time.Hour)})
	}
	if s.Len() != 2 {
		t.Fatalf("len %d", s.Len())
	}
	if _, ok := s.Get(3*time.Second, "a.com"); ok {
		t.Fatal("oldest entry survived eviction")
	}
}

func TestExternallyWarmServesPopularNames(t *testing.T) {
	zones, auth := newEcosystem(t)
	prof := DefaultProfiles()[int(PlatformCloudflare)]
	prof.ExternalQPS = 1e9 // everyone on Earth queries this frontend
	rr := NewRecursive(prof, auth, stats.NewRNG(7))
	res := rr.Lookup(0, zones.ByRank(0).Host)
	if !res.FromCache {
		t.Fatal("hugely popular name missed an infinitely warm cache")
	}
	if len(res.Answers) == 0 || res.Answers[0].TTL <= 0 {
		t.Fatalf("warm answers malformed: %+v", res.Answers)
	}
	if res.Answers[0].TTL > zones.ByRank(0).TTL {
		t.Fatalf("residual TTL %v exceeds authoritative %v", res.Answers[0].TTL, zones.ByRank(0).TTL)
	}
}

func TestExternallyWarmIgnoresUnknownNames(t *testing.T) {
	_, auth := newEcosystem(t)
	prof := DefaultProfiles()[int(PlatformCloudflare)]
	prof.ExternalQPS = 1e9
	rr := NewRecursive(prof, auth, stats.NewRNG(8))
	res := rr.Lookup(0, "not.a.real.name")
	if res.FromCache || res.RCode != 3 {
		t.Fatalf("unknown name served warm: %+v", res)
	}
}
