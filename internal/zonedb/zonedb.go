// Package zonedb builds the synthetic DNS namespace used by the traffic
// generator: a universe of hostnames with Zipf popularity, realistic TTL
// assignments, CDN-style shared hosting (many names resolving to one IP),
// per-zone authoritative lookup latency, and a service class that drives
// the application-transfer model.
//
// The paper's dataset is grounded in the real Internet namespace seen at
// the CCZ; this package is the substitution for that ground truth (see
// DESIGN.md). The knobs are chosen so that the phenomena the paper
// measures — short CDN TTLs, shared hosting confusing DN-Hunter, skewed
// name popularity — are all present.
package zonedb

import (
	"fmt"
	"math"
	"net/netip"
	"time"

	"dnscontext/internal/stats"
)

// ServiceClass categorizes what kind of application transaction a name
// serves; the households package maps classes to transfer-size and
// duration distributions.
type ServiceClass uint8

// Service classes.
const (
	ServiceWeb      ServiceClass = iota // page and object fetches
	ServiceAPI                          // short request/response
	ServiceVideo                        // long, high-volume streams
	ServiceDownload                     // bulk transfers
	ServiceChat                         // long-lived low-rate connections
	ServiceProbe                        // tiny connectivity checks
)

// String returns a short mnemonic for the class.
func (s ServiceClass) String() string {
	switch s {
	case ServiceWeb:
		return "web"
	case ServiceAPI:
		return "api"
	case ServiceVideo:
		return "video"
	case ServiceDownload:
		return "download"
	case ServiceChat:
		return "chat"
	case ServiceProbe:
		return "probe"
	}
	return fmt.Sprintf("service%d", uint8(s))
}

// Name is one hostname in the synthetic namespace.
type Name struct {
	// Host is the fully qualified name (no trailing dot).
	Host string
	// Addrs are the A-record addresses. CDN-hosted names share addresses
	// with other names.
	Addrs []netip.Addr
	// TTL is the authoritative record TTL.
	TTL time.Duration
	// AuthDelay is the extra time a recursive resolver needs to answer a
	// cache miss for this name (iterating to the authoritative servers).
	AuthDelay time.Duration
	// Service drives the application transfer model.
	Service ServiceClass
	// Port is the service's well-known destination port.
	Port uint16
	// Rank is the popularity rank (0 = most popular).
	Rank int
	// CDN is true when the name is hosted on shared CDN infrastructure.
	CDN bool
}

// Config parameterizes the namespace.
type Config struct {
	// NumNames is the universe size.
	NumNames int
	// ZipfExponent skews the popularity distribution (typical: ~0.9–1.1).
	ZipfExponent float64
	// CDNFraction is the fraction of names hosted on shared CDN IPs.
	CDNFraction float64
	// CDNPoolSize is the number of distinct shared CDN addresses.
	CDNPoolSize int
}

// DefaultConfig matches the scale used for the paper-reproduction runs.
func DefaultConfig() Config {
	return Config{
		NumNames:     20000,
		ZipfExponent: 1.15,
		CDNFraction:  0.35,
		CDNPoolSize:  3000,
	}
}

// DB is an immutable synthetic namespace. Lookups by hostname and
// popularity-weighted sampling are both supported.
type DB struct {
	names  []*Name
	byHost map[string]*Name
	zipf   *stats.Zipf
	// shares[rank] is the popularity pmf.
	shares []float64
	// ConnectivityCheck is the Android captive-portal probe name the paper
	// singles out in §7; it is part of every namespace.
	ConnectivityCheck *Name
}

// The connectivity-check hostname from the paper (an Android artifact).
const connectivityCheckHost = "connectivitycheck.gstatic.com"

var tlds = []string{"com", "net", "org", "io", "tv"}

// ttlBucket describes one TTL mode and its probability weight.
type ttlBucket struct {
	ttl    time.Duration
	weight float64
}

// The TTL mix loosely follows edge-network measurements (Moura et al.,
// IMC'19; Callahan et al.): plenty of 5-minute and 1-hour records, a
// short-TTL mass from CDNs, and a long tail of daily TTLs.
var ttlBuckets = []ttlBucket{
	{5 * time.Second, 0.04},
	{30 * time.Second, 0.10},
	{60 * time.Second, 0.16},
	{300 * time.Second, 0.34},
	{3600 * time.Second, 0.24},
	{86400 * time.Second, 0.12},
}

// CDN-hosted names skew much shorter.
var cdnTTLBuckets = []ttlBucket{
	{5 * time.Second, 0.06},
	{20 * time.Second, 0.24},
	{60 * time.Second, 0.35},
	{300 * time.Second, 0.35},
}

var serviceMix = []struct {
	class  ServiceClass
	port   uint16
	weight float64
}{
	{ServiceWeb, 443, 0.52},
	{ServiceWeb, 80, 0.10},
	{ServiceAPI, 443, 0.20},
	{ServiceVideo, 443, 0.08},
	{ServiceDownload, 443, 0.05},
	{ServiceChat, 443, 0.05},
}

// New builds a namespace from cfg, deterministically from r.
func New(cfg Config, r *stats.RNG) (*DB, error) {
	if cfg.NumNames <= 0 {
		return nil, fmt.Errorf("zonedb: NumNames must be positive, got %d", cfg.NumNames)
	}
	if cfg.CDNPoolSize <= 0 {
		cfg.CDNPoolSize = 1
	}
	zipf, err := stats.NewZipf(cfg.NumNames, cfg.ZipfExponent)
	if err != nil {
		return nil, fmt.Errorf("zonedb: %w", err)
	}
	ttlW, err := weights(ttlBuckets)
	if err != nil {
		return nil, err
	}
	cdnTTLW, err := weights(cdnTTLBuckets)
	if err != nil {
		return nil, err
	}
	svcWeights := make([]float64, len(serviceMix))
	for i, s := range serviceMix {
		svcWeights[i] = s.weight
	}
	svcW, err := stats.NewWeighted(svcWeights)
	if err != nil {
		return nil, err
	}

	// Shared CDN address pool: 198.18.0.0/15 (benchmark space, never
	// collides with client or resolver addresses).
	cdnPool := make([]netip.Addr, cfg.CDNPoolSize)
	for i := range cdnPool {
		cdnPool[i] = ip4(198, 18, byte(i/256), byte(i%256))
	}

	db := &DB{
		names:  make([]*Name, 0, cfg.NumNames),
		byHost: make(map[string]*Name, cfg.NumNames),
		zipf:   zipf,
		shares: make([]float64, cfg.NumNames),
	}
	var hsum float64
	for i := 0; i < cfg.NumNames; i++ {
		db.shares[i] = 1 / math.Pow(float64(i+1), cfg.ZipfExponent)
		hsum += db.shares[i]
	}
	for i := range db.shares {
		db.shares[i] /= hsum
	}

	// AuthDelay: lognormal around ~22 ms — often a single authoritative
	// RTT with the delegation chain already cached — with a heavy-ish
	// tail for far-away or lame infrastructure.
	authDelay := stats.LogNormalFromMedian(10, 0.9) // milliseconds

	for i := 0; i < cfg.NumNames; i++ {
		n := &Name{Rank: i}
		sel := serviceMix[svcW.Pick(r)]
		n.Service, n.Port = sel.class, sel.port
		n.CDN = r.Bool(cfg.CDNFraction)

		label := fmt.Sprintf("site%05d", i)
		sub := "www"
		switch n.Service {
		case ServiceAPI:
			sub = "api"
		case ServiceVideo:
			sub = "video"
		case ServiceDownload:
			sub = "dl"
		case ServiceChat:
			sub = "chat"
		}
		if n.CDN {
			sub = "cdn"
		}
		n.Host = fmt.Sprintf("%s.%s.%s", sub, label, tlds[i%len(tlds)])

		if n.CDN {
			n.TTL = cdnTTLBuckets[cdnTTLW.Pick(r)].ttl
			// One or two addresses from the shared pool.
			n.Addrs = append(n.Addrs, cdnPool[r.Intn(len(cdnPool))])
			if r.Bool(0.3) {
				n.Addrs = append(n.Addrs, cdnPool[r.Intn(len(cdnPool))])
			}
		} else {
			n.TTL = ttlBuckets[ttlW.Pick(r)].ttl
			// Dedicated address derived from the rank: 203.0.x.y is unique
			// per name modulo 65536, then 100.64+ for the overflow.
			n.Addrs = []netip.Addr{dedicatedAddr(i)}
		}
		n.AuthDelay = time.Duration(authDelay.Sample(r)*float64(time.Millisecond)) + 3*time.Millisecond

		db.names = append(db.names, n)
		db.byHost[n.Host] = n
	}

	// The connectivity-check probe name: extremely popular on Android,
	// tiny transactions, short TTL, Google-hosted.
	cc := &Name{
		Host:      connectivityCheckHost,
		Addrs:     []netip.Addr{ip4(198, 18, 255, 1)},
		TTL:       300 * time.Second,
		AuthDelay: 20 * time.Millisecond,
		Service:   ServiceProbe,
		Port:      443,
		Rank:      -1,
		CDN:       true,
	}
	db.byHost[cc.Host] = cc
	db.ConnectivityCheck = cc
	return db, nil
}

func weights(buckets []ttlBucket) (*stats.Weighted, error) {
	ws := make([]float64, len(buckets))
	for i, b := range buckets {
		ws[i] = b.weight
	}
	return stats.NewWeighted(ws)
}

func ip4(a, b, c, d byte) netip.Addr { return netip.AddrFrom4([4]byte{a, b, c, d}) }

func dedicatedAddr(rank int) netip.Addr {
	// 203.0.0.0/12-ish synthetic space, 64k names per /16 block.
	block := rank / 65536
	rem := rank % 65536
	return ip4(203, byte(block), byte(rem/256), byte(rem%256))
}

// Size returns the number of ranked names (excluding the probe name).
func (db *DB) Size() int { return len(db.names) }

// Pick samples a name by popularity.
func (db *DB) Pick(r *stats.RNG) *Name { return db.names[db.zipf.Rank(r)] }

// ByRank returns the name at the given popularity rank.
func (db *DB) ByRank(rank int) *Name { return db.names[rank] }

// Lookup returns the name record for host, or nil.
func (db *DB) Lookup(host string) *Name { return db.byHost[host] }

// LookupBytes is Lookup for a host name held in bytes; it does not copy
// them.
func (db *DB) LookupBytes(host []byte) *Name { return db.byHost[string(host)] }

// Share returns the popularity probability mass of n — the chance a
// single popularity draw selects it. The connectivity-check probe name
// (rank −1) is assigned a high constant share reflecting its outsized
// real-world query volume.
func (db *DB) Share(n *Name) float64 {
	if n.Rank < 0 {
		return 0.01
	}
	if n.Rank >= len(db.shares) {
		return 0
	}
	return db.shares[n.Rank]
}

// Names returns the ranked name universe. The slice is owned by the DB and
// must not be modified.
func (db *DB) Names() []*Name { return db.names }
