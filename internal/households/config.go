// Package households generates the synthetic residential workload that
// substitutes for the paper's CCZ trace: houses behind NAT, each with a
// mix of devices (Android phones, browsing laptops, IoT gear with
// hard-coded server addresses, peer-to-peer boxes), producing both DNS
// transactions and application connections on a shared discrete-event
// timeline.
//
// The generator's knobs are calibrated (see calibration_test.go) so the
// phenomena the paper measures emerge from mechanisms rather than being
// painted on: stub caches produce LC connections, browser link prefetch
// produces P connections and unused lookups, shared resolver caches split
// blocked connections into SC and R, and TTL-violating gear produces
// outdated-record use.
package households

import (
	"time"

	"dnscontext/internal/netsim"
	"dnscontext/internal/obs"
	"dnscontext/internal/zonedb"
)

// FaultsConfig injects failures into every client<->resolver path. The
// zero value is a pristine network and reproduces fault-free runs bit for
// bit (the fault hooks consume no randomness when disabled).
type FaultsConfig struct {
	// Loss is the per-transmission drop probability, applied independently
	// to the query and the response of every attempt.
	Loss float64
	// ExtraJitter adds an exponential jitter term (with this mean) to
	// every delivery, modeling congested access links.
	ExtraJitter time.Duration
	// LocalOutages schedules windows during which the Local (ISP)
	// resolver platform drops everything — the "resolver outage" scenario.
	// Times are relative to the observation window start (warmup shifting
	// is handled internally).
	LocalOutages []netsim.Window
	// TruncateOver marks responses with more than this many answers as
	// truncated over UDP, forcing a TCP retry. Zero disables truncation.
	TruncateOver int
	// StaleHold enables RFC 8767 serve-stale on phone and laptop stubs:
	// when the upstream resolver times out, a device may fall back to an
	// expired cached record retained up to this long past expiry.
	StaleHold time.Duration
}

// IsZero reports whether the configuration injects no faults at all.
func (f FaultsConfig) IsZero() bool {
	return f.Loss <= 0 && f.ExtraJitter <= 0 && len(f.LocalOutages) == 0 &&
		f.TruncateOver <= 0 && f.StaleHold <= 0
}

// TransportConfig selects the wire transport every resolver platform
// speaks (the simulation models a deployment-wide transport switch, the
// what-if question the paper leaves open). The zero value is Do53 over
// UDP and reproduces pre-transport runs bit for bit — stream state is
// then never allocated and no extra randomness is drawn.
type TransportConfig struct {
	// Kind names the transport: "" or "udp" (Do53), "tcp" (DoTCP,
	// RFC 7766), "dot" (DoT, RFC 7858), or "doh" (DoH, RFC 8484).
	Kind string
	// SessionResumption enables TLS session tickets for dot/doh, so
	// reconnects within the ticket lifetime pay a shortened handshake.
	SessionResumption bool
	// IdleTimeout overrides how long idle persistent connections are kept
	// (zero takes the transport's calibrated default, 10 s).
	IdleTimeout time.Duration
}

// IsZero reports whether the transport is the Do53 default.
func (t TransportConfig) IsZero() bool { return t.Kind == "" }

// Config parameterizes a generation run.
type Config struct {
	// Houses is the number of residences.
	Houses int
	// Duration is the observation window length.
	Duration time.Duration
	// Warmup is simulated before the window opens so device stubs and
	// shared resolver caches are in steady state, as the paper's were at
	// capture start. Warmup traffic is discarded and timestamps are
	// shifted so the window starts at zero.
	Warmup time.Duration
	// Seed drives all randomness.
	Seed uint64
	// Zone configures the synthetic namespace.
	Zone zonedb.Config

	// --- House composition ---

	// GoogleHouseProb is the probability a house has at least one Android
	// device (and therefore uses Google DNS); the paper observes 83.5% of
	// houses using Google.
	GoogleHouseProb float64
	// OpenDNSHouseProb / CloudflareHouseProb configure third-party
	// resolvers house-wide (paper: 25.3% / 3.8% of houses).
	OpenDNSHouseProb    float64
	CloudflareHouseProb float64
	// P2PHouseProb is the fraction of houses running peer-to-peer
	// software.
	P2PHouseProb float64

	// --- Per-device behavior ---

	// SessionsPerDay is the mean number of browsing sessions per browsing
	// device per day; rates below 0.01 browse at 0.01.
	SessionsPerDay float64
	// PagesPerSession is the mean page views in one session.
	PagesPerSession float64
	// EmbeddedDomainsPerPage is the mean number of third-party domains a
	// page pulls objects from.
	EmbeddedDomainsPerPage float64
	// PrefetchPerPage is the mean number of speculative link lookups the
	// browser issues per page view.
	PrefetchPerPage float64
	// PrefetchClickProb is the chance a prefetched link is eventually
	// clicked (the paper estimates 22.3% of speculative lookups are used).
	PrefetchClickProb float64
	// DualStackProb is the chance a wire lookup is accompanied by an AAAA
	// query. The namespace is v4-only, so these transactions never pair
	// with a connection — a major real-world source of the paper's 37.8%
	// unused lookups.
	DualStackProb float64
	// AppsPerDevice is the mean number of background apps (chat, sync,
	// telemetry) doing periodic transactions per device.
	AppsPerDevice float64
	// AppPeriodMedian is the median interval between one app's
	// transactions.
	AppPeriodMedian time.Duration
	// AppResolveAheadProb is the chance an app tick resolves its name
	// first and only connects minutes later (background refresh
	// scheduling) — a non-browser source of prefetched (P) connections.
	AppResolveAheadProb float64
	// DwellMedian is the median time a user spends on a page before the
	// next sequential page view.
	DwellMedian time.Duration
	// ClickDelayMedian is the median time between a speculative link
	// lookup and the user clicking that link (drives the paper's 310 s
	// median lookup-to-use gap for P connections).
	ClickDelayMedian time.Duration
	// ProbePeriodMedian is the median interval between Android
	// connectivity-check probes.
	ProbePeriodMedian time.Duration
	// TTLViolatorProb is the chance a device's stub cache ignores TTLs,
	// holding entries for an extended time (residential gear behavior the
	// paper observes through 22.2% of LC connections using expired
	// records).
	TTLViolatorProb float64
	// ViolationHoldMedian is the median extra hold time of violating
	// stubs.
	ViolationHoldMedian time.Duration

	// EncryptedDNSProb is the probability a browsing device uses
	// encrypted DNS (DoT) for all its lookups. The paper's §3 notes that
	// widespread encrypted DNS would make its passive study impossible;
	// setting this above zero quantifies the degradation: encrypted
	// lookups appear only as TCP connections to the resolver, and the
	// transactions that depend on them become unpairable. Zero (the
	// default) matches the paper's 2019 capture.
	EncryptedDNSProb float64
	// EncryptedDNSDoH selects DNS-over-HTTPS instead of DNS-over-TLS for
	// the encrypted devices: lookups then ride TCP/443 and are not even
	// identifiable by port, erasing the paper's §5.1 DoT check too.
	EncryptedDNSDoH bool

	// --- Blocked-connection timing ---

	// AppStartDelayMean is the mean gap between a DNS answer arriving and
	// the blocked connection's first packet (Figure 1's left mode).
	AppStartDelayMean time.Duration

	// SharedVisitProb is the chance a page view is echoed by another
	// device in the same house minutes later (family members sharing
	// links and interests). This cross-device same-name locality is what
	// gives a whole-house cache its §8 value.
	SharedVisitProb float64

	// --- Working set / revisit model ---

	// WorkingSetSize is the number of sites a device habitually revisits.
	WorkingSetSize int
	// RevisitProb is the chance a page view targets the working set
	// rather than a fresh popularity draw.
	RevisitProb float64

	// Faults injects packet loss, jitter, outages, and truncation into
	// the resolution path. The zero value reproduces fault-free behavior
	// exactly.
	Faults FaultsConfig

	// Transport switches every resolver platform to an encrypted/stream
	// transport (DoTCP/DoT/DoH). The zero value keeps the paper's Do53
	// and reproduces pre-transport runs bit for bit.
	Transport TransportConfig

	// Metrics, when non-nil, receives generator-side observability:
	// per-platform resolver counters (cache hits/misses/evictions, retry
	// and fault-path activity) and event-loop gauges from the simulation
	// engine. Instruments only record — they never feed back into the
	// simulation — so seeded runs are bit-identical with or without a
	// registry.
	Metrics *obs.Registry
}

// DefaultConfig returns the calibrated configuration used for the
// paper-scale reproduction (scaled by Houses and Duration).
func DefaultConfig() Config {
	return Config{
		Houses:   100,
		Duration: 24 * time.Hour,
		Warmup:   6 * time.Hour,
		Seed:     1,
		Zone:     zonedb.DefaultConfig(),

		GoogleHouseProb:     0.835,
		OpenDNSHouseProb:    0.253,
		CloudflareHouseProb: 0.038,
		P2PHouseProb:        0.22,

		SessionsPerDay:         10,
		PagesPerSession:        8,
		EmbeddedDomainsPerPage: 2.2,
		PrefetchPerPage:        2.0,
		PrefetchClickProb:      0.62,
		DualStackProb:          0.25,
		AppsPerDevice:          2.0,
		AppPeriodMedian:        8 * time.Minute,
		AppResolveAheadProb:    0.35,
		DwellMedian:            45 * time.Second,
		ClickDelayMedian:       3 * time.Minute,
		ProbePeriodMedian:      20 * time.Minute,
		TTLViolatorProb:        0.17,
		ViolationHoldMedian:    45 * time.Minute,

		AppStartDelayMean: 4 * time.Millisecond,

		SharedVisitProb: 0.22,

		WorkingSetSize: 12,
		RevisitProb:    0.68,
	}
}

// SmallConfig is a fast configuration for tests and examples: a handful of
// houses over a few simulated hours.
func SmallConfig(seed uint64) Config {
	cfg := DefaultConfig()
	cfg.Houses = 12
	cfg.Duration = 6 * time.Hour
	cfg.Warmup = 3 * time.Hour
	cfg.Seed = seed
	cfg.Zone.NumNames = 1200
	cfg.Zone.CDNPoolSize = 120
	return cfg
}
