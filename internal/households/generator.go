package households

import (
	"fmt"
	"math"
	"net/netip"
	"time"

	"dnscontext/internal/blocks"
	"dnscontext/internal/netsim"
	"dnscontext/internal/resolver"
	"dnscontext/internal/stats"
	"dnscontext/internal/trace"
	"dnscontext/internal/zonedb"
)

// Ecosystem exposes the simulated resolution infrastructure behind a
// generated trace, for diagnostics and calibration.
type Ecosystem struct {
	Zones     *zonedb.DB
	Platforms map[resolver.PlatformID]*resolver.Recursive
	Profiles  []resolver.PlatformProfile
}

// Generator builds one synthetic observation window.
type Generator struct {
	cfg       Config
	sim       *netsim.Sim
	rng       *stats.RNG
	zones     *zonedb.DB
	auth      *resolver.Authority
	platforms map[resolver.PlatformID]*resolver.Recursive
	profiles  []resolver.PlatformProfile
	tm        *transferModel
	houses    []*house

	// The simulation's records, warm-up included, in emission order;
	// trim copies the observation window out of them.
	dns   blocks.List[trace.DNSRecord]
	conns blocks.List[trace.ConnRecord]
}

// Hard-coded external endpoints mimicking the paper's §5.1 examples: a
// retired public NTP server baked into TP-Link firmware, Ooma VoIP NTP,
// and AlarmNet security-monitoring servers.
var (
	deadNTPAddr  = netip.AddrFrom4([4]byte{192, 0, 2, 123})
	oomaNTPAddr  = netip.AddrFrom4([4]byte{198, 51, 100, 123})
	alarmNetAddr = netip.AddrFrom4([4]byte{198, 51, 100, 200})
)

// Generate synthesizes the two datasets for cfg. The returned dataset is
// time-sorted; the Ecosystem gives access to the resolver state after the
// run.
func Generate(cfg Config) (*trace.Dataset, *Ecosystem, error) {
	if cfg.Houses <= 0 {
		return nil, nil, fmt.Errorf("households: Houses must be positive, got %d", cfg.Houses)
	}
	if cfg.Duration <= 0 {
		return nil, nil, fmt.Errorf("households: Duration must be positive, got %v", cfg.Duration)
	}
	if cfg.Warmup < 0 {
		return nil, nil, fmt.Errorf("households: Warmup must not be negative, got %v", cfg.Warmup)
	}
	for _, p := range []struct {
		name string
		v    float64
	}{
		{"GoogleHouseProb", cfg.GoogleHouseProb},
		{"OpenDNSHouseProb", cfg.OpenDNSHouseProb},
		{"CloudflareHouseProb", cfg.CloudflareHouseProb},
		{"P2PHouseProb", cfg.P2PHouseProb},
		{"PrefetchClickProb", cfg.PrefetchClickProb},
		{"DualStackProb", cfg.DualStackProb},
		{"TTLViolatorProb", cfg.TTLViolatorProb},
		{"RevisitProb", cfg.RevisitProb},
		{"SharedVisitProb", cfg.SharedVisitProb},
		{"AppResolveAheadProb", cfg.AppResolveAheadProb},
		{"EncryptedDNSProb", cfg.EncryptedDNSProb},
		{"Faults.Loss", cfg.Faults.Loss},
	} {
		if p.v < 0 || p.v > 1 {
			return nil, nil, fmt.Errorf("households: %s = %v outside [0, 1]", p.name, p.v)
		}
	}
	for _, m := range []struct {
		name string
		v    time.Duration
	}{
		{"AppPeriodMedian", cfg.AppPeriodMedian},
		{"DwellMedian", cfg.DwellMedian},
		{"ClickDelayMedian", cfg.ClickDelayMedian},
		{"ProbePeriodMedian", cfg.ProbePeriodMedian},
		{"ViolationHoldMedian", cfg.ViolationHoldMedian},
	} {
		if m.v <= 0 {
			return nil, nil, fmt.Errorf("households: %s must be positive, got %v", m.name, m.v)
		}
	}
	if cfg.AppStartDelayMean < 0 {
		return nil, nil, fmt.Errorf("households: AppStartDelayMean must not be negative, got %v", cfg.AppStartDelayMean)
	}
	if !(cfg.SessionsPerDay >= 0) || math.IsInf(cfg.SessionsPerDay, 1) {
		return nil, nil, fmt.Errorf("households: SessionsPerDay must be finite and not negative, got %v", cfg.SessionsPerDay)
	}
	for i, w := range cfg.Faults.LocalOutages {
		if w.Start < 0 || w.End <= w.Start {
			return nil, nil, fmt.Errorf("households: Faults.LocalOutages[%d] = %v..%v not a valid window", i, w.Start, w.End)
		}
	}
	tkind, err := resolver.ParseTransport(cfg.Transport.Kind)
	if err != nil {
		return nil, nil, fmt.Errorf("households: %w", err)
	}
	g := &Generator{
		cfg: cfg,
		sim: netsim.New(),
		rng: stats.NewRNG(cfg.Seed),
		tm:  nil,
	}
	g.tm = newTransferModel(g.rng.Split())

	zones, err := zonedb.New(cfg.Zone, g.rng.Split())
	if err != nil {
		return nil, nil, err
	}
	g.zones = zones
	g.auth = resolver.NewAuthority(zones)
	g.profiles = resolver.DefaultProfiles()
	if !cfg.Faults.IsZero() {
		for i := range g.profiles {
			g.profiles[i].Faults.Loss = cfg.Faults.Loss
			g.profiles[i].Faults.ExtraJitter = cfg.Faults.ExtraJitter
			g.profiles[i].Faults.TruncateOver = cfg.Faults.TruncateOver
			if g.profiles[i].ID == resolver.PlatformLocal {
				// Outage windows are specified relative to the observation
				// window; the simulator clock starts Warmup earlier.
				for _, w := range cfg.Faults.LocalOutages {
					g.profiles[i].Faults.Outages = append(g.profiles[i].Faults.Outages,
						netsim.Window{Start: w.Start + cfg.Warmup, End: w.End + cfg.Warmup})
				}
			}
		}
	}
	if tkind.Stream() {
		for i := range g.profiles {
			g.profiles[i].Transport = tkind
			g.profiles[i].Stream = resolver.StreamConfig{
				SessionResumption: cfg.Transport.SessionResumption,
				IdleTimeout:       cfg.Transport.IdleTimeout,
			}
		}
	}
	g.platforms = make(map[resolver.PlatformID]*resolver.Recursive, len(g.profiles))
	for _, p := range g.profiles {
		g.platforms[p.ID] = resolver.NewRecursive(p, g.auth, g.rng.Split())
	}
	if reg := cfg.Metrics; reg != nil {
		for _, rec := range g.platforms {
			rec.Instrument(reg)
		}
		g.sim.Observe(
			reg.Counter("dnsctx_sim_events_total",
				"Discrete events executed by the simulation engine."),
			reg.Gauge("dnsctx_sim_queue_depth",
				"Pending events in the simulator queue (sampled after each event)."),
			reg.Gauge("dnsctx_sim_queue_depth_max",
				"High-water mark of the simulator event queue."),
		)
	}

	for i := 0; i < cfg.Houses; i++ {
		h := g.buildHouse(i)
		g.houses = append(g.houses, h)
		g.startHouse(h)
	}

	g.sim.RunUntil(cfg.Warmup + cfg.Duration)
	ds := g.trim()
	ds.SortByTime()
	// The simulated resolvers hand each record its own small Answers
	// backing; repack them into shared blocks so downstream passes walk
	// contiguous memory instead of pointer-chasing tiny allocations.
	ds.CompactAnswers()
	eco := &Ecosystem{Zones: zones, Platforms: g.platforms, Profiles: g.profiles}
	return ds, eco, nil
}

// trim copies the observation window out of the record blocks into an
// exact-size dataset: it drops warm-up traffic and records starting
// after the window, and shifts timestamps so the window starts at zero.
func (g *Generator) trim() *trace.Dataset {
	lo, hi := g.cfg.Warmup, g.cfg.Warmup+g.cfg.Duration
	ds := &trace.Dataset{
		DNS:   window(&g.dns, func(d *trace.DNSRecord) bool { return d.QueryTS >= lo && d.QueryTS <= hi }),
		Conns: window(&g.conns, func(c *trace.ConnRecord) bool { return c.TS >= lo && c.TS <= hi }),
	}
	g.dns, g.conns = blocks.List[trace.DNSRecord]{}, blocks.List[trace.ConnRecord]{}
	for i := range ds.DNS {
		ds.DNS[i].QueryTS -= lo
		ds.DNS[i].TS -= lo
	}
	for i := range ds.Conns {
		ds.Conns[i].TS -= lo
	}
	return ds
}

// window copies the records of b that keep accepts, in order, into one
// exact-size slice (nil when none is accepted).
func window[T any](b *blocks.List[T], keep func(*T) bool) []T {
	n := 0
	for _, blk := range b.Blocks() {
		for i := range blk {
			if keep(&blk[i]) {
				n++
			}
		}
	}
	if n == 0 {
		return nil
	}
	out := make([]T, 0, n)
	for _, blk := range b.Blocks() {
		for i := range blk {
			if keep(&blk[i]) {
				out = append(out, blk[i])
			}
		}
	}
	return out
}

// diurnal is the activity-rate multiplier at virtual time t: quiet
// nights, busy evenings, and busier weekends (the window starts on a
// Wednesday, like the paper's Feb 6, 2019 capture).
func diurnal(t time.Duration) float64 {
	hour := math.Mod(t.Hours(), 24)
	// Peak around 20:00, trough around 05:00.
	v := math.Max(0.2, 1+0.8*math.Sin(2*math.Pi*(hour-14)/24))
	// Day 0 is a Wednesday; days 3 and 4 are the weekend.
	day := int(t.Hours()/24) % 7
	if day == 3 || day == 4 {
		v *= 1.25
	}
	return v
}

// lookupOutcome is the application-visible result of resolving a name.
type lookupOutcome struct {
	// ready is when the answers are available to the application.
	ready   time.Duration
	answers []trace.Answer
	// wire is true when a DNS transaction crossed the monitored link.
	wire bool
	// fromCache is the shared resolver cache outcome (wire lookups only).
	fromCache bool
	platform  resolver.PlatformID
	// expired is true when the stub served a record past its TTL.
	expired bool
	rcode   uint8
}

// lookup resolves host for device d at virtual time now, consulting the
// device stub cache first and the device's resolver platforms otherwise.
// Wire lookups append to the DNS dataset.
func (g *Generator) lookup(d *device, now time.Duration, host string) lookupOutcome {
	if sl, ok := d.stub.Get(now, host); ok {
		return lookupOutcome{ready: now, answers: sl.Answers, expired: sl.Expired}
	}
	pid := d.pickPlatform(g.rng)
	rec := g.platforms[pid]
	res := rec.LookupConn(d.connState(pid, rec), now, host, d.retry)
	done := now + res.Duration

	if d.dot {
		// Encrypted DNS: the monitor sees only a TCP connection to the
		// resolver — no query, no answers. DoT is at least identifiable
		// by its port (853); DoH hides among ordinary HTTPS on 443.
		dnsPort := uint16(853)
		if g.cfg.EncryptedDNSDoH {
			dnsPort = 443
		}
		g.emitConn(now, d.house, res.Resolver, dnsPort, trace.TCP, transfer{
			origBytes: 120 + int64(g.rng.Intn(100)),
			respBytes: 200 + int64(g.rng.Intn(400)),
			duration:  res.Duration,
		})
		if len(res.Answers) > 0 {
			d.stub.Put(done, host, res.Answers)
		}
		return lookupOutcome{
			ready:     done,
			answers:   res.Answers,
			fromCache: res.FromCache,
			platform:  pid,
			rcode:     res.RCode,
		}
	}

	g.dns.Push(&trace.DNSRecord{
		QueryTS:  now,
		TS:       done,
		Client:   d.house.addr,
		Resolver: res.Resolver,
		ID:       d.house.dnsID(),
		Query:    host,
		QType:    uint16(1),
		RCode:    res.RCode,
		Answers:  res.Answers,
		Retries:  uint8(res.Retries()),
		TC:       res.TCPFallback,
	})
	if len(res.Answers) > 0 {
		d.stub.Put(done, host, res.Answers)
	}
	if res.ServFail {
		// The resolver is unreachable; a serve-stale stub (RFC 8767) falls
		// back to an expired record rather than failing the application.
		if sl, ok := d.stub.GetStale(done, host); ok {
			return lookupOutcome{
				ready:    done,
				answers:  sl.Answers,
				wire:     true,
				platform: pid,
				expired:  true,
				rcode:    res.RCode,
			}
		}
	}
	// Dual-stack clients issue a companion AAAA query; our namespace is
	// v4-only, so the response is empty and the transaction never pairs
	// with a connection.
	if g.rng.Bool(g.cfg.DualStackProb) {
		g.dns.Push(&trace.DNSRecord{
			QueryTS:  now,
			TS:       done + time.Duration(g.rng.Intn(2000))*time.Microsecond,
			Client:   d.house.addr,
			Resolver: res.Resolver,
			ID:       d.house.dnsID(),
			Query:    host,
			QType:    uint16(28),
			RCode:    0,
		})
	}
	return lookupOutcome{
		ready:     done,
		answers:   res.Answers,
		wire:      true,
		fromCache: res.FromCache,
		platform:  pid,
		rcode:     res.RCode,
	}
}

// emitConn appends one connection record.
func (g *Generator) emitConn(start time.Duration, h *house, remote netip.Addr, rport uint16, proto trace.Proto, tr transfer) {
	g.conns.Push(&trace.ConnRecord{
		TS:        start,
		Duration:  tr.duration,
		Proto:     proto,
		Orig:      h.addr,
		OrigPort:  h.ephemeralPort(),
		Resp:      remote,
		RespPort:  rport,
		OrigBytes: tr.origBytes,
		RespBytes: tr.respBytes,
	})
}

// connFor resolves name for d and emits the paired connection, blocked on
// the lookup when the record was not locally available. It returns the
// connection start time, or ok=false when resolution failed.
func (g *Generator) connFor(d *device, now time.Duration, name *zonedb.Name) (time.Duration, bool) {
	lo := g.lookup(d, now, name.Host)
	if len(lo.answers) == 0 {
		return 0, false
	}
	var start time.Duration
	if lo.ready > now {
		// Blocked: the app connects as soon as the answer lands (however
		// it was resolved — clear-text or encrypted), after a small
		// processing delay (Figure 1's left mode).
		start = lo.ready + g.appStartDelay()
	} else {
		// Record on hand: connect immediately.
		start = now + g.appStartDelay()/4
	}
	remote := lo.answers[g.rng.Intn(len(lo.answers))].Addr
	factor := 1.0
	if lo.ready > now {
		factor = g.edgeFactor(lo.platform, name)
	}
	tr := g.tm.sample(name.Service, factor)
	proto := trace.TCP
	if name.Service == zonedb.ServiceWeb && g.rng.Bool(0.10) {
		proto = trace.UDP // QUIC, carried as a UDP "connection"
	}
	g.emitConn(start, d.house, remote, name.Port, proto, tr)
	return start, true
}

func (g *Generator) appStartDelay() time.Duration {
	return time.Duration(float64(g.cfg.AppStartDelayMean) * g.rng.ExpFloat64())
}

// edgeFactor models CDN edge-selection quality as a throughput multiplier
// keyed to the resolver platform that supplied the mapping (§7, Fig. 3
// bottom): Cloudflare's remote egress maps clients to farther edges most
// of the time; Google's tail is slightly better than the pack.
func (g *Generator) edgeFactor(pid resolver.PlatformID, name *zonedb.Name) float64 {
	if !name.CDN {
		return 1
	}
	switch pid {
	case resolver.PlatformCloudflare:
		if g.rng.Bool(0.75) {
			return 0.45
		}
		return 1
	case resolver.PlatformGoogle:
		if g.rng.Bool(0.25) {
			return 1.35
		}
		return 1
	default:
		return 1
	}
}

// startHouse arms every device's behavior loops.
func (g *Generator) startHouse(h *house) {
	for _, d := range g.devices(h) {
		switch d.kind {
		case kindPhone:
			g.scheduleBrowsing(d)
			g.scheduleProbe(d)
			g.scheduleApps(d)
		case kindLaptop:
			g.scheduleBrowsing(d)
			g.scheduleApps(d)
		case kindIoT:
			g.scheduleIoT(d)
		case kindP2P:
			g.scheduleP2P(d)
		}
	}
}

func (g *Generator) devices(h *house) []*device { return h.devices }

// --- Browsing ---

func (g *Generator) scheduleBrowsing(d *device) {
	meanGap := float64(24*time.Hour) / math.Max(g.cfg.SessionsPerDay, 0.01)
	gap := time.Duration(meanGap * g.rng.ExpFloat64() / diurnal(g.sim.Now()))
	g.sim.After(gap, func(now time.Duration) {
		if now > g.end() {
			return
		}
		pages := 1 + poisson(g.rng, g.cfg.PagesPerSession-1)
		g.pageView(d, now, g.nextSite(d), pages-1, true)
		g.scheduleBrowsing(d)
	})
}

// nextSite picks the target of a page view: a working-set revisit or a
// fresh popularity draw.
func (g *Generator) nextSite(d *device) *zonedb.Name {
	if len(d.workingSet) > 0 && g.rng.Bool(g.cfg.RevisitProb) {
		return d.workingSet[g.rng.Intn(len(d.workingSet))]
	}
	return g.zones.Pick(g.rng)
}

// pickPrefetchTarget chooses a link a page might point at. Links skew
// toward destinations the device has NOT visited recently — that is what
// makes speculative lookups worth issuing — so the pick is mostly a fresh
// popularity draw.
func (g *Generator) pickPrefetchTarget(d *device) *zonedb.Name {
	if len(d.workingSet) > 0 && g.rng.Bool(0.15) {
		return d.workingSet[g.rng.Intn(len(d.workingSet))]
	}
	// Links point at site front pages, which live on dedicated hosting
	// far more often than the CDN names that serve page objects.
	for i := 0; i < 3; i++ {
		if n := g.zones.Pick(g.rng); !n.CDN {
			return n
		}
	}
	return g.zones.Pick(g.rng)
}

// pickEmbeddedGlobal chooses a third-party object domain from the global
// namespace, biased toward CDN-hosted names.
func (g *Generator) pickEmbeddedGlobal() *zonedb.Name {
	for i := 0; i < 6; i++ {
		n := g.zones.Pick(g.rng)
		if n.CDN {
			return n
		}
	}
	return g.zones.Pick(g.rng)
}

// pickEmbedded chooses a third-party object domain for one page of d's
// house: half the time a household-recurring dependency, otherwise a
// global draw.
func (g *Generator) pickEmbedded(h *house) *zonedb.Name {
	if len(h.cdnPool) > 0 && g.rng.Bool(0.78) {
		return h.cdnPool[g.rng.Intn(len(h.cdnPool))]
	}
	return g.pickEmbeddedGlobal()
}

// pageView models one page load: the primary fetch, embedded third-party
// objects shortly after, speculative link prefetches, possible later
// clicks on those links, and the next sequential page after a dwell.
// Pages reached by clicking a prefetched link (sequential=false) still
// prefetch, but their links are never clicked — this bounds the click
// chain (real users have bounded attention) and keeps the page process
// subcritical.
func (g *Generator) pageView(d *device, now time.Duration, site *zonedb.Name, remaining int, sequential bool) {
	if now > g.end() {
		return
	}
	start, ok := g.connFor(d, now, site)
	if !ok {
		start = now
	}

	// Embedded objects: resolved and fetched while the page renders.
	k := poisson(g.rng, g.cfg.EmbeddedDomainsPerPage)
	for i := 0; i < k; i++ {
		name := g.pickEmbedded(d.house)
		at := start + time.Duration(50+g.rng.Intn(1200))*time.Millisecond
		g.sim.At(at, func(t time.Duration) {
			if t > g.end() {
				return
			}
			g.connFor(d, t, name)
		})
	}

	// Speculative link prefetch: lookup now, maybe click much later.
	kp := poisson(g.rng, g.cfg.PrefetchPerPage)
	for i := 0; i < kp; i++ {
		target := g.pickPrefetchTarget(d)
		at := start + time.Duration(200+g.rng.Intn(1800))*time.Millisecond
		click := sequential && g.rng.Bool(g.cfg.PrefetchClickProb)
		g.sim.At(at, func(t time.Duration) {
			if t > g.end() {
				return
			}
			g.lookup(d, t, target.Host)
			if click {
				delay := time.Duration(stats.LogNormalFromMedian(
					g.cfg.ClickDelayMedian.Seconds(), 0.9).Sample(g.rng) * float64(time.Second))
				g.sim.At(t+delay, func(ct time.Duration) {
					// A clicked link is a page view of its own, but does
					// not extend the sequential page chain.
					g.pageView(d, ct, target, 0, false)
				})
			}
		})
	}

	// Family co-activity: another device in the house follows the same
	// link a few minutes later.
	if g.rng.Bool(g.cfg.SharedVisitProb) {
		if other := g.otherBrowsingDevice(d); other != nil {
			at := now + time.Duration(30+g.rng.Intn(270))*time.Second
			g.sim.At(at, func(t time.Duration) {
				if t > g.end() {
					return
				}
				g.pageView(other, t, site, 0, false)
			})
		}
	}

	if sequential && remaining > 0 {
		dwell := time.Duration(stats.LogNormalFromMedian(
			g.cfg.DwellMedian.Seconds(), 1.1).Sample(g.rng) * float64(time.Second))
		next := g.nextSite(d)
		g.sim.At(now+dwell, func(t time.Duration) {
			g.pageView(d, t, next, remaining-1, true)
		})
	}
}

// otherBrowsingDevice picks a random browsing device in d's house other
// than d, or nil when the house has no other browser.
func (g *Generator) otherBrowsingDevice(d *device) *device {
	var others []*device
	for _, o := range d.house.devices {
		if o != d && (o.kind == kindPhone || o.kind == kindLaptop) {
			others = append(others, o)
		}
	}
	if len(others) == 0 {
		return nil
	}
	return others[g.rng.Intn(len(others))]
}

// --- Background apps ---

func (g *Generator) scheduleApps(d *device) {
	for i := range d.apps {
		g.scheduleAppTick(d, d.apps[i])
	}
}

func (g *Generator) scheduleAppTick(d *device, app appProfile) {
	gap := time.Duration(float64(app.period) * (0.6 + 0.8*g.rng.Float64()))
	g.sim.After(gap, func(now time.Duration) {
		if now > g.end() {
			return
		}
		if g.rng.Bool(g.cfg.AppResolveAheadProb) {
			// Resolve now, transact later: background refresh schedulers
			// resolve when the alarm fires and connect when the payload
			// is ready.
			g.lookup(d, now, app.name.Host)
			delay := time.Duration(2+g.rng.Intn(6)) * time.Minute
			g.sim.At(now+delay, func(t time.Duration) {
				if t > g.end() {
					return
				}
				g.connFor(d, t, app.name)
			})
		} else {
			g.connFor(d, now, app.name)
		}
		g.scheduleAppTick(d, app)
	})
}

// --- Android connectivity probes ---

func (g *Generator) scheduleProbe(d *device) {
	gap := time.Duration(stats.LogNormalFromMedian(
		g.cfg.ProbePeriodMedian.Seconds(), 0.5).Sample(g.rng) * float64(time.Second))
	g.sim.After(gap, func(now time.Duration) {
		if now > g.end() {
			return
		}
		g.connForVia(d, now, g.zones.ConnectivityCheck, resolver.PlatformGoogle)
		g.scheduleProbe(d)
	})
}

// --- IoT gear with hard-coded servers ---

func (g *Generator) scheduleIoT(d *device) {
	// Each IoT device is one archetype.
	switch d.house.idx%3 + int(g.rng.Uint64n(2)) {
	case 0:
		g.scheduleHardcoded(d, deadNTPAddr, 123, trace.UDP, 45*time.Minute, true)
	case 1:
		g.scheduleHardcoded(d, oomaNTPAddr, 123, trace.UDP, 60*time.Minute, false)
	default:
		g.scheduleHardcoded(d, alarmNetAddr, 443, trace.TCP, 60*time.Minute, false)
	}
}

func (g *Generator) scheduleHardcoded(d *device, addr netip.Addr, port uint16, proto trace.Proto, period time.Duration, dead bool) {
	gap := time.Duration(float64(period) * (0.7 + 0.6*g.rng.Float64()))
	g.sim.After(gap, func(now time.Duration) {
		if now > g.end() {
			return
		}
		var tr transfer
		if port == 123 {
			tr = g.tm.ntpTransfer(dead)
		} else {
			tr = g.tm.sample(zonedb.ServiceAPI, 1)
		}
		g.emitConn(now, d.house, addr, port, proto, tr)
		g.scheduleHardcoded(d, addr, port, proto, period, dead)
	})
}

// --- Peer-to-peer ---

func (g *Generator) scheduleP2P(d *device) {
	gap := time.Duration(float64(40*time.Minute) * g.rng.ExpFloat64())
	g.sim.After(gap, func(now time.Duration) {
		if now > g.end() {
			return
		}
		n := 9 + g.rng.Intn(26)
		for i := 0; i < n; i++ {
			at := now + time.Duration(g.rng.Intn(300))*time.Second
			g.sim.At(at, func(t time.Duration) {
				if t > g.end() {
					return
				}
				proto := trace.TCP
				if g.rng.Bool(0.5) {
					proto = trace.UDP
				}
				g.emitConn(t, d.house, g.peerAddr(), uint16(10000+g.rng.Intn(50000)), proto, g.tm.p2pTransfer())
			})
		}
		g.scheduleP2P(d)
	})
}

// peerAddr draws a random remote peer (never colliding with server or
// resolver space).
func (g *Generator) peerAddr() netip.Addr {
	return netip.AddrFrom4([4]byte{45, byte(g.rng.Intn(256)), byte(g.rng.Intn(256)), byte(1 + g.rng.Intn(254))})
}

// end is the virtual time at which behaviors stop (warmup plus window).
func (g *Generator) end() time.Duration { return g.cfg.Warmup + g.cfg.Duration }

// connForVia is connFor with a forced resolver platform (used for Android
// connectivity probes, which always use the phone's configured Google
// DNS). It falls back to the device's normal choice when the platform is
// not configured in the simulation.
func (g *Generator) connForVia(d *device, now time.Duration, name *zonedb.Name, pid resolver.PlatformID) {
	if sl, ok := d.stub.Get(now, name.Host); ok {
		if len(sl.Answers) == 0 {
			return
		}
		start := now + g.appStartDelay()/4
		tr := g.tm.sample(name.Service, 1)
		g.emitConn(start, d.house, sl.Answers[g.rng.Intn(len(sl.Answers))].Addr, name.Port, trace.TCP, tr)
		return
	}
	rec, ok := g.platforms[pid]
	if !ok {
		g.connFor(d, now, name)
		return
	}
	res := rec.LookupConn(d.connState(pid, rec), now, name.Host, d.retry)
	done := now + res.Duration
	g.dns.Push(&trace.DNSRecord{
		QueryTS: now, TS: done, Client: d.house.addr, Resolver: res.Resolver,
		ID: d.house.dnsID(), Query: name.Host, QType: 1, RCode: res.RCode, Answers: res.Answers,
		Retries: uint8(res.Retries()), TC: res.TCPFallback,
	})
	if len(res.Answers) == 0 {
		return
	}
	d.stub.Put(done, name.Host, res.Answers)
	start := done + g.appStartDelay()
	tr := g.tm.sample(name.Service, 1)
	g.emitConn(start, d.house, res.Answers[g.rng.Intn(len(res.Answers))].Addr, name.Port, trace.TCP, tr)
}
