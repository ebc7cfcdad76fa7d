package core

import (
	"slices"
	"time"

	"dnscontext/internal/resolver"
	"dnscontext/internal/stats"
	"dnscontext/internal/trace"
)

// ConnectivityCheckHost is the Android captive-portal probe hostname whose
// connections the paper filters out of Google's throughput curve (§7).
const ConnectivityCheckHost = "connectivitycheck.gstatic.com"

// deriveThresholds implements §5.3's per-resolver SC/R split for every
// run, resident or merged: for each resolver with enough lookups, the
// minimum observed lookup duration approximates the network RTT, and
// lookups not exceeding a rounded-up multiple of that minimum are
// shared-cache hits. The paper observes a 2 ms minimum for the local
// resolvers and uses a 5 ms threshold, i.e. roughly 2.5x the minimum;
// we round 2.5x the minimum up to the next millisecond. The inputs are
// the associative (count, min) summaries every path accumulates, so the
// result depends only on the whole trace's statistics. It returns the
// derived thresholds by resolver address and, indexed like resolvers,
// every resolver's threshold (the default for unpopular ones).
func deriveThresholds(opts *Options, dnsTotal int64, resolvers []resolverStat) (map[string]time.Duration, []time.Duration) {
	// The paper's gate — 1,000 lookups out of 9.2M (~0.011%) — scales
	// with trace size so shorter captures don't push moderately popular
	// resolvers onto the 5 ms default; SCRMinSamples caps it.
	gate := min(max(dnsTotal/9200, 50), int64(opts.SCRMinSamples))
	thresholds := make(map[string]time.Duration)
	thByRes := make([]time.Duration, len(resolvers))
	for i := range resolvers {
		rs := &resolvers[i]
		thByRes[i] = opts.DefaultSCThreshold
		if rs.lookups < gate {
			continue
		}
		th := time.Duration(float64(rs.minDur) * 2.5)
		// Round up to a whole millisecond, mirroring the paper's "small
		// amount of rounding".
		th = ((th + time.Millisecond - 1) / time.Millisecond) * time.Millisecond
		th = max(th, opts.DefaultSCThreshold)
		thByRes[i] = th
		thresholds[rs.addr.String()] = th
	}
	return thresholds, thByRes
}

func (a *Analysis) thresholdFor(resolver string) time.Duration {
	if th, ok := a.Thresholds[resolver]; ok {
		return th
	}
	return a.Opts.DefaultSCThreshold
}

// Table1Row is one line of Table 1: a resolver platform's footprint.
type Table1Row struct {
	Platform resolver.PlatformID
	// HousesFraction is the share of houses using the platform at all.
	HousesFraction float64
	// LookupsFraction is the platform's share of DNS transactions.
	LookupsFraction float64
	// ConnsFraction / BytesFraction are the shares of DNS-paired
	// connections (and their volume) tied to the platform.
	ConnsFraction float64
	BytesFraction float64
}

// Table1 computes resolver-platform usage shares. profiles supplies the
// platform address book.
func (a *Analysis) Table1(profiles []resolver.PlatformProfile) []Table1Row {
	return a.fold(foldReq{secs: secTable1, profiles: profiles}).table1(profiles)
}

// platformFold is a house's share of one resolver platform's Table 1 row
// and §7 comparison: its lookups, its DNS-paired connections and their
// bytes, and its blocked (SC/R) connections with their R lookup delays
// (ms) and throughputs (bits/s). houses, set by the merge, counts the
// houses with at least one lookup on the platform.
type platformFold struct {
	lookups, conns, houses int
	bytes                  int64
	sc, r                  int
	rDelays, throughput    stats.ECDF
}

// conn adds a DNS-paired connection whose lookup went to the platform.
func (f *platformFold) conn(c *trace.ConnRecord) {
	f.conns++
	f.bytes += c.TotalBytes()
}

// blocked adds an SC or R connection whose lookup went to the platform.
func (f *platformFold) blocked(class Class, lookup time.Duration, tput float64) {
	if class == ClassSC {
		f.sc++
	} else {
		f.r++
		f.rDelays.Add(float64(lookup) / float64(time.Millisecond))
	}
	f.throughput.Add(tput)
}

func (f *platformFold) merge(o *platformFold) {
	if o.lookups > 0 {
		f.houses++
	}
	f.lookups += o.lookups
	f.conns += o.conns
	f.bytes += o.bytes
	f.sc += o.sc
	f.r += o.r
	f.rDelays.Merge(&o.rDelays)
	f.throughput.Merge(&o.throughput)
}

func (h *houseFold) table1(profiles []resolver.PlatformProfile) []Table1Row {
	var lookups, conns int
	var bytes int64
	for i := range h.platforms {
		lookups += h.platforms[i].lookups
		conns += h.platforms[i].conns
		bytes += h.platforms[i].bytes
	}
	var rows []Table1Row
	for _, p := range profiles {
		g := &h.platforms[slices.Index(h.platformIDs, p.ID)]
		if g.lookups == 0 {
			continue
		}
		row := Table1Row{Platform: p.ID}
		if h.dnsHouses > 0 {
			row.HousesFraction = float64(g.houses) / float64(h.dnsHouses)
		}
		if lookups > 0 {
			row.LookupsFraction = float64(g.lookups) / float64(lookups)
		}
		if conns > 0 {
			row.ConnsFraction = float64(g.conns) / float64(conns)
		}
		if bytes > 0 {
			row.BytesFraction = float64(g.bytes) / float64(bytes)
		}
		rows = append(rows, row)
	}
	return rows
}

// ResolverPerformance bundles §7's per-platform comparison.
type ResolverPerformance struct {
	// HitRate is SC/(SC+R) per platform (paper: Cloudflare 83.6%, Local
	// 71.2%, OpenDNS 58.8%, Google 23.0%).
	HitRate map[resolver.PlatformID]float64
	// RDelays is Figure 3 top: the distribution of lookup durations (ms)
	// behind R connections, per platform.
	RDelays map[resolver.PlatformID]*stats.ECDF
	// Throughput is Figure 3 bottom: the distribution of connection
	// throughput (bits/s) for SC∪R connections, per platform.
	Throughput map[resolver.PlatformID]*stats.ECDF
	// GoogleNoCC is Google's throughput curve with connectivity-check
	// probes removed (the dashed line).
	GoogleNoCC *stats.ECDF
	// GoogleCCFraction is the share of Google-paired SC∪R connections
	// that are connectivity checks (paper: 23.5%).
	GoogleCCFraction float64
	// NonGoogleCCFraction is the same share for the other platforms
	// combined (paper: 0.3%).
	NonGoogleCCFraction float64
}

// ResolverPerformance computes the §7 comparison.
func (a *Analysis) ResolverPerformance(profiles []resolver.PlatformProfile) ResolverPerformance {
	return a.fold(foldReq{secs: secResolvers, profiles: profiles}).resolverPerformance()
}

// resolverFold is a house's share of the connectivity-check accounting
// over its blocked (SC/R) connections with a known platform.
type resolverFold struct {
	googleConns, googleCC, otherConns, otherCC int
	googleNoCC                                 stats.ECDF
}

func (f *resolverFold) conn(id resolver.PlatformID, connectivityCheck bool, tput float64) {
	if id == resolver.PlatformGoogle {
		f.googleConns++
		if connectivityCheck {
			f.googleCC++
		} else {
			f.googleNoCC.Add(tput)
		}
		return
	}
	f.otherConns++
	if connectivityCheck {
		f.otherCC++
	}
}

func (f *resolverFold) merge(o *resolverFold) {
	f.googleConns += o.googleConns
	f.googleCC += o.googleCC
	f.otherConns += o.otherConns
	f.otherCC += o.otherCC
	f.googleNoCC.Merge(&o.googleNoCC)
}

func (h *houseFold) resolverPerformance() ResolverPerformance {
	f := &h.resolvers
	out := ResolverPerformance{
		HitRate:    make(map[resolver.PlatformID]float64),
		RDelays:    make(map[resolver.PlatformID]*stats.ECDF),
		Throughput: make(map[resolver.PlatformID]*stats.ECDF),
		GoogleNoCC: &f.googleNoCC,
	}
	for p, id := range h.platformIDs {
		g := &h.platforms[p]
		if g.sc+g.r > 0 {
			out.HitRate[id] = float64(g.sc) / float64(g.sc+g.r)
			out.Throughput[id] = &g.throughput
		}
		if g.r > 0 {
			out.RDelays[id] = &g.rDelays
		}
	}
	if f.googleConns > 0 {
		out.GoogleCCFraction = float64(f.googleCC) / float64(f.googleConns)
	}
	if f.otherConns > 0 {
		out.NonGoogleCCFraction = float64(f.otherCC) / float64(f.otherConns)
	}
	return out
}
