package core

// The report's single pass. Every section of Report is a fold over the
// houses: a per-house accumulator (one sub-fold per section, defined
// next to the section's result type) that sums over the house's own
// DNS records and connections. The client shards are the houses, so
// one parallel pass over the shards computes any set of sections at
// once; the per-house results merge in shard order, which makes the
// outcome identical at every worker count. Report asks for every
// section it renders; each section's public method runs the same fold
// with only its own section on, so the per-record code exists once.
// The transport what-if, which the report does not render, is a section
// too: TransportWhatIf prices all its scenarios in one fold.

import (
	"context"
	"slices"
	"time"

	"dnscontext/internal/parallel"
	"dnscontext/internal/resolver"
	"dnscontext/internal/stats"
	"dnscontext/internal/trace"
)

// section names one fold-computed part of the report.
type section uint32

const (
	secDataset section = 1 << iota
	secPairing
	secFigure1
	secTable1
	secPerHouse
	secNoDNS
	secTTL
	secPrefetch
	secFigure2
	secSignificance
	secResolvers
	secFailures
	secSlack
	secTolerable
	secWholeHouse
	secRefresh
	secTransport

	// secAll is every section Report renders: all but the transport
	// what-if, which TransportWhatIf prices on request.
	secAll = secTransport - 1
)

// foldReq is one fold: the sections to compute and the inputs of the
// parameterized ones.
type foldReq struct {
	secs      section
	profiles  []resolver.PlatformProfile // secTable1, secPerHouse, secResolvers, secTransport
	extra     time.Duration              // secTolerable
	floor     time.Duration              // secRefresh
	policies  []RefreshPolicy            // secRefresh: one cache tally each
	scenarios []TransportScenario        // secTransport: one tally each
}

// has reports whether s includes any of the sections in x.
func (s section) has(x section) bool { return s&x != 0 }

// houseFold is one house's share of every section a fold computes, or,
// once merged, the whole trace's.
type houseFold struct {
	houses    int // houses folded
	dnsHouses int // ... that issued at least one lookup
	dataset   datasetFold
	pairing   pairingFold
	figure1   figure1Fold
	platforms []platformFold // indexed like platformTable.ids
	perHouse  []HouseSummary // shard order until the merge sorts it
	noDNS     noDNSFold
	ttl       ttlFold
	prefetch  prefetchFold
	figure2   figure2Fold
	sig       significanceFold
	resolvers resolverFold
	failures  FailureStats
	slack     slackFold
	tolerable tolerableFold
	whole     houseTally
	refresh   refreshFold
	transport []transportTally // indexed like foldReq.scenarios

	// Set on the merged fold only: the platform IDs platforms is indexed
	// by, and the window the refresh simulations normalize by.
	platformIDs []resolver.PlatformID
	window      time.Duration
}

// curves lists every distribution the fold carries, in a fixed order.
func (h *houseFold) curves() []*stats.ECDF {
	cs := []*stats.ECDF{
		&h.figure1.gaps, &h.ttl.lateness, &h.ttl.gapsP, &h.ttl.gapsLC,
		&h.figure2.delays, &h.figure2.all, &h.figure2.sc, &h.figure2.r,
		&h.resolvers.googleNoCC, &h.slack.gaps,
	}
	for i := range h.platforms {
		cs = append(cs, &h.platforms[i].rDelays, &h.platforms[i].throughput)
	}
	return cs
}

// merge adds house o's fold to h.
func (h *houseFold) merge(o *houseFold) {
	h.houses += o.houses
	h.dnsHouses += o.dnsHouses
	h.dataset.merge(&o.dataset)
	h.pairing.merge(&o.pairing)
	h.figure1.merge(&o.figure1)
	for i := range h.platforms {
		h.platforms[i].merge(&o.platforms[i])
	}
	h.perHouse = append(h.perHouse, o.perHouse...)
	h.noDNS.merge(&o.noDNS)
	h.ttl.merge(&o.ttl)
	h.prefetch.merge(&o.prefetch)
	h.figure2.merge(&o.figure2)
	h.sig.merge(&o.sig)
	h.resolvers.merge(&o.resolvers)
	h.failures = addFailures(h.failures, o.failures)
	h.slack.merge(&o.slack)
	h.tolerable.merge(&o.tolerable)
	h.whole.merge(&o.whole)
	h.refresh.merge(&o.refresh)
	for k := range o.transport {
		h.transport[k].merge(&o.transport[k])
	}
}

// platformTable resolves resolver platforms once per fold instead of
// once per record: ids lists the distinct platform IDs in profile
// order, and of maps each resolver symbol to its index in ids, or -1
// for a resolver on no platform.
type platformTable struct {
	ids []resolver.PlatformID
	of  []int
}

func (a *Analysis) platformTable(profiles []resolver.PlatformProfile) platformTable {
	t := platformTable{of: make([]int, len(a.st.resolvers))}
	index := make(map[resolver.PlatformID]int, len(profiles))
	for _, p := range profiles {
		if _, ok := index[p.ID]; !ok {
			index[p.ID] = len(t.ids)
			t.ids = append(t.ids, p.ID)
		}
	}
	for rs := range a.st.resolvers {
		t.of[rs] = -1
		if id, ok := resolver.PlatformOf(a.st.resolvers[rs].addr, profiles); ok {
			t.of[rs] = index[id]
		}
	}
	return t
}

// folder holds what every house of one fold reads.
type folder struct {
	a       *Analysis
	req     foldReq
	plats   platformTable
	ccSym   trace.Sym // ConnectivityCheckHost's symbol, or NoSym
	authTTL []time.Duration
	window  time.Duration
	pricing transportPricing
}

// fold computes req's sections in one parallel pass over the houses and
// returns their merged fold, every distribution in it sorted.
func (a *Analysis) fold(req foldReq) *houseFold {
	f := &folder{a: a, req: req, ccSym: trace.NoSym}
	if req.secs.has(secTable1 | secPerHouse | secResolvers | secTransport) {
		f.plats = a.platformTable(req.profiles)
	}
	if req.secs.has(secTransport) {
		f.pricing = newTransportPricing(req.scenarios, req.profiles, f.plats)
	}
	if req.secs.has(secResolvers) {
		f.ccSym = a.st.names.Lookup(ConnectivityCheckHost)
	}
	if req.secs.has(secRefresh) {
		f.authTTL, f.window = a.refreshInputs()
	}
	var scratch []*whatIfScratch
	if req.secs.has(secWholeHouse | secRefresh) {
		scratch = make([]*whatIfScratch, parallel.Workers(a.Opts.Workers))
	}
	// Neither the context nor a house can fail, so the pool returns nil.
	parts := make([]houseFold, len(a.shards.list))
	parallel.ForEachWorker(context.Background(), a.Opts.Workers, len(parts), func(w, s int) error {
		var scr *whatIfScratch
		if scratch != nil {
			if scratch[w] == nil {
				scratch[w] = newWhatIfScratch(a.st.names.Len())
			}
			scr = scratch[w]
		}
		parts[s] = f.house(s, scr)
		return nil
	})

	// Merge in shard order into distributions sized exactly once.
	total := &houseFold{platforms: make([]platformFold, len(f.plats.ids))}
	total.refresh.tallies = make([]cacheShardTally, len(req.policies))
	total.transport = make([]transportTally, len(req.scenarios))
	curves := total.curves()
	sizes := make([]int, len(curves))
	for s := range parts {
		for i, c := range parts[s].curves() {
			sizes[i] += c.N()
		}
	}
	for i, c := range curves {
		c.Grow(sizes[i])
	}
	for s := range parts {
		total.merge(&parts[s])
		parts[s] = houseFold{}
	}
	if req.secs.has(secPerHouse) {
		slices.SortFunc(total.perHouse, func(x, y HouseSummary) int {
			if x.House != y.House {
				return x.House - y.House
			}
			return x.Addr.Compare(y.Addr)
		})
	}
	total.platformIDs, total.window = f.plats.ids, f.window

	// Sort the distributions concurrently, largest first.
	slices.SortFunc(curves, func(x, y *stats.ECDF) int { return y.N() - x.N() })
	parallel.ForEach(context.Background(), a.Opts.Workers, len(curves), func(i int) error {
		curves[i].Finalize()
		return nil
	})
	return total
}

// house folds shard s. scr is the running worker's what-if scratch (nil
// when the fold runs no what-if).
func (f *folder) house(s int, scr *whatIfScratch) (h houseFold) {
	a, on := f.a, f.req.secs // on: a register copy for the record loops
	st := a.st
	conns, dns := a.shards.records(s)
	h.houses = 1
	if len(dns) > 0 {
		h.dnsHouses = 1
	}
	if f.plats.ids != nil {
		h.platforms = make([]platformFold, len(f.plats.ids))
	}

	for _, di := range dns {
		d := &st.dns[di]
		if on.has(secDataset) {
			h.dataset.dns(d)
		}
		if on.has(secTable1 | secPerHouse) {
			if p := f.plats.of[d.res]; p >= 0 {
				h.platforms[p].lookups++
			}
		}
		if on.has(secPrefetch) && !a.DNSUsed[di] {
			h.prefetch.unused++
		}
		if on.has(secFailures) {
			h.failures.add(d)
		}
	}

	// The house's connections per class: PerHouse's ClassCounts, and
	// the sizes of the curves that take one sample per connection of a
	// class, reserved up front so they grow once.
	var classes [numClasses]int
	for _, ci := range conns {
		classes[a.Paired[ci].Class]++
	}
	if on.has(secFigure1) {
		h.figure1.gaps.Grow(len(conns) - classes[ClassN])
	}
	if on.has(secTTL) {
		h.ttl.reserve(&classes)
	}
	if on.has(secFigure2) {
		h.figure2.reserve(&classes)
	}

	for _, ci := range conns {
		pc, c := &a.Paired[ci], &st.conns[ci]
		if on.has(secDataset) {
			h.dataset.conn(c)
		}
		if on.has(secNoDNS) {
			h.noDNS.conn(pc, c)
		}
		if on.has(secTTL) {
			h.ttl.conn(pc, c, st.dns)
		}
		if on.has(secPrefetch) {
			h.prefetch.conn(pc)
		}
		if on.has(secRefresh) && pc.Class != ClassN {
			h.refresh.conns++
		}
		if pc.DNS < 0 {
			continue
		}
		if on.has(secPairing) {
			h.pairing.conn(pc)
		}
		if on.has(secFigure1) {
			h.figure1.conn(pc, a.Opts.KneeThreshold)
		}
		if on.has(secSlack) {
			h.slack.conn(pc, a.Opts.BlockThreshold)
		}
		if on.has(secTolerable) {
			h.tolerable.conn(pc, a.Opts.BlockThreshold, f.req.extra)
		}
		d := &st.dns[pc.DNS]
		p := -1
		if on.has(secTable1 | secResolvers) {
			p = f.plats.of[d.res]
		}
		if on.has(secTable1) && p >= 0 {
			h.platforms[p].conn(c)
		}
		if pc.Class != ClassSC && pc.Class != ClassR {
			continue
		}
		lookup := d.duration()
		if on.has(secFigure2) {
			h.figure2.conn(pc.Class, lookup, c.dur)
		}
		if on.has(secSignificance) {
			h.sig.conn(lookup, c.dur, &a.Opts)
		}
		if on.has(secResolvers) && p >= 0 {
			tput := c.throughputBps()
			h.platforms[p].blocked(pc.Class, lookup, tput)
			h.resolvers.conn(f.plats.ids[p], d.name == f.ccSym, tput)
		}
	}

	if on.has(secPerHouse) {
		h.perHouse = []HouseSummary{houseSummary(st.addrs[a.shards.list[s].client], len(conns), len(dns),
			classes, h.platforms, f.plats.ids)}
	}
	if on.has(secWholeHouse) {
		h.whole = a.wholeHouseShard(s, scr)
	}
	if on.has(secRefresh) {
		h.refresh.tallies = make([]cacheShardTally, len(f.req.policies))
		for k, pol := range f.req.policies {
			h.refresh.tallies[k] = a.simulateShardCache(s, f.req.floor, pol, f.authTTL, f.window, scr)
		}
	}
	if on.has(secTransport) {
		h.transport = f.transport(conns, dns)
	}
	return h
}
