package core

import (
	"time"

	"dnscontext/internal/stats"
	"dnscontext/internal/trace"
)

// TTLViolations is §5.2's analysis of connections using DNS records past
// their TTL, split by class.
type TTLViolations struct {
	// LCExpiredFraction is the share of LC connections using outdated
	// records (paper: 22.2%).
	LCExpiredFraction float64
	// PExpiredFraction is the same for P connections (paper: 12.4%).
	PExpiredFraction float64
	// Lateness is the distribution (seconds) of how long past expiry the
	// violating LC/P connections start (paper: 82% beyond 30 s, median
	// 890 s, p90 ≈ 19k s).
	Lateness *stats.ECDF
	// LatenessBeyond30s is the fraction of violations more than 30 s past
	// expiry.
	LatenessBeyond30s float64
	// GapMedianP / GapMedianLC are the median lookup-to-use gaps
	// (paper: 310 s for P, 1033 s for LC).
	GapMedianP  time.Duration
	GapMedianLC time.Duration
}

// TTLViolations computes the expired-record-use analysis.
func (a *Analysis) TTLViolations() TTLViolations {
	return a.fold(foldReq{secs: secTTL}).ttl.result()
}

// ttlFold is a house's share of TTLViolations.
type ttlFold struct {
	lc, lcExp, p, pExp      int
	lateness, gapsP, gapsLC stats.ECDF // seconds
}

func (f *ttlFold) conn(pc *PairedConn, c *trace.ConnRecord, expiry []time.Duration) {
	switch pc.Class {
	case ClassLC:
		f.lc++
		f.gapsLC.Add(pc.Gap.Seconds())
		if pc.UsedExpired {
			f.lcExp++
		}
	case ClassP:
		f.p++
		f.gapsP.Add(pc.Gap.Seconds())
		if pc.UsedExpired {
			f.pExp++
		}
	default:
		return
	}
	if pc.UsedExpired {
		f.lateness.Add((c.TS - expiry[pc.DNS]).Seconds())
	}
}

// reserve sizes the gap curves for a house with n connections per
// class.
func (f *ttlFold) reserve(n *[numClasses]int) {
	f.gapsLC.Grow(n[ClassLC])
	f.gapsP.Grow(n[ClassP])
}

func (f *ttlFold) merge(o *ttlFold) {
	f.lc += o.lc
	f.lcExp += o.lcExp
	f.p += o.p
	f.pExp += o.pExp
	f.lateness.Merge(&o.lateness)
	f.gapsP.Merge(&o.gapsP)
	f.gapsLC.Merge(&o.gapsLC)
}

func (f *ttlFold) result() TTLViolations {
	out := TTLViolations{Lateness: &f.lateness}
	if f.lc > 0 {
		out.LCExpiredFraction = float64(f.lcExp) / float64(f.lc)
	}
	if f.p > 0 {
		out.PExpiredFraction = float64(f.pExp) / float64(f.p)
	}
	if out.Lateness.N() > 0 {
		out.LatenessBeyond30s = out.Lateness.FractionAbove(30)
	}
	if f.gapsP.N() > 0 {
		out.GapMedianP = time.Duration(f.gapsP.Median() * float64(time.Second))
	}
	if f.gapsLC.N() > 0 {
		out.GapMedianLC = time.Duration(f.gapsLC.Median() * float64(time.Second))
	}
	return out
}

// Prefetch is §5.2's speculative-lookup accounting.
type Prefetch struct {
	// TotalLookups is the number of DNS transactions in the trace.
	TotalLookups int
	// UnusedLookups is how many facilitated no connection (paper: 37.8%).
	UnusedLookups  int
	UnusedFraction float64
	// SpeculativeUsedFraction assumes every unused lookup was a prefetch
	// and asks what fraction of speculative lookups were eventually used:
	// P-connections' lookups / (P lookups + unused) (paper: 22.3%).
	SpeculativeUsedFraction float64
}

// Prefetch computes the unused-lookup analysis.
func (a *Analysis) Prefetch() Prefetch {
	return a.fold(foldReq{secs: secPrefetch}).prefetch.result(len(a.DS.DNS))
}

// prefetchFold is a house's share of Prefetch: its unused lookups, and
// its lookups whose first use was a P connection. Classification marks
// exactly one connection per used lookup as its first use, so counting
// those connections counts the distinct lookups.
type prefetchFold struct{ unused, pFirst int }

func (f *prefetchFold) conn(pc *PairedConn) {
	if pc.Class == ClassP && pc.FirstUse {
		f.pFirst++
	}
}

func (f *prefetchFold) merge(o *prefetchFold) {
	f.unused += o.unused
	f.pFirst += o.pFirst
}

func (f *prefetchFold) result(lookups int) Prefetch {
	out := Prefetch{TotalLookups: lookups, UnusedLookups: f.unused}
	if out.TotalLookups > 0 {
		out.UnusedFraction = float64(out.UnusedLookups) / float64(out.TotalLookups)
	}
	speculative := f.pFirst + out.UnusedLookups
	if speculative > 0 {
		out.SpeculativeUsedFraction = float64(f.pFirst) / float64(speculative)
	}
	return out
}
