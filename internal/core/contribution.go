package core

import (
	"time"

	"dnscontext/internal/stats"
)

// Figure2 is §6's performance view of the blocked (SC and R) connections.
type Figure2 struct {
	// LookupDelays is the distribution of DNS lookup durations (ms) for
	// SC∪R (Figure 2 top).
	LookupDelays *stats.ECDF
	// Contribution* are the distributions of DNS' percentage contribution
	// to total transaction time 100·D/(D+A) (Figure 2 bottom).
	ContributionAll *stats.ECDF
	ContributionSC  *stats.ECDF
	ContributionR   *stats.ECDF
}

// Figure2 computes the delay and contribution distributions.
func (a *Analysis) Figure2() Figure2 { return a.fold(foldReq{secs: secFigure2}).figure2.result() }

// figure2Fold is a house's share of Figure2, over its SC and R
// connections.
type figure2Fold struct {
	delays, all, sc, r stats.ECDF
}

// conn adds a blocked (SC or R) connection whose lookup took lookup and
// whose transaction took appTime after it.
func (f *figure2Fold) conn(class Class, lookup, appTime time.Duration) {
	total := lookup + appTime
	f.delays.Add(float64(lookup) / float64(time.Millisecond))
	contrib := 0.0
	if total > 0 {
		contrib = 100 * float64(lookup) / float64(total)
	}
	f.all.Add(contrib)
	if class == ClassSC {
		f.sc.Add(contrib)
	} else {
		f.r.Add(contrib)
	}
}

// reserve sizes the curves for a house with n connections per class.
func (f *figure2Fold) reserve(n *[numClasses]int) {
	f.delays.Grow(n[ClassSC] + n[ClassR])
	f.all.Grow(n[ClassSC] + n[ClassR])
	f.sc.Grow(n[ClassSC])
	f.r.Grow(n[ClassR])
}

func (f *figure2Fold) merge(o *figure2Fold) {
	f.delays.Merge(&o.delays)
	f.all.Merge(&o.all)
	f.sc.Merge(&o.sc)
	f.r.Merge(&o.r)
}

func (f *figure2Fold) result() Figure2 {
	return Figure2{LookupDelays: &f.delays, ContributionAll: &f.all, ContributionSC: &f.sc, ContributionR: &f.r}
}

// Significance is §6's quadrant analysis over SC∪R transactions, using
// two independent "insignificant cost" criteria: absolute lookup time at
// most Opts.InsignificantAbs and relative contribution at most
// Opts.InsignificantRel.
type Significance struct {
	// Quadrant fractions over SC∪R transactions (sum to 1).
	BothInsignificant float64 // paper: 64.0%
	OnlyRelHigh       float64 // >rel but <=abs; paper: 11.5%
	OnlyAbsHigh       float64 // >abs but <=rel; paper: 15.9%
	BothSignificant   float64 // paper: 8.6%
	// OverallSignificant is BothSignificant expressed over ALL
	// connections (paper: 3.6%).
	OverallSignificant float64
	N                  int
}

// Significance computes the quadrant fractions.
func (a *Analysis) Significance() Significance {
	return a.fold(foldReq{secs: secSignificance}).sig.result(len(a.Paired))
}

// significanceFold is a house's share of Significance: its SC and R
// connections counted per quadrant.
type significanceFold struct {
	bothInsignificant, onlyRelHigh, onlyAbsHigh, bothSignificant int
}

func (f *significanceFold) conn(lookup, appTime time.Duration, opts *Options) {
	total := lookup + appTime
	rel := 0.0
	if total > 0 {
		rel = float64(lookup) / float64(total)
	}
	absHigh := lookup > opts.InsignificantAbs
	relHigh := rel > opts.InsignificantRel
	switch {
	case !absHigh && !relHigh:
		f.bothInsignificant++
	case !absHigh && relHigh:
		f.onlyRelHigh++
	case absHigh && !relHigh:
		f.onlyAbsHigh++
	default:
		f.bothSignificant++
	}
}

func (f *significanceFold) merge(o *significanceFold) {
	f.bothInsignificant += o.bothInsignificant
	f.onlyRelHigh += o.onlyRelHigh
	f.onlyAbsHigh += o.onlyAbsHigh
	f.bothSignificant += o.bothSignificant
}

func (f *significanceFold) result(conns int) Significance {
	s := Significance{N: f.bothInsignificant + f.onlyRelHigh + f.onlyAbsHigh + f.bothSignificant}
	if s.N > 0 {
		n := float64(s.N)
		s.BothInsignificant = float64(f.bothInsignificant) / n
		s.OnlyRelHigh = float64(f.onlyRelHigh) / n
		s.OnlyAbsHigh = float64(f.onlyAbsHigh) / n
		s.BothSignificant = float64(f.bothSignificant) / n
	}
	if conns > 0 {
		s.OverallSignificant = s.BothSignificant * float64(s.N) / float64(conns)
	}
	return s
}
