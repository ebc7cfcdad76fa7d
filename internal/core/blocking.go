package core

import (
	"time"

	"dnscontext/internal/stats"
)

// Figure1 is the gap analysis of §4: the distribution of time between a
// DNS lookup's completion and the start of the connection using it, plus
// the first-use fractions on each side of the knee that justify the
// blocking heuristic.
type Figure1 struct {
	// Gaps is the distribution of (conn start − DNS completion), in
	// milliseconds, over all paired connections.
	Gaps *stats.ECDF
	// FirstUseWithinKnee is the fraction of connections starting within
	// the knee threshold that are the first to use their lookup (paper:
	// 91%).
	FirstUseWithinKnee float64
	// FirstUseBeyondKnee is the same fraction for later connections
	// (paper: 21%).
	FirstUseBeyondKnee float64
	// Knee and Block echo the thresholds used.
	Knee, Block time.Duration
}

// Figure1 computes the gap distribution and first-use split.
func (a *Analysis) Figure1() Figure1 {
	return a.fold(foldReq{secs: secFigure1}).figure1.result(&a.Opts)
}

// figure1Fold is a house's share of Figure1, over its paired
// connections.
type figure1Fold struct {
	gaps                                     stats.ECDF // ms
	within, withinFirst, beyond, beyondFirst int
}

func (f *figure1Fold) conn(pc *PairedConn, knee time.Duration) {
	f.gaps.Add(float64(pc.Gap) / float64(time.Millisecond))
	if pc.Gap <= knee {
		f.within++
		if pc.FirstUse {
			f.withinFirst++
		}
	} else {
		f.beyond++
		if pc.FirstUse {
			f.beyondFirst++
		}
	}
}

func (f *figure1Fold) merge(o *figure1Fold) {
	f.gaps.Merge(&o.gaps)
	f.within += o.within
	f.withinFirst += o.withinFirst
	f.beyond += o.beyond
	f.beyondFirst += o.beyondFirst
}

func (f *figure1Fold) result(opts *Options) Figure1 {
	out := Figure1{Gaps: &f.gaps, Knee: opts.KneeThreshold, Block: opts.BlockThreshold}
	if f.within > 0 {
		out.FirstUseWithinKnee = float64(f.withinFirst) / float64(f.within)
	}
	if f.beyond > 0 {
		out.FirstUseBeyondKnee = float64(f.beyondFirst) / float64(f.beyond)
	}
	return out
}
