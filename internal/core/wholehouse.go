package core

import (
	"time"

	"dnscontext/internal/trace"
)

// WholeHouse is §8's first what-if: would a TTL-honoring cache in each
// home router have converted blocked (SC/R) connections into local-cache
// (LC) hits? A connection benefits when any device in the same house
// looked the name up recently enough that the record would still be live
// in a shared house cache when this connection's lookup was issued.
type WholeHouse struct {
	// MovedFraction is the share of ALL connections that would move from
	// SC/R to LC (paper: 9.8%).
	MovedFraction float64
	// SCBenefit / RBenefit are the shares of SC and R connections that
	// benefit (paper: ~22% and ~25%).
	SCBenefit float64
	RBenefit  float64
	// Moved, SCTotal, RTotal are the underlying counts.
	Moved, SCTotal, RTotal int
}

// houseTally is one house's contribution to the whole-house what-if.
type houseTally struct {
	moved, scMoved, rMoved, scTotal, rTotal int
}

func (t *houseTally) merge(o *houseTally) {
	t.moved += o.moved
	t.scMoved += o.scMoved
	t.rMoved += o.rMoved
	t.scTotal += o.scTotal
	t.rTotal += o.rTotal
}

// WholeHouse runs the simulation over the analyzed trace. A house's
// cache holds only that house's lookups and serves only that house's
// connections, so each house replays independently in the per-house
// fold and the counts are summed.
func (a *Analysis) WholeHouse() WholeHouse {
	return a.fold(foldReq{secs: secWholeHouse}).whole.result(len(a.Paired))
}

func (t *houseTally) result(conns int) WholeHouse {
	out := WholeHouse{Moved: t.moved, SCTotal: t.scTotal, RTotal: t.rTotal}
	if conns > 0 {
		out.MovedFraction = float64(out.Moved) / float64(conns)
	}
	if out.SCTotal > 0 {
		out.SCBenefit = float64(t.scMoved) / float64(out.SCTotal)
	}
	if out.RTotal > 0 {
		out.RBenefit = float64(t.rMoved) / float64(out.RTotal)
	}
	return out
}

// wholeHouseShard replays one house. The cache is scr's per-name state
// for this replay: expiresAt is the expiry of the freshest record a
// whole-house cache would hold for the name, and a name is cached once
// its stamp is this replay's. We walk the house's connections in time
// order, advancing a cursor over the house's own DNS records, so the
// cache reflects exactly the lookups that completed before each
// connection's own lookup started.
func (a *Analysis) wholeHouseShard(shardID int, scr *whatIfScratch) (out houseTally) {
	recs := a.st.dns
	conns, dns := a.shards.records(shardID)
	stamp := scr.begin()
	dnsCursor := 0

	for _, ci := range conns {
		pc := &a.Paired[ci]
		if pc.Class != ClassSC && pc.Class != ClassR {
			continue
		}
		d := &recs[pc.DNS]

		// Advance the cache with every DNS response completed before this
		// connection's lookup was issued.
		for dnsCursor < len(dns) && recs[dns[dnsCursor]].ts < d.queryTS {
			r := &recs[dns[dnsCursor]]
			dnsCursor++
			if r.nAns == 0 {
				continue
			}
			if st := &scr.names[r.name]; st.stamp != stamp || r.expiry > st.expiresAt {
				*st = nameState{stamp: stamp, expiresAt: r.expiry}
			}
		}

		if pc.Class == ClassSC {
			out.scTotal++
		} else {
			out.rTotal++
		}
		if st := &scr.names[d.name]; st.stamp == stamp && d.queryTS < st.expiresAt {
			out.moved++
			if pc.Class == ClassSC {
				out.scMoved++
			} else {
				out.rMoved++
			}
		}
	}
	return out
}

// nameState is one query name's state in a what-if replay of one house:
// the whole-house cache's expiry, or the refresh simulation's cache
// entry. stamp names the replay that last wrote it.
type nameState struct {
	stamp     uint32
	uses      int32
	alive     bool
	expiresAt time.Duration
	lastUse   time.Duration
}

// whatIfScratch is one worker's dense what-if state, indexed by
// query-name symbol and reused across the houses and replays the worker
// runs. Each replay takes a fresh stamp, so entries of earlier replays
// read as absent and nothing is ever cleared per house.
type whatIfScratch struct {
	stamp   uint32
	names   []nameState
	touched []trace.Sym // the current replay's names, in first-touch order
}

func newWhatIfScratch(names int) *whatIfScratch {
	return &whatIfScratch{names: make([]nameState, names)}
}

// begin starts a replay and returns its stamp.
func (w *whatIfScratch) begin() uint32 {
	w.stamp++
	if w.stamp == 0 { // wrapped: forget every earlier replay
		clear(w.names)
		w.stamp = 1
	}
	w.touched = w.touched[:0]
	return w.stamp
}

// entry returns name's state in the current replay, zeroed and recorded
// in touched on first access.
func (w *whatIfScratch) entry(name trace.Sym) *nameState {
	st := &w.names[name]
	if st.stamp != w.stamp {
		*st = nameState{stamp: w.stamp}
		w.touched = append(w.touched, name)
	}
	return st
}
