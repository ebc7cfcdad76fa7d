package core

import (
	"time"

	"dnscontext/internal/stats"
)

// Slack quantifies how much longer DNS lookups could have taken without
// delaying the connections that use them. The paper's §2 frames this work
// as the in-depth study behind the authors' earlier "slack" results
// ([1], [24]): if a lookup's first use comes seconds after the response,
// a slower (e.g. challenge-response-protected or encrypted) resolution
// would have been invisible to the user.
type Slack struct {
	// FirstUseGap is the distribution (seconds) of the gap between each
	// USED lookup's completion and its first use.
	FirstUseGap *stats.ECDF
	// Blocked* report how many lookups had essentially no slack: their
	// first use followed within the blocking threshold.
	BlockedLookups int
	TotalLookups   int
	// SlackOver reports the fraction of used lookups whose first use left
	// at least the given slack.
	SlackOver10ms float64
	SlackOver1s   float64
	SlackOver10s  float64
}

// Slack computes the per-lookup slack analysis over used lookups.
func (a *Analysis) Slack() Slack { return a.fold(foldReq{secs: secSlack}).slack.result() }

// slackFold is a house's share of Slack, over its paired connections.
type slackFold struct {
	total, blocked int
	gaps           stats.ECDF // seconds, first uses only
}

func (f *slackFold) conn(pc *PairedConn, block time.Duration) {
	if !pc.FirstUse {
		return
	}
	f.total++
	f.gaps.Add(pc.Gap.Seconds())
	if pc.Gap <= block {
		f.blocked++
	}
}

func (f *slackFold) merge(o *slackFold) {
	f.total += o.total
	f.blocked += o.blocked
	f.gaps.Merge(&o.gaps)
}

func (f *slackFold) result() Slack {
	out := Slack{FirstUseGap: &f.gaps, BlockedLookups: f.blocked, TotalLookups: f.total}
	if out.FirstUseGap.N() > 0 {
		out.SlackOver10ms = out.FirstUseGap.FractionAbove(0.010)
		out.SlackOver1s = out.FirstUseGap.FractionAbove(1)
		out.SlackOver10s = out.FirstUseGap.FractionAbove(10)
	}
	return out
}

// TolerableExtraDelay answers the slack question directly: if every
// lookup had taken extra longer, what fraction of the connections that
// used those lookups would have been pushed past the blocking threshold?
// (Connections already blocked stay blocked; a cache-served connection
// blocks only if the extra delay exceeds its observed slack.)
func (a *Analysis) TolerableExtraDelay(extra time.Duration) (newlyBlockedFraction float64) {
	return a.fold(foldReq{secs: secTolerable, extra: extra}).tolerable.result()
}

// tolerableFold is a house's share of TolerableExtraDelay, over its
// paired connections.
type tolerableFold struct{ newly, considered int }

func (f *tolerableFold) conn(pc *PairedConn, block, extra time.Duration) {
	f.considered++
	if pc.Gap > block && pc.Gap <= block+extra {
		f.newly++
	}
}

func (f *tolerableFold) merge(o *tolerableFold) {
	f.newly += o.newly
	f.considered += o.considered
}

func (f *tolerableFold) result() float64 {
	if f.considered == 0 {
		return 0
	}
	return float64(f.newly) / float64(f.considered)
}
