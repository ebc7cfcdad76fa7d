package core

import (
	"context"
	"fmt"
	"time"

	"dnscontext/internal/parallel"
	"dnscontext/internal/resolver"
)

// TransportScenario is one cell of the transport what-if: a wire
// transport, optionally with TLS session resumption.
type TransportScenario struct {
	Kind       resolver.TransportKind
	Resumption bool
}

// String names the scenario for table rows ("DoT", "DoT+resume", ...).
func (s TransportScenario) String() string {
	if s.Resumption && s.Kind.TLS() {
		return s.Kind.String() + "+resume"
	}
	return s.Kind.String()
}

// DefaultTransportScenarios is the comparison the acceptance question
// asks for: the paper's Do53 baseline, DoTCP, and DoT/DoH each with and
// without session resumption.
func DefaultTransportScenarios() []TransportScenario {
	return []TransportScenario{
		{Kind: resolver.TransportUDP},
		{Kind: resolver.TransportTCP},
		{Kind: resolver.TransportTLS},
		{Kind: resolver.TransportTLS, Resumption: true},
		{Kind: resolver.TransportHTTPS},
		{Kind: resolver.TransportHTTPS, Resumption: true},
	}
}

// TransportRow is one scenario's analytic re-costing of the trace.
type TransportRow struct {
	Scenario TransportScenario
	// WireLookups is the number of replayed wire lookups to known
	// platforms (the connection-state walk covers every lookup, used or
	// not, because reuse depends on all of a client's DNS activity).
	WireLookups int
	// Cold/Resumed/Reused split the wire lookups by the connection state
	// they would have found: no usable connection (full handshake), a
	// session ticket but no live connection (shortened handshake), or a
	// live idle connection (no handshake at all).
	Cold, Resumed, Reused int
	// HandshakeTotal is the summed handshake time the scenario adds
	// across all wire lookups.
	HandshakeTotal time.Duration
	// MeanLookupDelta is the mean added latency per wire lookup
	// (handshakes plus per-query overhead).
	MeanLookupDelta time.Duration
	// MeanBlockedDelta is the mean added latency over the lookups that
	// blocked a connection (the SC/R pairs) — the paper's "blocked on
	// DNS" cost under this transport.
	MeanBlockedDelta time.Duration
	// BlockedConns is the number of SC/R connections considered.
	BlockedConns int
	// BlockedOver counts SC/R connections whose total DNS-blocked time
	// (query issue to connection start, plus this scenario's delta)
	// reaches the analysis BlockThreshold; BlockedOverFraction divides by
	// all connections.
	BlockedOver         int
	BlockedOverFraction float64
}

// transportTally is one client shard's contribution to a scenario row.
type transportTally struct {
	wire, cold, resumed, reused int
	handshake                   time.Duration
	deltaSum                    time.Duration
	blockedDeltaSum             time.Duration
	blocked, blockedOver        int
}

// platConn is the replayed per-(client, platform) connection state: the
// passive analogue of resolver.ConnState, advanced analytically.
type platConn struct {
	established  bool
	idleDeadline time.Duration
	hasSession   bool
	sessionUntil time.Duration
}

// TransportWhatIf re-runs the blocking analysis under each transport
// scenario without re-simulating: it walks every client's DNS records in
// time order, replaying the persistent-connection state the client would
// have held toward each platform, and prices the handshakes the scenario
// would have added using the platform link's analytic expected RTT. The
// walk consumes no randomness and never mutates the analysis, so it is
// safe to run alongside anything and is bit-reproducible by
// construction.
//
// Two modeling notes. Clients are NAT'd houses, so the replay merges all
// of a house's devices into one connection per platform — the passive
// view cannot do better, making the handshake counts (and therefore the
// deltas) a lower bound. And the baseline trace's lookup durations stay
// as observed: the scenario adds cost on top (handshake + per-query
// overhead), which isolates the transport-attributable delta the
// acceptance question asks about.
//
// Requires a full analysis (nil for summary-grade, like the other
// what-ifs that walk raw records).
func (a *Analysis) TransportWhatIf(profiles []resolver.PlatformProfile, scenarios []TransportScenario) []TransportRow {
	if a.Summary() {
		return nil
	}
	if len(scenarios) == 0 {
		scenarios = DefaultTransportScenarios()
	}
	rows := make([]TransportRow, 0, len(scenarios))
	for _, sc := range scenarios {
		rows = append(rows, a.transportScenario(profiles, sc))
	}
	return rows
}

// transportScenario prices one scenario, shard-parallel like WholeHouse.
func (a *Analysis) transportScenario(profiles []resolver.PlatformProfile, sc TransportScenario) TransportRow {
	cfg := resolver.StreamConfig{SessionResumption: sc.Resumption}.WithDefaults(sc.Kind)
	// Per-platform analytic expected RTTs, indexed by PlatformID.
	expRTT := make(map[resolver.PlatformID]time.Duration, len(profiles))
	for _, p := range profiles {
		expRTT[p.ID] = p.Link.ExpectedRTT()
	}

	parts, _ := parallel.Map(context.Background(), a.Opts.Workers, len(a.shards.list),
		func(s int) (transportTally, error) {
			return a.transportShard(s, sc, cfg, profiles, expRTT), nil
		})

	var t transportTally
	for _, p := range parts {
		t.wire += p.wire
		t.cold += p.cold
		t.resumed += p.resumed
		t.reused += p.reused
		t.handshake += p.handshake
		t.deltaSum += p.deltaSum
		t.blockedDeltaSum += p.blockedDeltaSum
		t.blocked += p.blocked
		t.blockedOver += p.blockedOver
	}
	row := TransportRow{
		Scenario:       sc,
		WireLookups:    t.wire,
		Cold:           t.cold,
		Resumed:        t.resumed,
		Reused:         t.reused,
		HandshakeTotal: t.handshake,
		BlockedConns:   t.blocked,
		BlockedOver:    t.blockedOver,
	}
	if t.wire > 0 {
		row.MeanLookupDelta = t.deltaSum / time.Duration(t.wire)
	}
	if t.blocked > 0 {
		row.MeanBlockedDelta = t.blockedDeltaSum / time.Duration(t.blocked)
	}
	if a.connTotal > 0 {
		row.BlockedOverFraction = float64(t.blockedOver) / float64(a.connTotal)
	}
	return row
}

// transportShard replays one client: first the DNS walk that advances the
// per-platform connection state and prices each lookup's delta, then the
// connection walk that charges those deltas to the blocked (SC/R) pairs.
func (a *Analysis) transportShard(shardID int, sc TransportScenario, cfg resolver.StreamConfig,
	profiles []resolver.PlatformProfile, expRTT map[resolver.PlatformID]time.Duration) (out transportTally) {
	recs := a.st.dns
	connPos, dnsPos := a.shards.records(shardID)
	stream := sc.Kind.Stream()
	var conns map[resolver.PlatformID]*platConn
	var delta map[int32]time.Duration
	if stream {
		conns = make(map[resolver.PlatformID]*platConn, 4)
		delta = make(map[int32]time.Duration, len(dnsPos))
	}

	for _, di := range dnsPos {
		d := &recs[di]
		pid, ok := resolver.PlatformOf(a.st.resolvers[d.res].addr, profiles)
		if !ok {
			continue
		}
		out.wire++
		if !stream {
			continue
		}
		st := conns[pid]
		if st == nil {
			st = &platConn{}
			conns[pid] = st
		}
		var add time.Duration
		switch {
		case st.established && d.queryTS <= st.idleDeadline:
			out.reused++
		default:
			resumed := cfg.SessionResumption && sc.Kind.TLS() &&
				st.hasSession && d.queryTS <= st.sessionUntil
			if resumed {
				out.resumed++
			} else {
				out.cold++
			}
			hs := time.Duration(cfg.HandshakeRTTs(sc.Kind, resumed)) * expRTT[pid]
			add = hs
			out.handshake += hs
		}
		add += cfg.PerQueryOverhead
		out.deltaSum += add
		if add > 0 {
			delta[di] = add
		}
		// The lookup completes later by the added cost; reuse windows
		// shift with it.
		done := d.ts + add
		st.established = true
		st.idleDeadline = done + cfg.IdleTimeout
		if sc.Kind.TLS() {
			st.hasSession = true
			st.sessionUntil = done + cfg.SessionLifetime
		}
	}

	for _, ci := range connPos {
		pc := &a.Paired[ci]
		if pc.Class != ClassSC && pc.Class != ClassR {
			continue
		}
		d := &recs[pc.DNS]
		out.blocked++
		var add time.Duration
		if stream {
			add = delta[int32(pc.DNS)]
		}
		out.blockedDeltaSum += add
		blockedFor := d.duration() + pc.Gap + add
		if blockedFor >= a.Opts.BlockThreshold {
			out.blockedOver++
		}
	}
	return out
}

// WriteTransportTable renders the what-if rows as the delta table the
// CLI prints: per scenario, the connection-state split, the mean added
// lookup latency, and the movement of the ≥BlockThreshold blocked mass,
// with the Do53 row as the zero baseline.
func WriteTransportTable(w interface{ Write([]byte) (int, error) }, rows []TransportRow, blockThreshold time.Duration) error {
	if len(rows) == 0 {
		return nil
	}
	base := rows[0]
	if _, err := fmt.Fprintf(w, "Transport what-if (blocked ≥ %v; deltas vs %s)\n",
		blockThreshold, base.Scenario); err != nil {
		return err
	}
	if _, err := fmt.Fprintf(w, "%-12s %9s %9s %9s %9s %12s %12s %9s %9s %10s\n",
		"transport", "lookups", "cold", "resumed", "reused",
		"mean Δ/look", "mean Δ/blk", "blk≥thr", "Δblk", "blk-frac"); err != nil {
		return err
	}
	for _, r := range rows {
		if _, err := fmt.Fprintf(w, "%-12s %9d %9d %9d %9d %12s %12s %9d %+9d %9.2f%%\n",
			r.Scenario, r.WireLookups, r.Cold, r.Resumed, r.Reused,
			r.MeanLookupDelta.Round(time.Microsecond),
			r.MeanBlockedDelta.Round(time.Microsecond),
			r.BlockedOver, r.BlockedOver-base.BlockedOver,
			100*r.BlockedOverFraction); err != nil {
			return err
		}
	}
	return nil
}
