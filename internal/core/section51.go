package core

import "dnscontext/internal/trace"

// NoDNS is §5.1's dissection of the N connections (no DNS information).
type NoDNS struct {
	// Total is the number of N connections.
	Total int
	// HighPortFraction is the share where both ports are non-reserved
	// (>=1024), the hallmark of peer-to-peer traffic (paper: 81.6%).
	HighPortFraction float64
	// ReservedPortCounts tallies N connections per well-known destination
	// port (443, 123, 80 dominate in the paper).
	ReservedPortCounts map[uint16]int
	// DoTConns counts connections on TCP/853 — the encrypted-DNS check
	// (paper: zero).
	DoTConns int
	// UnpairedNonP2PFraction is the share of ALL connections that are
	// both unpaired and not high-port traffic — the paper's bound on
	// possible encrypted-DNS impact (paper: 1.3%).
	UnpairedNonP2PFraction float64
}

// NoDNS computes the §5.1 breakdown.
func (a *Analysis) NoDNS() NoDNS { return a.fold(foldReq{secs: secNoDNS}).noDNS.result(len(a.Paired)) }

// noDNSFold is a house's share of NoDNS.
type noDNSFold struct {
	total, highPort, unpairedNonP2P, dot int
	reserved                             map[uint16]int // nil until needed
}

func (f *noDNSFold) conn(pc *PairedConn, c *trace.ConnRecord) {
	if c.RespPort == 853 {
		f.dot++
	}
	if pc.Class != ClassN {
		return
	}
	f.total++
	if c.OrigPort >= 1024 && c.RespPort >= 1024 {
		f.highPort++
		return
	}
	if f.reserved == nil {
		f.reserved = make(map[uint16]int)
	}
	f.reserved[c.RespPort]++
	f.unpairedNonP2P++
}

func (f *noDNSFold) merge(o *noDNSFold) {
	f.total += o.total
	f.highPort += o.highPort
	f.unpairedNonP2P += o.unpairedNonP2P
	f.dot += o.dot
	for port, n := range o.reserved {
		if f.reserved == nil {
			f.reserved = make(map[uint16]int)
		}
		f.reserved[port] += n
	}
}

func (f *noDNSFold) result(conns int) NoDNS {
	out := NoDNS{Total: f.total, DoTConns: f.dot, ReservedPortCounts: f.reserved}
	if out.ReservedPortCounts == nil {
		out.ReservedPortCounts = make(map[uint16]int)
	}
	if out.Total > 0 {
		out.HighPortFraction = float64(f.highPort) / float64(out.Total)
	}
	if conns > 0 {
		out.UnpairedNonP2PFraction = float64(f.unpairedNonP2P) / float64(conns)
	}
	return out
}

// PairingAmbiguity reports §4's centralized-hosting measure: the fraction
// of paired connections with exactly one non-expired candidate record
// (paper: >82%).
func (a *Analysis) PairingAmbiguity() (unambiguous float64, paired int) {
	return a.fold(foldReq{secs: secPairing}).pairing.result()
}

// pairingFold is a house's share of PairingAmbiguity, over its paired
// connections.
type pairingFold struct{ paired, single int }

func (f *pairingFold) conn(pc *PairedConn) {
	f.paired++
	if pc.Candidates <= 1 {
		f.single++
	}
}

func (f *pairingFold) merge(o *pairingFold) {
	f.paired += o.paired
	f.single += o.single
}

func (f *pairingFold) result() (unambiguous float64, paired int) {
	if f.paired == 0 {
		return 0, 0
	}
	return float64(f.single) / float64(f.paired), f.paired
}
