package core

import (
	"time"

	"dnscontext/internal/trace"
)

// DatasetStats is the §3-style characterization of the two datasets: the
// gross volumes and splits the paper reports before any analysis (9.2M
// DNS transactions; 11.2M connections, 88% TCP / 12% UDP; ~100 houses).
type DatasetStats struct {
	DNSTransactions int
	Connections     int
	Houses          int
	Window          time.Duration

	TCPFraction float64
	UDPFraction float64
	// ConnsPerHousePerDay normalizes volume for cross-run comparison.
	ConnsPerHousePerDay float64
	// TotalBytes is the two-way application volume.
	TotalBytes int64
	// AnswerlessFraction is the share of DNS transactions with no
	// usable address answers (NXDOMAIN, AAAA against v4-only names, ...).
	AnswerlessFraction float64
}

// DatasetStats characterizes the analyzed trace.
func (a *Analysis) DatasetStats() DatasetStats {
	return a.fold(foldReq{secs: secDataset}).datasetStats(a)
}

// datasetFold is a house's share of DatasetStats.
type datasetFold struct {
	tcp, answerless int
	bytes           int64
	window          time.Duration // latest record timestamp
}

func (f *datasetFold) dns(d *dnsRec) {
	if d.nAns == 0 {
		f.answerless++
	}
	f.window = max(f.window, d.ts)
}

func (f *datasetFold) conn(c *connRec) {
	if c.proto == trace.TCP {
		f.tcp++
	}
	f.bytes += c.origBytes + c.respBytes
	f.window = max(f.window, c.ts)
}

func (f *datasetFold) merge(o *datasetFold) {
	f.tcp += o.tcp
	f.answerless += o.answerless
	f.bytes += o.bytes
	f.window = max(f.window, o.window)
}

func (h *houseFold) datasetStats(a *Analysis) DatasetStats {
	f := &h.dataset
	s := DatasetStats{
		DNSTransactions: a.dnsTotal,
		Connections:     a.connTotal,
		Houses:          h.houses, // every client is a house
		Window:          f.window,
		TotalBytes:      f.bytes,
	}
	if s.Connections > 0 {
		s.TCPFraction = float64(f.tcp) / float64(s.Connections)
		s.UDPFraction = 1 - s.TCPFraction
	}
	if s.DNSTransactions > 0 {
		s.AnswerlessFraction = float64(f.answerless) / float64(s.DNSTransactions)
	}
	if s.Houses > 0 && f.window > 0 {
		s.ConnsPerHousePerDay = float64(s.Connections) / float64(s.Houses) / (f.window.Hours() / 24)
	}
	return s
}
