package core

import (
	"net/netip"
	"testing"
	"time"

	"dnscontext/internal/resolver"
	"dnscontext/internal/trace"
)

func TestPerHouseSummaries(t *testing.T) {
	ds := &trace.Dataset{
		DNS: []trace.DNSRecord{
			mkDNS(houseA, resLoc, 10*time.Second, 3*time.Millisecond, "a.com", webIP, time.Hour),
			mkDNS(houseA, resGgl, 20*time.Second, 20*time.Millisecond, "b.com", webIP2, time.Hour),
			mkDNS(houseB, resLoc, 30*time.Second, 3*time.Millisecond, "c.com", cdnIP, time.Hour),
		},
		Conns: []trace.ConnRecord{
			mkConn(houseA, webIP, 10*time.Second+5*time.Millisecond, time.Second, 443), // SC
			mkConn(houseA, webIP, time.Minute, time.Second, 443),                       // LC
			mkConn(houseB, cdnIP, 30*time.Second+5*time.Millisecond, time.Second, 443), // SC
			mkConn(houseB, peerIP, time.Minute, time.Second, 50000),                    // N
		},
	}
	a := Analyze(ds, testOptions())
	houses := a.PerHouse(resolver.DefaultProfiles())
	if len(houses) != 2 {
		t.Fatalf("houses %d", len(houses))
	}
	hA, hB := houses[0], houses[1]
	if hA.House != trace.HouseOf(houseA) || hB.House != trace.HouseOf(houseB) {
		t.Fatalf("house ordering wrong: %d, %d", hA.House, hB.House)
	}
	if hA.DNS != 2 || hA.Conns != 2 {
		t.Fatalf("house A volumes %d/%d", hA.DNS, hA.Conns)
	}
	if hA.ClassCounts[ClassSC] != 1 || hA.ClassCounts[ClassLC] != 1 {
		t.Fatalf("house A classes %+v", hA.ClassCounts)
	}
	if hA.BlockedFraction() != 0.5 {
		t.Fatalf("house A blocked %v", hA.BlockedFraction())
	}
	if hA.UsesOnlyLocal() {
		t.Fatal("house A uses Google but reported only-local")
	}
	if !hB.UsesOnlyLocal() {
		t.Fatal("house B should be only-local")
	}
	if f := OnlyLocalFraction(houses); f != 0.5 {
		t.Fatalf("only-local fraction %v", f)
	}
	if OnlyLocalFraction(nil) != 0 {
		t.Fatal("empty only-local fraction")
	}
}

func TestPerHousePaperBand(t *testing.T) {
	a := analysisForPaperBands(t)
	houses := a.PerHouse(resolver.DefaultProfiles())
	if len(houses) < 40 {
		t.Fatalf("only %d houses", len(houses))
	}
	// Paper §3: ~16% of houses use only the ISP's resolvers. Houses
	// without Android devices and without third-party configuration are
	// exactly that population.
	f := OnlyLocalFraction(houses)
	within(t, "only-local houses (paper ~0.16)", f, 0.02, 0.35)
	// Every house should have seen traffic in a day.
	for _, h := range houses {
		if h.Conns == 0 {
			t.Fatalf("house %d has no connections", h.House)
		}
	}
}

// TestPerHouseOrderStable pins PerHouse's row order for clients that
// HouseOf cannot number (outside 10/8, so all House -1): rows must come
// back ordered by (House, Addr), identically on every call and at every
// worker count. Ordering the rows by House alone left such clients in
// whatever order a map iteration produced.
func TestPerHouseOrderStable(t *testing.T) {
	var ds trace.Dataset
	for i := 0; i < 40; i++ {
		// Interleave the clients' first appearances so shard order is
		// not address order.
		client := netip.AddrFrom4([4]byte{192, 168, byte((i * 7) % 5), byte(1 + (i*13)%40)})
		ts := time.Duration(i+1) * time.Second
		ds.DNS = append(ds.DNS, mkDNS(client, resLoc, ts, 3*time.Millisecond, "a.com", webIP, time.Hour))
		ds.Conns = append(ds.Conns, mkConn(client, webIP, ts+5*time.Millisecond, time.Second, 443))
	}
	for _, workers := range []int{1, 2, 8} {
		opts := testOptions()
		opts.Workers = workers
		a := analyzeCopy(&ds, opts)
		for call := 0; call < 20; call++ {
			houses := a.PerHouse(resolver.DefaultProfiles())
			if len(houses) != 40 {
				t.Fatalf("workers=%d: %d houses, want 40", workers, len(houses))
			}
			for i := 1; i < len(houses); i++ {
				p, h := houses[i-1], houses[i]
				if p.House > h.House || (p.House == h.House && p.Addr.Compare(h.Addr) >= 0) {
					t.Fatalf("workers=%d call %d: row %d (%d %v) after row %d (%d %v)",
						workers, call, i, h.House, h.Addr, i-1, p.House, p.Addr)
				}
			}
		}
	}
}
