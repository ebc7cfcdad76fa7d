package dnscontext_test

// Public-API tests: everything here goes through the dnscontext facade
// exactly as a downstream user would.

import (
	"bytes"
	"strings"
	"testing"
	"time"

	"dnscontext"
)

func tinyConfig(seed uint64) dnscontext.GeneratorConfig {
	cfg := dnscontext.SmallGeneratorConfig(seed)
	cfg.Houses = 6
	cfg.Duration = 90 * time.Minute
	cfg.Warmup = 90 * time.Minute
	return cfg
}

func TestPublicAPIGenerateAnalyzeReport(t *testing.T) {
	ds, eco, err := dnscontext.Generate(tinyConfig(1))
	if err != nil {
		t.Fatal(err)
	}
	if len(ds.DNS) == 0 || len(ds.Conns) == 0 {
		t.Fatal("empty trace")
	}
	a := dnscontext.NewAnalyzer(dnscontext.WithSCRMinSamples(50)).Analyze(ds)

	total := 0.0
	for _, c := range []dnscontext.Class{dnscontext.ClassN, dnscontext.ClassLC,
		dnscontext.ClassP, dnscontext.ClassSC, dnscontext.ClassR} {
		total += a.Fraction(c)
	}
	if total < 0.999 || total > 1.001 {
		t.Fatalf("class fractions sum to %v", total)
	}

	var buf bytes.Buffer
	if err := a.Report(&buf, eco.Profiles); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "Table 2") {
		t.Fatal("report missing Table 2")
	}
}

func TestPublicAPITSVRoundTrip(t *testing.T) {
	ds, _, err := dnscontext.Generate(tinyConfig(2))
	if err != nil {
		t.Fatal(err)
	}
	var dnsBuf, connBuf bytes.Buffer
	if err := dnscontext.WriteDNS(&dnsBuf, ds.DNS); err != nil {
		t.Fatal(err)
	}
	if err := dnscontext.WriteConns(&connBuf, ds.Conns); err != nil {
		t.Fatal(err)
	}
	dns, err := dnscontext.ReadDNS(&dnsBuf)
	if err != nil {
		t.Fatal(err)
	}
	conns, err := dnscontext.ReadConns(&connBuf)
	if err != nil {
		t.Fatal(err)
	}
	if len(dns) != len(ds.DNS) || len(conns) != len(ds.Conns) {
		t.Fatalf("round trip lost records: %d/%d vs %d/%d",
			len(dns), len(conns), len(ds.DNS), len(ds.Conns))
	}

	// An analysis over the round-tripped trace must classify identically.
	an := dnscontext.NewAnalyzer(dnscontext.WithSCRMinSamples(50))
	a := an.Analyze(ds)
	b := an.Analyze(&dnscontext.Dataset{DNS: dns, Conns: conns})
	for _, c := range []dnscontext.Class{dnscontext.ClassN, dnscontext.ClassLC,
		dnscontext.ClassP, dnscontext.ClassSC, dnscontext.ClassR} {
		if a.Count(c) != b.Count(c) {
			t.Fatalf("class %v differs after TSV round trip: %d vs %d", c, a.Count(c), b.Count(c))
		}
	}
}

func TestPublicAPIMonitorPath(t *testing.T) {
	ds, _, err := dnscontext.Generate(tinyConfig(3))
	if err != nil {
		t.Fatal(err)
	}
	m := dnscontext.NewMonitor(dnscontext.DefaultMonitorOptions())
	err = dnscontext.Synthesize(ds, dnscontext.SynthOptions{MaxBytesPerConn: 8 << 10},
		func(ts time.Duration, frame []byte) error {
			m.FeedFrame(ts, frame)
			return nil
		})
	if err != nil {
		t.Fatal(err)
	}
	got := m.Flush()
	if len(got.DNS) != len(ds.DNS) || len(got.Conns) != len(ds.Conns) {
		t.Fatalf("monitor path lost records: %d/%d vs %d/%d",
			len(got.DNS), len(got.Conns), len(ds.DNS), len(ds.Conns))
	}
}

func TestPublicAPIRefreshPolicies(t *testing.T) {
	ds, _, err := dnscontext.Generate(tinyConfig(4))
	if err != nil {
		t.Fatal(err)
	}
	a := dnscontext.NewAnalyzer().Analyze(ds)
	rows := a.CompareRefreshPolicies(10*time.Second,
		dnscontext.PolicyPopular(2, time.Hour),
		dnscontext.PolicyIdleBounded(30*time.Minute),
	)
	if len(rows) != 4 {
		t.Fatalf("rows %d", len(rows))
	}
	std := rows[0].Result
	all := rows[len(rows)-1].Result
	if all.Lookups < std.Lookups {
		t.Fatal("refresh-all cheaper than standard")
	}
	if all.HitRate < std.HitRate {
		t.Fatal("refresh-all hit rate below standard")
	}
}

func TestPublicAPIPlatformIdentifiers(t *testing.T) {
	profiles := dnscontext.DefaultProfiles()
	if len(profiles) != 4 {
		t.Fatalf("profiles %d", len(profiles))
	}
	want := map[dnscontext.PlatformID]bool{
		dnscontext.PlatformLocal: true, dnscontext.PlatformGoogle: true,
		dnscontext.PlatformOpenDNS: true, dnscontext.PlatformCloudflare: true,
	}
	for _, p := range profiles {
		if !want[p.ID] {
			t.Fatalf("unexpected platform %v", p.ID)
		}
		delete(want, p.ID)
	}
	if len(want) != 0 {
		t.Fatalf("missing platforms: %v", want)
	}
}
