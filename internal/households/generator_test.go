package households

import (
	"math"
	"reflect"
	"testing"
	"time"

	"dnscontext/internal/resolver"
	"dnscontext/internal/trace"
)

func generateSmall(t *testing.T, seed uint64) (*trace.Dataset, *Ecosystem) {
	t.Helper()
	ds, eco, err := Generate(SmallConfig(seed))
	if err != nil {
		t.Fatal(err)
	}
	return ds, eco
}

func TestGenerateValidation(t *testing.T) {
	cfg := SmallConfig(1)
	cfg.Houses = 0
	if _, _, err := Generate(cfg); err == nil {
		t.Error("zero houses accepted")
	}
	cfg = SmallConfig(1)
	cfg.Duration = 0
	if _, _, err := Generate(cfg); err == nil {
		t.Error("zero duration accepted")
	}
	cfg = SmallConfig(1)
	cfg.Zone.NumNames = 0
	if _, _, err := Generate(cfg); err == nil {
		t.Error("bad zone config accepted")
	}
}

func TestGenerateDeterministic(t *testing.T) {
	a, _ := generateSmall(t, 7)
	b, _ := generateSmall(t, 7)
	if len(a.DNS) != len(b.DNS) || len(a.Conns) != len(b.Conns) {
		t.Fatalf("sizes differ: %d/%d vs %d/%d", len(a.DNS), len(a.Conns), len(b.DNS), len(b.Conns))
	}
	for i := range a.DNS {
		if a.DNS[i].Query != b.DNS[i].Query || a.DNS[i].TS != b.DNS[i].TS {
			t.Fatalf("DNS record %d differs", i)
		}
	}
	for i := range a.Conns {
		if a.Conns[i] != b.Conns[i] {
			t.Fatalf("conn %d differs", i)
		}
	}
}

func TestGenerateSeedsDiffer(t *testing.T) {
	a, _ := generateSmall(t, 1)
	b, _ := generateSmall(t, 2)
	if len(a.Conns) == len(b.Conns) && len(a.DNS) == len(b.DNS) {
		// Same sizes are possible but identical first records are not.
		if len(a.Conns) > 0 && a.Conns[0] == b.Conns[0] && a.DNS[0].TS == b.DNS[0].TS {
			t.Fatal("different seeds produced identical traces")
		}
	}
}

func TestRecordsWithinWindow(t *testing.T) {
	cfg := SmallConfig(3)
	ds, _, err := Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for i := range ds.DNS {
		d := &ds.DNS[i]
		if d.QueryTS < 0 || d.QueryTS > cfg.Duration {
			t.Fatalf("DNS record outside window: %v", d.QueryTS)
		}
		if d.TS < d.QueryTS {
			t.Fatalf("DNS response before query: %v < %v", d.TS, d.QueryTS)
		}
	}
	for i := range ds.Conns {
		c := &ds.Conns[i]
		if c.TS < 0 || c.TS > cfg.Duration {
			t.Fatalf("conn outside window: %v", c.TS)
		}
		if c.Duration < 0 || c.OrigBytes < 0 || c.RespBytes < 0 {
			t.Fatalf("negative conn fields: %+v", c)
		}
	}
}

func TestDatasetsSorted(t *testing.T) {
	ds, _ := generateSmall(t, 4)
	for i := 1; i < len(ds.DNS); i++ {
		if ds.DNS[i].TS < ds.DNS[i-1].TS {
			t.Fatal("DNS not sorted")
		}
	}
	for i := 1; i < len(ds.Conns); i++ {
		if ds.Conns[i].TS < ds.Conns[i-1].TS {
			t.Fatal("conns not sorted")
		}
	}
}

func TestClientsAreHouses(t *testing.T) {
	cfg := SmallConfig(5)
	ds, _, err := Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	houses := make(map[int]bool)
	for i := range ds.DNS {
		h := trace.HouseOf(ds.DNS[i].Client)
		if h < 0 || h >= cfg.Houses {
			t.Fatalf("DNS client %v not a house", ds.DNS[i].Client)
		}
		houses[h] = true
	}
	for i := range ds.Conns {
		h := trace.HouseOf(ds.Conns[i].Orig)
		if h < 0 || h >= cfg.Houses {
			t.Fatalf("conn orig %v not a house", ds.Conns[i].Orig)
		}
	}
	if len(houses) < cfg.Houses/2 {
		t.Fatalf("only %d/%d houses active", len(houses), cfg.Houses)
	}
}

func TestResolversAreKnownPlatforms(t *testing.T) {
	ds, eco := generateSmall(t, 6)
	for i := range ds.DNS {
		if _, ok := resolver.PlatformOf(ds.DNS[i].Resolver, eco.Profiles); !ok {
			t.Fatalf("unknown resolver %v", ds.DNS[i].Resolver)
		}
	}
}

func TestNoDNSPort53Conns(t *testing.T) {
	ds, _ := generateSmall(t, 7)
	for i := range ds.Conns {
		if ds.Conns[i].RespPort == 53 || ds.Conns[i].RespPort == 853 {
			t.Fatalf("DNS-port connection leaked into conn log: %+v", ds.Conns[i])
		}
	}
}

func TestTrafficMixPresent(t *testing.T) {
	ds, eco := generateSmall(t, 8)
	var udp, tcp, highport, ntp, probes int
	for i := range ds.Conns {
		c := &ds.Conns[i]
		if c.Proto == trace.UDP {
			udp++
		} else {
			tcp++
		}
		if c.OrigPort >= 1024 && c.RespPort >= 1024 {
			highport++
		}
		if c.RespPort == 123 {
			ntp++
		}
	}
	for i := range ds.DNS {
		if ds.DNS[i].Query == eco.Zones.ConnectivityCheck.Host {
			probes++
		}
	}
	if udp == 0 || tcp == 0 || highport == 0 || ntp == 0 || probes == 0 {
		t.Fatalf("missing traffic class: udp=%d tcp=%d highport=%d ntp=%d probes=%d",
			udp, tcp, highport, ntp, probes)
	}
	if tcp < udp {
		t.Fatalf("TCP (%d) should dominate UDP (%d), as in the paper (88/12)", tcp, udp)
	}
}

func TestAAAACompanionsUnanswered(t *testing.T) {
	ds, _ := generateSmall(t, 9)
	var aaaa, answered int
	for i := range ds.DNS {
		if ds.DNS[i].QType == 28 {
			aaaa++
			if len(ds.DNS[i].Answers) > 0 {
				answered++
			}
		}
	}
	if aaaa == 0 {
		t.Fatal("no AAAA companion lookups generated")
	}
	if answered != 0 {
		t.Fatalf("%d AAAA lookups carry answers in a v4-only namespace", answered)
	}
}

func TestWarmupTrimmed(t *testing.T) {
	cfg := SmallConfig(10)
	cfg.Warmup = 2 * time.Hour
	ds, _, err := Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(ds.Conns) == 0 {
		t.Fatal("empty trace")
	}
	// Records must start at (shifted) zero; activity should appear within
	// the first minutes of the window since caches are warm.
	if ds.Conns[0].TS > 10*time.Minute {
		t.Fatalf("first conn at %v; warmup shift broken?", ds.Conns[0].TS)
	}
}

func TestDiurnalShape(t *testing.T) {
	if diurnal(5*time.Hour) >= diurnal(20*time.Hour) {
		t.Fatal("5am busier than 8pm")
	}
	for h := 0; h < 48; h++ {
		if v := diurnal(time.Duration(h) * time.Hour); v < 0.2 || v > 1.81 {
			t.Fatalf("diurnal(%dh) = %v out of range", h, v)
		}
	}
}

func TestPoisson(t *testing.T) {
	r := statsRNG()
	if poisson(r, 0) != 0 || poisson(r, -1) != 0 {
		t.Fatal("non-positive mean should yield 0")
	}
	const draws = 20000
	sum := 0
	for i := 0; i < draws; i++ {
		sum += poisson(r, 3.0)
	}
	mean := float64(sum) / draws
	if mean < 2.85 || mean > 3.15 {
		t.Fatalf("poisson mean %.3f, want ~3", mean)
	}
}

func TestTransferModelShapes(t *testing.T) {
	tm := newTransferModel(statsRNG())
	classes := []struct {
		name string
		f    func() transfer
	}{
		{"p2p", tm.p2pTransfer},
		{"ntp-dead", func() transfer { return tm.ntpTransfer(true) }},
		{"ntp-live", func() transfer { return tm.ntpTransfer(false) }},
	}
	for _, c := range classes {
		tr := c.f()
		if tr.origBytes < 0 || tr.respBytes < 0 || tr.duration < 0 {
			t.Errorf("%s: negative fields %+v", c.name, tr)
		}
	}
	if tm.ntpTransfer(true).respBytes != 0 {
		t.Error("dead NTP server answered")
	}
}

func TestEncryptedDNSWhatIf(t *testing.T) {
	cfg := SmallConfig(21)
	cfg.EncryptedDNSProb = 1.0 // every browsing device on DoT
	ds, _, err := Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	var dot, other853 int
	for i := range ds.Conns {
		if ds.Conns[i].RespPort == 853 {
			dot++
			if ds.Conns[i].Proto != trace.TCP {
				t.Fatal("DoT connection not TCP")
			}
		}
	}
	if dot == 0 {
		t.Fatal("full DoT adoption produced no TCP/853 connections")
	}
	_ = other853
	// The visible DNS dataset should be a small remnant (IoT cloud
	// lookups do not exist; only non-browsing lookups remain).
	base, _, err := Generate(SmallConfig(21))
	if err != nil {
		t.Fatal(err)
	}
	if len(ds.DNS) > len(base.DNS)/2 {
		t.Fatalf("DoT hid too little: %d vs baseline %d DNS records", len(ds.DNS), len(base.DNS))
	}
}

func TestEncryptedDNSZeroByDefault(t *testing.T) {
	ds, _ := generateSmall(t, 22)
	for i := range ds.Conns {
		if ds.Conns[i].RespPort == 853 {
			t.Fatal("DoT connection present at default config")
		}
	}
}

func TestEncryptedDNSDoHMode(t *testing.T) {
	cfg := SmallConfig(23)
	cfg.EncryptedDNSProb = 1.0
	cfg.EncryptedDNSDoH = true
	ds, eco, err := Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	resolverAddrs := make(map[string]bool)
	for _, p := range eco.Profiles {
		for _, a := range p.Addrs {
			resolverAddrs[a.String()] = true
		}
	}
	var doh, dot int
	for i := range ds.Conns {
		c := &ds.Conns[i]
		if c.RespPort == 853 {
			dot++
		}
		if c.RespPort == 443 && resolverAddrs[c.Resp.String()] {
			doh++
		}
	}
	if dot != 0 {
		t.Fatalf("DoH mode still produced %d DoT conns", dot)
	}
	if doh == 0 {
		t.Fatal("DoH mode produced no resolver-443 conns")
	}
}

func TestDiurnalWeekendBoost(t *testing.T) {
	// Day 0 = Wednesday; day 3 = Saturday. Same hour, weekend busier.
	wed := diurnal(20 * time.Hour)
	sat := diurnal(3*24*time.Hour + 20*time.Hour)
	if sat <= wed {
		t.Fatalf("Saturday evening (%v) not busier than Wednesday (%v)", sat, wed)
	}
}

func TestGenerateRejectsBadProbabilities(t *testing.T) {
	cfg := SmallConfig(1)
	cfg.PrefetchClickProb = 1.5
	if _, _, err := Generate(cfg); err == nil {
		t.Error("probability > 1 accepted")
	}
	cfg = SmallConfig(1)
	cfg.EncryptedDNSProb = -0.1
	if _, _, err := Generate(cfg); err == nil {
		t.Error("negative probability accepted")
	}
	cfg = SmallConfig(1)
	cfg.Warmup = -time.Hour
	if _, _, err := Generate(cfg); err == nil {
		t.Error("negative warmup accepted")
	}
}

// TestGenerateRefusesBadBehaviourParameters checks that configurations
// the simulation cannot run are refused with an error, not a panic or a
// hang, and that fractional session rates are honoured.
func TestGenerateRefusesBadBehaviourParameters(t *testing.T) {
	tiny := func() Config {
		cfg := SmallConfig(1)
		cfg.Houses, cfg.Duration, cfg.Warmup = 2, 30*time.Minute, 30*time.Minute
		return cfg
	}
	for _, tc := range []struct {
		name string
		set  func(*Config)
		ok   bool
	}{
		{"zero DwellMedian", func(c *Config) { c.DwellMedian = 0 }, false},
		{"negative AppPeriodMedian", func(c *Config) { c.AppPeriodMedian = -time.Minute }, false},
		{"zero ProbePeriodMedian", func(c *Config) { c.ProbePeriodMedian = 0 }, false},
		{"zero ClickDelayMedian", func(c *Config) { c.ClickDelayMedian = 0 }, false},
		{"zero ViolationHoldMedian", func(c *Config) { c.ViolationHoldMedian = 0 }, false},
		{"negative AppStartDelayMean", func(c *Config) { c.AppStartDelayMean = -time.Millisecond }, false},
		{"negative SessionsPerDay", func(c *Config) { c.SessionsPerDay = -1 }, false},
		{"NaN SessionsPerDay", func(c *Config) { c.SessionsPerDay = math.NaN() }, false},
		{"infinite SessionsPerDay", func(c *Config) { c.SessionsPerDay = math.Inf(1) }, false},
		{"zero AppStartDelayMean", func(c *Config) { c.AppStartDelayMean = 0 }, true},
		{"zero SessionsPerDay", func(c *Config) { c.SessionsPerDay = 0 }, true},
		{"fractional SessionsPerDay", func(c *Config) { c.SessionsPerDay = 0.5 }, true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			cfg := tiny()
			tc.set(&cfg)
			_, _, err := Generate(cfg)
			if tc.ok && err != nil {
				t.Fatalf("refused: %v", err)
			}
			if !tc.ok && err == nil {
				t.Fatal("accepted")
			}
		})
	}

	// A rate of 1.7 sessions a day browses more often than 1: over a day
	// the two draw different session times.
	one := tiny()
	one.Duration = 24 * time.Hour
	onePointSeven := one
	one.SessionsPerDay, onePointSeven.SessionsPerDay = 1, 1.7
	a, _, err := Generate(one)
	if err != nil {
		t.Fatal(err)
	}
	b, _, err := Generate(onePointSeven)
	if err != nil {
		t.Fatal(err)
	}
	if reflect.DeepEqual(a, b) {
		t.Fatal("SessionsPerDay 1.7 generated the same trace as 1")
	}
}

// TestGenerateAllocBudget bounds the generator's allocations per output
// record. Records go into fixed-size blocks, events into a value-typed
// heap and cache entries into index-linked slots, so what is left is
// mostly event closures and answer slices: 3.65 per record on this
// trace. A per-record or per-event allocation puts it over budget.
func TestGenerateAllocBudget(t *testing.T) {
	const budget = 4.0
	cfg := SmallConfig(1)
	var records int
	allocs := testing.AllocsPerRun(1, func() {
		ds, _, err := Generate(cfg)
		if err != nil {
			t.Fatal(err)
		}
		records = len(ds.DNS) + len(ds.Conns)
	})
	perRecord := allocs / float64(records)
	t.Logf("%.0f allocations for %d records: %.2f per record", allocs, records, perRecord)
	if perRecord > budget {
		t.Fatalf("%.2f allocations per record, budget %.1f", perRecord, budget)
	}
}
