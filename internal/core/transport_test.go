package core

import (
	"context"
	"fmt"
	"hash/fnv"
	"strings"
	"testing"
	"time"

	"dnscontext/internal/households"
	"dnscontext/internal/trace"
)

// goldenConfig is the exact generation the golden hashes were captured
// over (see golden_test.go).
func goldenConfig() households.Config {
	cfg := households.SmallConfig(7)
	cfg.Houses = 8
	cfg.Duration = time.Hour
	cfg.Warmup = 30 * time.Minute
	return cfg
}

// TestExplicitUDPTransportMatchesGolden is the transport-refactor parity
// gate: spelling the default transport out loud (Transport.Kind="udp")
// must thread through generator validation and profile overlay without
// touching a single RNG draw — the golden hashes of the zero-config run
// must reproduce bit for bit.
func TestExplicitUDPTransportMatchesGolden(t *testing.T) {
	cfg := goldenConfig()
	cfg.Transport.Kind = "udp"
	ds, eco, err := households.Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for pairing, want := range goldenHashes {
		for _, workers := range []int{1, 8} {
			opts := DefaultOptions()
			opts.Pairing = pairing
			opts.SCRMinSamples = 50
			opts.Workers = workers
			a := analyzeCopy(ds, opts)
			report, paired, checkpoint := hashAnalysis(t, a, collectCopy(t, ds, opts), eco.Profiles)
			if report != want.report || paired != want.paired || checkpoint != want.checkpoint {
				t.Errorf("pairing=%v workers=%d: explicit udp transport broke golden parity: %#016x/%#016x/%#016x",
					pairing, workers, report, paired, checkpoint)
			}
		}
	}
}

// TestTransportMatrixDigestParity is the transport-matrix determinism
// gate: for every transport, with nonzero faults in play, analysis of
// the generated trace must be bit-identical at Workers 1, 2, and 8.
// (Generation itself is single-threaded and seeded; what this pins is
// that nothing about stream-transport traces breaks the sharded
// pipeline's worker-count invariance.)
func TestTransportMatrixDigestParity(t *testing.T) {
	cells := []struct {
		kind   string
		resume bool
	}{
		{"udp", false},
		{"tcp", false},
		{"dot", true},
		{"doh", false},
	}
	for _, cell := range cells {
		cfg := goldenConfig()
		cfg.Faults.Loss = 0.01
		cfg.Transport.Kind = cell.kind
		cfg.Transport.SessionResumption = cell.resume
		ds, eco, err := households.Generate(cfg)
		if err != nil {
			t.Fatal(err)
		}
		var base [3]uint64
		for i, workers := range []int{1, 2, 8} {
			opts := DefaultOptions()
			opts.SCRMinSamples = 50
			opts.Workers = workers
			a := analyzeCopy(ds, opts)
			report, paired, checkpoint := hashAnalysis(t, a, collectCopy(t, ds, opts), eco.Profiles)
			if i == 0 {
				base = [3]uint64{report, paired, checkpoint}
				continue
			}
			if base != [3]uint64{report, paired, checkpoint} {
				t.Errorf("transport=%s resume=%v workers=%d: digests diverged from workers=1",
					cell.kind, cell.resume, workers)
			}
		}
	}
}

// TestTransportWhatIfDeltas pins the what-if acceptance shape: the Do53
// baseline row carries zero delta, every stream row carries a positive
// handshake-attributable delta, and enabling session resumption strictly
// shrinks the DoT and DoH deltas.
func TestTransportWhatIfDeltas(t *testing.T) {
	cfg := goldenConfig()
	ds, eco, err := households.Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	opts := DefaultOptions()
	opts.SCRMinSamples = 50
	a := Analyze(ds, opts)

	rows := a.TransportWhatIf(eco.Profiles, DefaultTransportScenarios())
	if rows == nil {
		t.Fatal("TransportWhatIf returned nil on a full-grade analysis")
	}
	byName := make(map[string]TransportRow, len(rows))
	for _, r := range rows {
		byName[r.Scenario.String()] = r
	}
	if d := byName["Do53"].MeanLookupDelta; d != 0 {
		t.Errorf("Do53 baseline delta %v, want 0", d)
	}
	for _, name := range []string{"DoTCP", "DoT", "DoT+resume", "DoH", "DoH+resume"} {
		r, ok := byName[name]
		if !ok {
			t.Fatalf("missing scenario %q", name)
		}
		if r.MeanLookupDelta <= 0 {
			t.Errorf("%s: mean lookup delta %v, want > 0", name, r.MeanLookupDelta)
		}
		if r.HandshakeTotal <= 0 {
			t.Errorf("%s: handshake total %v, want > 0", name, r.HandshakeTotal)
		}
	}
	if byName["DoT+resume"].MeanLookupDelta >= byName["DoT"].MeanLookupDelta {
		t.Errorf("resumption did not shrink the DoT delta: %v vs %v",
			byName["DoT+resume"].MeanLookupDelta, byName["DoT"].MeanLookupDelta)
	}
	if byName["DoH+resume"].MeanLookupDelta >= byName["DoH"].MeanLookupDelta {
		t.Errorf("resumption did not shrink the DoH delta: %v vs %v",
			byName["DoH+resume"].MeanLookupDelta, byName["DoH"].MeanLookupDelta)
	}
	// DoH pays everything DoT pays plus per-query HTTP overhead.
	if byName["DoH"].MeanLookupDelta <= byName["DoT"].MeanLookupDelta {
		t.Errorf("DoH delta %v not above DoT delta %v",
			byName["DoH"].MeanLookupDelta, byName["DoT"].MeanLookupDelta)
	}

	var sb strings.Builder
	if err := WriteTransportTable(&sb, rows, a.Opts.BlockThreshold); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"Do53", "DoTCP", "DoT+resume", "DoH+resume"} {
		if !strings.Contains(sb.String(), want) {
			t.Errorf("rendered table missing %q:\n%s", want, sb.String())
		}
	}
}

// TestTransportWhatIfNeedsFullGrade: a summary-grade analysis (reduced
// under a memory budget) has no raw records to replay, so the what-if
// must decline rather than fabricate deltas.
func TestTransportWhatIfNeedsFullGrade(t *testing.T) {
	cfg := goldenConfig()
	ds, eco, err := households.Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	src := trace.NewDatasetSource(ds)
	src.DS.SortByTime()
	a, err := AnalyzeSource(context.Background(), src, forceSpillOpts(DefaultOptions()))
	if err != nil {
		t.Fatal(err)
	}
	if !a.Summary() {
		t.Fatal("forced-spill run returned a full analysis")
	}
	if rows := a.TransportWhatIf(eco.Profiles, DefaultTransportScenarios()); rows != nil {
		t.Fatal("summary-grade analysis returned what-if rows")
	}
}

// goldenTransportHashes pins TransportWhatIf's rows (FNV-64a of every
// field of every default-scenario row, formatted with %+v) over
// faultGoldenTrace, captured at commit a02e9ea, the last implementation
// that priced each scenario in its own pass over the client shards.
var goldenTransportHashes = map[PairingPolicy]uint64{
	PairMostRecent: 0x077dd2dadd01716f,
	PairRandom:     0xb0600e2ba7d07e24,
}

// TestTransportWhatIfGolden pins the transport what-if rows over a
// faulted trace at Workers 1, 2, and 8 under both pairing policies:
// TestTransportWhatIfDeltas checks only their shape.
func TestTransportWhatIfGolden(t *testing.T) {
	ds, profiles := faultGoldenTrace(t)
	for _, pairing := range []PairingPolicy{PairMostRecent, PairRandom} {
		for _, workers := range []int{1, 2, 8} {
			opts := DefaultOptions()
			opts.Pairing = pairing
			opts.SCRMinSamples = 50
			opts.Workers = workers
			h := fnv.New64a()
			for _, r := range analyzeCopy(ds, opts).TransportWhatIf(profiles, DefaultTransportScenarios()) {
				fmt.Fprintf(h, "%+v\n", r)
			}
			if got := h.Sum64(); got != goldenTransportHashes[pairing] {
				t.Errorf("pairing=%v workers=%d: rows hash %#016x, want %#016x",
					pairing, workers, got, goldenTransportHashes[pairing])
			}
		}
	}
}
