package core

import (
	"bytes"
	"fmt"
	"hash/fnv"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"testing"
	"time"

	"dnscontext/internal/households"
	"dnscontext/internal/resolver"
	"dnscontext/internal/trace"
)

// figureFiles is every CSV ExportFigureData writes.
var figureFiles = []string{
	"table1.csv", "table2.csv", "table3.csv",
	"fig1_gap_cdf.csv",
	"fig2_delay_cdf.csv", "fig2_contribution_cdf.csv",
	"fig3_rdelay_cdf.csv", "fig3_throughput_cdf.csv",
}

// goldenFaultHashes pins the full report and every figure CSV (FNV-64a
// of the bytes) over faultGoldenTrace, captured at commit 6cf85ab, the
// last implementation that rendered each section in its own pass over
// the dataset. The trace has loss and truncation on, so the report's
// failure-adjusted section renders, and every resolver platform
// carries R lookups, so all four Figure 3 platforms render.
var goldenFaultHashes = map[PairingPolicy]map[string]uint64{
	PairMostRecent: {
		"report":                    0x455ea1a57b3b1294,
		"table1.csv":                0x77b86b0b2aaecd96,
		"table2.csv":                0x0455c182bba13ba2,
		"table3.csv":                0xaaa653f1622bfdbc,
		"fig1_gap_cdf.csv":          0xfc5c7892e441f7f2,
		"fig2_delay_cdf.csv":        0xc2e1f5b1fd88e56b,
		"fig2_contribution_cdf.csv": 0x0dd0d9712a1ba1fd,
		"fig3_rdelay_cdf.csv":       0x717940bd8b4dc0e1,
		"fig3_throughput_cdf.csv":   0xb98973ef339baa35,
	},
	PairRandom: {
		"report":                    0x76edd32646a4720b,
		"table1.csv":                0x2df4b2def8785672,
		"table2.csv":                0x140e140bf702d0bc,
		"table3.csv":                0x9b315d49beeed12d,
		"fig1_gap_cdf.csv":          0x303235afa38f96a0,
		"fig2_delay_cdf.csv":        0x7e3195c33c78df44,
		"fig2_contribution_cdf.csv": 0xa5c54ca0eb1455a0,
		"fig3_rdelay_cdf.csv":       0x1c14b892b70808a2,
		"fig3_throughput_cdf.csv":   0x5d677b8557ccdeca,
	},
}

var faultGolden struct {
	once     sync.Once
	ds       *trace.Dataset
	profiles []resolver.PlatformProfile
	err      error
}

// faultGoldenTrace is a mid-size trace with faults on: 24 houses over
// three hours (about 27k records), 2% loss, and truncation of every
// multi-answer response, with the public platforms made common enough
// that each shows up in Figure 3.
func faultGoldenTrace(t *testing.T) (*trace.Dataset, []resolver.PlatformProfile) {
	t.Helper()
	faultGolden.once.Do(func() {
		cfg := households.SmallConfig(11)
		cfg.Houses = 24
		cfg.Duration = 3 * time.Hour
		cfg.Warmup = 30 * time.Minute
		cfg.OpenDNSHouseProb = 0.4
		cfg.CloudflareHouseProb = 0.3
		cfg.Faults.Loss = 0.02
		cfg.Faults.TruncateOver = 1
		ds, eco, err := households.Generate(cfg)
		faultGolden.ds, faultGolden.err = ds, err
		if err == nil {
			faultGolden.profiles = eco.Profiles
		}
	})
	if faultGolden.err != nil {
		t.Fatal(faultGolden.err)
	}
	return faultGolden.ds, faultGolden.profiles
}

// reportAndFigureHashes renders a's report and exports its figure data,
// returning the FNV-64a of the report bytes ("report") and of each CSV.
func reportAndFigureHashes(t *testing.T, a *Analysis, profiles []resolver.PlatformProfile) map[string]uint64 {
	t.Helper()
	sum := func(b []byte) uint64 {
		h := fnv.New64a()
		h.Write(b)
		return h.Sum64()
	}
	var rep bytes.Buffer
	if err := a.Report(&rep, profiles); err != nil {
		t.Fatal(err)
	}
	out := map[string]uint64{"report": sum(rep.Bytes())}
	dir := t.TempDir()
	if err := a.ExportFigureData(dir, 200, profiles); err != nil {
		t.Fatal(err)
	}
	for _, name := range figureFiles {
		b, err := os.ReadFile(filepath.Join(dir, name))
		if err != nil {
			t.Fatal(err)
		}
		out[name] = sum(b)
	}
	return out
}

// TestReportGoldenWithFaults pins the report and figure CSV bytes over a
// faulted mid-size trace at Workers 1, 2, and 8 under both pairing
// policies. It complements TestGoldenOutputsBitIdentical, whose
// fault-free trace never renders the failure section.
func TestReportGoldenWithFaults(t *testing.T) {
	ds, profiles := faultGoldenTrace(t)
	for _, pairing := range []PairingPolicy{PairMostRecent, PairRandom} {
		want := goldenFaultHashes[pairing]
		for _, workers := range []int{1, 2, 8} {
			opts := DefaultOptions()
			opts.Pairing = pairing
			opts.SCRMinSamples = 50
			opts.Workers = workers
			got := reportAndFigureHashes(t, analyzeCopy(ds, opts), profiles)
			var diffs []string
			for name, h := range got {
				if h != want[name] {
					diffs = append(diffs, fmt.Sprintf("%q: %#016x, // want %#016x", name, h, want[name]))
				}
			}
			if len(diffs) > 0 {
				sort.Strings(diffs)
				t.Errorf("pairing=%v workers=%d: hashes differ:\n%s", pairing, workers, strings.Join(diffs, "\n"))
			}
		}
	}
}

// TestReportConcurrentRenders renders one Analysis from several
// goroutines at once, each render's fold running its own worker pool:
// every render must produce the bytes of a serial render. Under -race
// it also checks that the folds' per-worker what-if scratch and the
// lazily derived refresh inputs are never shared unsafely.
func TestReportConcurrentRenders(t *testing.T) {
	ds, profiles := faultGoldenTrace(t)
	opts := DefaultOptions()
	opts.SCRMinSamples = 50
	opts.Workers = 4
	a := analyzeCopy(ds, opts)

	// The concurrent renders come first, so the lazy refresh inputs are
	// derived under contention.
	outs := make([][]byte, 6)
	var wg sync.WaitGroup
	for g := range outs {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var b bytes.Buffer
			if err := a.Report(&b, profiles); err != nil {
				t.Error(err)
			}
			outs[g] = b.Bytes()
		}()
	}
	wg.Wait()
	var want bytes.Buffer
	if err := a.Report(&want, profiles); err != nil {
		t.Fatal(err)
	}
	for g, out := range outs {
		if !bytes.Equal(out, want.Bytes()) {
			t.Errorf("concurrent render %d differs from the serial render", g)
		}
	}
}
