package core

import (
	"bytes"
	"context"
	"encoding/binary"
	"hash/fnv"
	"testing"
	"time"

	"dnscontext/internal/households"
	"dnscontext/internal/resolver"
	"dnscontext/internal/trace"
)

// Golden output hashes over determinismTrace with SCRMinSamples=50. The
// report and Paired hashes were captured from the pre-interning
// implementation (commit 7dfd5b9); they pin the bar every optimization
// since has met — same report bytes and same Paired encoding at every
// worker count, under both pairing policies. If an optimization changes
// either hash, it changed the science, not just the speed.
//
// The checkpoint hash pins the bytes a snapshot stores after its
// fingerprint: the encoding of the AnalysisShard the run classified its
// clients into. It moved when checkpoints switched from per-shard blobs
// of final classes to that shard format (checkpoint version 2); the new
// values equal the FNV-64a of the previous implementation's own
// Analysis.Shard().encode() with its failure tally zeroed, captured at
// commit cc425d1, so the shard itself is unchanged.
var goldenHashes = map[PairingPolicy]struct{ report, paired, checkpoint uint64 }{
	PairMostRecent: {report: 0xd547402905b13212, paired: 0xdb8e66a726e9471d, checkpoint: 0x386211016ce0997f},
	PairRandom:     {report: 0x2be6a45431a019c1, paired: 0xe73357fb6dcd5241, checkpoint: 0x03444a3d07d1e892},
}

// collectCopy returns the shard an in-memory run over a private copy of
// ds classifies its clients into, as CollectShard returns it.
func collectCopy(t *testing.T, ds *trace.Dataset, opts Options) *AnalysisShard {
	t.Helper()
	sh, err := CollectShard(context.Background(), trace.NewDatasetSource(&trace.Dataset{
		DNS:   append([]trace.DNSRecord(nil), ds.DNS...),
		Conns: append([]trace.ConnRecord(nil), ds.Conns...),
	}), opts)
	if err != nil {
		t.Fatal(err)
	}
	return sh
}

// hashAnalysis reduces an Analysis and the shard its run classified its
// clients into (which the Analysis does not keep; see collectCopy) to
// three FNV-64a fingerprints: the full text report, the Paired slice
// (field by field, fixed-width), and the encoding of the shard as a
// checkpoint stores it, without the failure tally CollectShard adds.
func hashAnalysis(t *testing.T, a *Analysis, sh *AnalysisShard, profiles []resolver.PlatformProfile) (report, paired, checkpoint uint64) {
	t.Helper()
	var rep bytes.Buffer
	if err := a.Report(&rep, profiles); err != nil {
		t.Fatal(err)
	}
	hr := fnv.New64a()
	hr.Write(rep.Bytes())

	hp := fnv.New64a()
	for i := range a.Paired {
		pc := &a.Paired[i]
		binary.Write(hp, binary.LittleEndian, int64(pc.Conn))
		binary.Write(hp, binary.LittleEndian, int64(pc.DNS))
		binary.Write(hp, binary.LittleEndian, int64(pc.Gap))
		binary.Write(hp, binary.LittleEndian, uint8(pc.Class))
		binary.Write(hp, binary.LittleEndian, pc.FirstUse)
		binary.Write(hp, binary.LittleEndian, pc.UsedExpired)
		binary.Write(hp, binary.LittleEndian, int64(pc.Candidates))
	}

	snap := *sh
	snap.failures = FailureStats{}
	hc := fnv.New64a()
	hc.Write(snap.encode())
	return hr.Sum64(), hp.Sum64(), hc.Sum64()
}

// TestGoldenOutputsBitIdentical is the bit-identical output invariant:
// reports, pairings, and checkpoint bytes must match the seed
// implementation's hashes at Workers 1, 2, and 8, for both pairing
// policies.
func TestGoldenOutputsBitIdentical(t *testing.T) {
	cfg := households.SmallConfig(7)
	cfg.Houses = 8
	cfg.Duration = time.Hour
	cfg.Warmup = 30 * time.Minute
	ds, eco, err := households.Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for pairing, want := range goldenHashes {
		for _, workers := range []int{1, 2, 8} {
			opts := DefaultOptions()
			opts.Pairing = pairing
			opts.SCRMinSamples = 50
			opts.Workers = workers
			a := analyzeCopy(ds, opts)
			report, paired, checkpoint := hashAnalysis(t, a, collectCopy(t, ds, opts), eco.Profiles)
			if report != want.report {
				t.Errorf("pairing=%v workers=%d: report hash %#016x, want %#016x",
					pairing, workers, report, want.report)
			}
			if paired != want.paired {
				t.Errorf("pairing=%v workers=%d: Paired hash %#016x, want %#016x",
					pairing, workers, paired, want.paired)
			}
			if checkpoint != want.checkpoint {
				t.Errorf("pairing=%v workers=%d: checkpoint hash %#016x, want %#016x",
					pairing, workers, checkpoint, want.checkpoint)
			}
		}
	}
}
