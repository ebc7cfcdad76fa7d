package core

import (
	"bytes"
	"context"
	"encoding/binary"
	"errors"
	"math/rand"
	"path/filepath"
	"testing"
	"time"

	"dnscontext/internal/trace"
)

// collectShards splits the determinism trace into n client-disjoint
// slices and collects one shard per slice.
func collectShards(t *testing.T, n int, opts Options) []*AnalysisShard {
	t.Helper()
	ds := determinismTrace(t)
	shards := make([]*AnalysisShard, n)
	for i, part := range splitByClient(ds, n) {
		part.SortByTime()
		sh, err := CollectShard(context.Background(), trace.NewDatasetSource(part), opts)
		if err != nil {
			t.Fatal(err)
		}
		shards[i] = sh
	}
	return shards
}

// TestMergeAssociativeCommutative is the satellite property test: any
// grouping and any ordering of the same shards must merge to the same
// state — checked through the canonical encoding, which is independent
// of merge order by construction, and through the finalized digest.
func TestMergeAssociativeCommutative(t *testing.T) {
	opts := DefaultOptions()
	opts.SCRMinSamples = 50
	shards := collectShards(t, 5, opts)

	left, err := MergeShards(shards...)
	if err != nil {
		t.Fatal(err)
	}
	wantBytes := left.encode()
	wantDigest := left.Finalize().Digest()

	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 20; trial++ {
		perm := rng.Perm(len(shards))
		// Fold in a random tree shape: repeatedly merge two random
		// elements of the worklist until one remains.
		work := make([]*AnalysisShard, len(shards))
		for i, p := range perm {
			work[i] = shards[p]
		}
		for len(work) > 1 {
			i := rng.Intn(len(work) - 1)
			m, err := work[i].Merge(work[i+1])
			if err != nil {
				t.Fatalf("trial %d: %v", trial, err)
			}
			work = append(work[:i], append([]*AnalysisShard{m}, work[i+2:]...)...)
		}
		if got := work[0].encode(); !bytes.Equal(got, wantBytes) {
			t.Fatalf("trial %d: merged shard encoding differs from reference grouping", trial)
		}
		if got := work[0].Finalize().Digest(); got != wantDigest {
			t.Fatalf("trial %d: merged digest %#016x, want %#016x", trial, got, wantDigest)
		}
	}
}

// TestMergeLeavesInputsUnchanged checks Merge is a pure fold: the
// operands' encodings are byte-identical before and after.
func TestMergeLeavesInputsUnchanged(t *testing.T) {
	opts := DefaultOptions()
	opts.SCRMinSamples = 50
	shards := collectShards(t, 2, opts)
	before0, before1 := shards[0].encode(), shards[1].encode()
	if _, err := shards[0].Merge(shards[1]); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(shards[0].encode(), before0) || !bytes.Equal(shards[1].encode(), before1) {
		t.Error("Merge mutated an input shard")
	}
}

// TestMergeRejectsMismatchedOptions checks shards produced under
// different result-affecting options refuse to merge.
func TestMergeRejectsMismatchedOptions(t *testing.T) {
	opts := DefaultOptions()
	opts.SCRMinSamples = 50
	a := collectShards(t, 2, opts)
	opts.Seed = 99
	b := collectShards(t, 2, opts)
	if _, err := a[0].Merge(b[1]); !errors.Is(err, ErrShardMismatch) {
		t.Fatalf("mismatched options merged: err=%v", err)
	}
}

// TestMergeRejectsOverlappingClients checks the client-disjointness
// requirement: merging a shard with itself must fail.
func TestMergeRejectsOverlappingClients(t *testing.T) {
	opts := DefaultOptions()
	opts.SCRMinSamples = 50
	shards := collectShards(t, 2, opts)
	if _, err := shards[0].Merge(shards[0]); !errors.Is(err, ErrShardMismatch) {
		t.Fatalf("overlapping clients merged: err=%v", err)
	}
}

// TestShardFileRoundTrip checks WriteShardFile/ReadShardFile preserve
// the shard exactly (canonical bytes and finalized digest) and that the
// loader rejects corrupt payloads.
func TestShardFileRoundTrip(t *testing.T) {
	opts := DefaultOptions()
	opts.SCRMinSamples = 50
	shards := collectShards(t, 2, opts)
	merged, err := MergeShards(shards...)
	if err != nil {
		t.Fatal(err)
	}
	for i, sh := range append(shards, merged) {
		path := filepath.Join(t.TempDir(), "shard.bin")
		if err := WriteShardFile(path, sh); err != nil {
			t.Fatalf("shard %d: %v", i, err)
		}
		got, err := ReadShardFile(path)
		if err != nil {
			t.Fatalf("shard %d: %v", i, err)
		}
		if !bytes.Equal(got.encode(), sh.encode()) {
			t.Errorf("shard %d: round-trip changed the canonical encoding", i)
		}
		if got.Finalize().Digest() != sh.Finalize().Digest() {
			t.Errorf("shard %d: round-trip changed the finalized digest", i)
		}
	}
}

// TestShardDecodeRejectsTruncation checks every truncation point of a
// serialized shard fails decoding instead of yielding a partial shard.
func TestShardDecodeRejectsTruncation(t *testing.T) {
	opts := DefaultOptions()
	opts.SCRMinSamples = 50
	sh := collectShards(t, 1, opts)[0]
	payload := sh.encode()
	if _, err := decodeShardPayload(payload); err != nil {
		t.Fatal(err)
	}
	for cut := 0; cut < len(payload); cut += 1 + len(payload)/97 {
		if _, err := decodeShardPayload(payload[:cut]); err == nil {
			t.Fatalf("truncation at %d/%d bytes decoded successfully", cut, len(payload))
		}
	}
	if _, err := decodeShardPayload(append(payload, 0)); err == nil {
		t.Fatal("trailing byte accepted")
	}
}

// TestShardEncodingCanonical checks shards merged in different orders
// serialize to identical bytes — the property that makes shard files
// content-addressable regardless of collector scheduling.
func TestShardEncodingCanonical(t *testing.T) {
	opts := DefaultOptions()
	opts.SCRMinSamples = 50
	shards := collectShards(t, 3, opts)
	ab, err := shards[0].Merge(shards[1])
	if err != nil {
		t.Fatal(err)
	}
	abc, err := ab.Merge(shards[2])
	if err != nil {
		t.Fatal(err)
	}
	cb, err := shards[2].Merge(shards[1])
	if err != nil {
		t.Fatal(err)
	}
	cba, err := cb.Merge(shards[0])
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(abc.encode(), cba.encode()) {
		t.Error("merge order changed the canonical encoding")
	}
}

// smallShard is a hand-built shard: one IPv4 resolver and two clients,
// the first with a paired and an unpaired connection.
func smallShard() *AnalysisShard {
	return &AnalysisShard{
		opts:      DefaultOptions().withDefaults(),
		dnsTotal:  3,
		connTotal: 2,
		resolvers: []resolverStat{{addr: resLoc, lookups: 3, minDur: 3 * time.Millisecond}},
		clients: []clientResult{
			{client: houseA, nDNS: 2, entries: []connEntry{
				{localDNS: 1, gap: 5 * time.Millisecond, candidates: 1, firstUse: true, lookupDur: 4 * time.Millisecond, res: 0},
				{localDNS: -1, res: -1},
			}},
			{client: houseB, nDNS: 1},
		},
	}
}

// Offsets into smallShard's encoding: options, totals and failures take
// 113 bytes, then the resolver count, one 21-byte IPv4 resolver, the
// client count, and the first client's 5-byte address and lookup count
// before its entry count.
const (
	smallConnTotalOff = 8 + 8 + 8 + 8 + 1 + 8 + 8 + 8 + 8
	smallResCountOff  = smallConnTotalOff + 8 + 5*8
	smallClientsOff   = smallResCountOff + 4 + 21
	smallEntriesOff   = smallClientsOff + 4 + 5 + 4
)

// TestShardDecodeBoundsCounts: a count the payload's remaining bytes
// cannot hold fails decoding instead of sizing an allocation (a 117-byte
// payload claiming 2^32-1 resolvers used to exhaust memory).
func TestShardDecodeBoundsCounts(t *testing.T) {
	put32 := func(b []byte, off int, v uint32) []byte {
		b = append([]byte(nil), b...)
		binary.LittleEndian.PutUint32(b[off:], v)
		return b
	}
	payload := smallShard().encode()
	if _, err := decodeShardPayload(payload); err != nil {
		t.Fatal(err)
	}
	huge := put32(put32(payload, smallConnTotalOff, 0xffffffff), smallConnTotalOff+4, 0x7fffffff)
	cases := map[string][]byte{
		"resolvers": put32(payload, smallResCountOff, 0xffffffff)[:smallResCountOff+4],
		"clients":   put32(payload, smallClientsOff, 0xffffffff)[:smallClientsOff+4],
		"entries":   put32(huge, smallEntriesOff, 0x7fffffff)[:smallEntriesOff+4],
	}
	for name, b := range cases {
		if _, err := decodeShardPayload(b); err == nil {
			t.Errorf("%s: a count beyond the payload decoded", name)
		}
	}
}

// TestShardDecodeRejectsBadEntries: every entry the decoder accepts
// must finalize and re-encode safely, so a paired entry naming a
// resolver or lookup outside its tables, and a client listed twice,
// are errors.
func TestShardDecodeRejectsBadEntries(t *testing.T) {
	cases := map[string]func(s *AnalysisShard){
		"resolver symbol -1":  func(s *AnalysisShard) { s.clients[0].entries[0].res = -1 },
		"lookup 2 of 2":       func(s *AnalysisShard) { s.clients[0].entries[0].localDNS = 2 },
		"lookup -2":           func(s *AnalysisShard) { s.clients[0].entries[0].localDNS = -2 },
		"client listed twice": func(s *AnalysisShard) { s.clients[1].client = s.clients[0].client },
	}
	for name, mutate := range cases {
		s := smallShard()
		mutate(s)
		if _, err := decodeShardPayload(s.encode()); err == nil {
			t.Errorf("%s: decoded", name)
		}
	}
}

// FuzzShardPayload: decoding arbitrary bytes never panics, a decoded
// shard finalizes, and re-encoding is stable: the encoding of a decoded
// encoding is the encoding itself.
func FuzzShardPayload(f *testing.F) {
	opts := DefaultOptions()
	opts.SCRMinSamples = 50
	real, err := CollectShard(context.Background(), trace.NewDatasetSource(referenceEdgeTrace()), opts)
	if err != nil {
		f.Fatal(err)
	}
	f.Add(real.encode())
	f.Add(smallShard().encode())
	zoned, err := CollectShard(context.Background(), trace.NewDatasetSource(zonedTrace()), opts)
	if err != nil {
		f.Fatal(err)
	}
	f.Add(zoned.encode())
	f.Fuzz(func(t *testing.T, b []byte) {
		s, err := decodeShardPayload(b)
		if err != nil {
			return
		}
		s.Finalize()
		enc := s.encode()
		again, err := decodeShardPayload(enc)
		if err != nil {
			t.Fatalf("decoding an encoding failed: %v", err)
		}
		if !bytes.Equal(again.encode(), enc) {
			t.Fatal("re-encoding a decoded encoding changed its bytes")
		}
	})
}
