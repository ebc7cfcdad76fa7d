package core

import (
	"bytes"
	"context"
	"encoding/binary"
	"errors"
	"net/netip"
	"path/filepath"
	"reflect"
	"sync/atomic"
	"testing"

	"dnscontext/internal/checkpoint"
	"dnscontext/internal/obs"
	"dnscontext/internal/trace"
)

// reportBytes renders the analysis report exactly as cmd/dnsctx would.
func reportBytes(t *testing.T, a *Analysis) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := a.Report(&buf, nil); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

func copyDataset(ds *trace.Dataset) *trace.Dataset {
	return &trace.Dataset{
		DNS:   append([]trace.DNSRecord(nil), ds.DNS...),
		Conns: append([]trace.ConnRecord(nil), ds.Conns...),
	}
}

// TestCrashResumeDeterminism is the acceptance gate for checkpoint/
// resume: kill the analysis after every snapshot, resume it, and the
// final report must be byte-identical to an uninterrupted run — at
// Workers 1 and 8.
func TestCrashResumeDeterminism(t *testing.T) {
	ds := determinismTrace(t)
	for _, workers := range []int{1, 8} {
		opts := DefaultOptions()
		opts.SCRMinSamples = 50
		opts.Workers = workers
		ref := analyzeCopy(ds, opts)
		wantReport := reportBytes(t, ref)

		path := filepath.Join(t.TempDir(), "analysis.ckpt")
		var final *Analysis
		crashes := 0
		// Interval 1 snapshots after every shard, so every shard
		// boundary is a kill point.
		for attempt := 0; attempt < 100; attempt++ {
			ctx, cancel := context.WithCancel(context.Background())
			var killed atomic.Bool
			o := opts
			o.Checkpoint = &Checkpoint{
				Path:     path,
				Interval: 1,
				Resume:   true,
				OnSnapshot: func(done int) {
					// Kill at the first new snapshot of this attempt.
					if killed.CompareAndSwap(false, true) {
						cancel()
					}
				},
			}
			a, err := AnalyzeContext(ctx, copyDataset(ds), o)
			cancel()
			if err == nil {
				final = a
				break
			}
			if !errors.Is(err, context.Canceled) {
				t.Fatalf("workers=%d attempt %d: unexpected error: %v", workers, attempt, err)
			}
			crashes++
		}
		if final == nil {
			t.Fatalf("workers=%d: analysis never completed", workers)
		}
		if crashes == 0 {
			t.Fatalf("workers=%d: no crash was ever injected; test proves nothing", workers)
		}

		if !reflect.DeepEqual(final.Paired, ref.Paired) {
			t.Fatalf("workers=%d: resumed Paired differs after %d crashes", workers, crashes)
		}
		if !reflect.DeepEqual(final.DNSUsed, ref.DNSUsed) {
			t.Fatalf("workers=%d: resumed DNSUsed differs", workers)
		}
		if got := reportBytes(t, final); !bytes.Equal(got, wantReport) {
			t.Fatalf("workers=%d: resumed report differs from uninterrupted run after %d crashes", workers, crashes)
		}
	}
}

// TestResumeAcrossWorkerCounts pins the stronger property the shard
// design buys: a checkpoint written at one worker count resumes
// bit-identically at another.
func TestResumeAcrossWorkerCounts(t *testing.T) {
	ds := determinismTrace(t)
	opts := DefaultOptions()
	opts.SCRMinSamples = 50
	opts.Workers = 1
	ref := analyzeCopy(ds, opts)

	path := filepath.Join(t.TempDir(), "analysis.ckpt")
	// Write a partial checkpoint at Workers=1.
	ctx, cancel := context.WithCancel(context.Background())
	o := opts
	o.Checkpoint = &Checkpoint{Path: path, Interval: 1, OnSnapshot: func(done int) {
		if done >= 3 {
			cancel()
		}
	}}
	if _, err := AnalyzeContext(ctx, copyDataset(ds), o); err == nil {
		t.Fatal("run was not interrupted; dataset too small for the test")
	}
	cancel()

	// Resume at Workers=8.
	o = opts
	o.Workers = 8
	o.Checkpoint = &Checkpoint{Path: path, Resume: true}
	got, err := AnalyzeContext(context.Background(), copyDataset(ds), o)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got.Paired, ref.Paired) || !reflect.DeepEqual(got.Table2(), ref.Table2()) {
		t.Fatal("checkpoint written at Workers=1 resumed wrong at Workers=8")
	}
}

// TestResumeRejectsMismatch: resuming against a different dataset or
// different options is an error, never a silent wrong answer.
func TestResumeRejectsMismatch(t *testing.T) {
	ds := determinismTrace(t)
	opts := DefaultOptions()
	opts.SCRMinSamples = 50
	path := filepath.Join(t.TempDir(), "analysis.ckpt")

	// Complete a checkpointed run so the file exists and covers all shards.
	o := opts
	o.Checkpoint = &Checkpoint{Path: path, Interval: 1}
	if _, err := AnalyzeContext(context.Background(), copyDataset(ds), o); err != nil {
		t.Fatal(err)
	}

	// Different dataset: drop one connection.
	mutated := copyDataset(ds)
	mutated.Conns = mutated.Conns[:len(mutated.Conns)-1]
	o = opts
	o.Checkpoint = &Checkpoint{Path: path, Resume: true}
	if _, err := AnalyzeContext(context.Background(), mutated, o); !errors.Is(err, ErrCheckpointMismatch) {
		t.Fatalf("mutated dataset: err = %v, want ErrCheckpointMismatch", err)
	}

	// Different options: a new seed changes the RNG streams.
	o = opts
	o.Seed = opts.Seed + 1
	o.Checkpoint = &Checkpoint{Path: path, Resume: true}
	if _, err := AnalyzeContext(context.Background(), copyDataset(ds), o); !errors.Is(err, ErrCheckpointMismatch) {
		t.Fatalf("changed seed: err = %v, want ErrCheckpointMismatch", err)
	}

	// A missing checkpoint is not an error: the run starts fresh.
	o = opts
	o.Checkpoint = &Checkpoint{Path: filepath.Join(t.TempDir(), "absent.ckpt"), Resume: true}
	a, err := AnalyzeContext(context.Background(), copyDataset(ds), o)
	if err != nil || a == nil {
		t.Fatalf("missing checkpoint: (%v, %v), want fresh run", a, err)
	}
}

// TestResumeRejectsForeignSnapshot: a snapshot whose fingerprint and
// options match but whose clients do not — one the dataset never saw,
// or one with a different number of connections — is a mismatch, and
// a file in the version-1 checkpoint format is refused by version.
func TestResumeRejectsForeignSnapshot(t *testing.T) {
	ds := determinismTrace(t)
	opts := DefaultOptions()
	opts.SCRMinSamples = 50
	ref := analyzeCopy(ds, opts)
	sh := collectCopy(t, ds, opts)
	busiest := 0
	for i := range sh.clients {
		if len(sh.clients[i].entries) > len(sh.clients[busiest].entries) {
			busiest = i
		}
	}
	forge := map[string]func(c *clientResult){
		"unknown client": func(c *clientResult) { c.client = netip.MustParseAddr("192.0.2.99") },
		"short client":   func(c *clientResult) { c.entries = c.entries[1:] },
	}
	for name, mutate := range forge {
		snap := *sh
		snap.clients = []clientResult{snap.clients[busiest]}
		mutate(&snap.clients[0])
		path := filepath.Join(t.TempDir(), "analysis.ckpt")
		payload := binary.LittleEndian.AppendUint64(nil, ref.fingerprint())
		if err := checkpoint.Save(path, ckVersion, append(payload, snap.encode()...)); err != nil {
			t.Fatal(err)
		}
		o := opts
		o.Checkpoint = &Checkpoint{Path: path, Resume: true}
		if _, err := AnalyzeContext(context.Background(), copyDataset(ds), o); !errors.Is(err, ErrCheckpointMismatch) {
			t.Errorf("%s: err = %v, want ErrCheckpointMismatch", name, err)
		}
	}

	path := filepath.Join(t.TempDir(), "analysis.ckpt")
	if err := checkpoint.Save(path, 1, []byte("version 1 payload")); err != nil {
		t.Fatal(err)
	}
	o := opts
	o.Checkpoint = &Checkpoint{Path: path, Resume: true}
	_, err := AnalyzeContext(context.Background(), copyDataset(ds), o)
	var verr *checkpoint.VersionError
	if !errors.As(err, &verr) || verr.Got != 1 {
		t.Fatalf("version-1 checkpoint: err = %v, want *checkpoint.VersionError for version 1", err)
	}
}

// TestResumeThroughStream: an unbudgeted AnalyzeSource snapshots and
// resumes as AnalyzeContext does, over a ScannerSource and a DirSource,
// and a snapshot resumes under either entry point whichever wrote it,
// since both fingerprint the same record store. Each run is killed at
// its third snapshot and resumed, and the resumed run must restore the
// snapshot's clients and reproduce the uninterrupted Digest and Paired.
func TestResumeThroughStream(t *testing.T) {
	ds, dir := tsvTrace(t)
	var dnsTSV, connTSV bytes.Buffer
	if err := trace.WriteDNS(&dnsTSV, ds.DNS); err != nil {
		t.Fatal(err)
	}
	if err := trace.WriteConns(&connTSV, ds.Conns); err != nil {
		t.Fatal(err)
	}
	opts := DefaultOptions()
	opts.SCRMinSamples = 50
	opts.Workers = 2
	ref := analyzeCopy(ds, opts)

	type run func(context.Context, Options) (*Analysis, error)
	inMemory := func(ctx context.Context, o Options) (*Analysis, error) {
		return AnalyzeContext(ctx, copyDataset(ds), o)
	}
	streams := []struct {
		name string
		run  run
	}{
		{"scanner", func(ctx context.Context, o Options) (*Analysis, error) {
			src := trace.NewScannerSource(bytes.NewReader(dnsTSV.Bytes()), bytes.NewReader(connTSV.Bytes()), trace.Strict())
			return AnalyzeSource(ctx, src, o)
		}},
		{"dir", func(ctx context.Context, o Options) (*Analysis, error) {
			return AnalyzeSource(ctx, trace.NewDirSource(dir, trace.Strict()), o)
		}},
	}
	for _, s := range streams {
		for _, c := range []struct {
			name              string
			interrupt, resume run
		}{
			{"stream resumes stream", s.run, s.run},
			{"dataset resumes stream", inMemory, s.run},
			{"stream resumes dataset", s.run, inMemory},
		} {
			label := s.name + ": " + c.name
			path := filepath.Join(t.TempDir(), "analysis.ckpt")
			ctx, cancel := context.WithCancel(context.Background())
			o := opts
			o.Checkpoint = &Checkpoint{Path: path, Interval: 1, OnSnapshot: func(done int) {
				if done >= 3 {
					cancel()
				}
			}}
			_, err := c.interrupt(ctx, o)
			cancel()
			if !errors.Is(err, context.Canceled) {
				t.Fatalf("%s: interrupted run: err = %v, want context.Canceled", label, err)
			}

			o = opts
			o.Metrics = obs.NewRegistry()
			o.Checkpoint = &Checkpoint{Path: path, Resume: true}
			got, err := c.resume(context.Background(), o)
			if err != nil {
				t.Fatalf("%s: resume: %v", label, err)
			}
			restored := o.Metrics.Counter("dnsctx_checkpoint_restored_shards_total", "").Value()
			if restored < 3 {
				t.Errorf("%s: resume restored %d clients, want the snapshot's 3 or more", label, restored)
			}
			if got.Digest() != ref.Digest() {
				t.Errorf("%s: resumed digest %016x, want %016x", label, got.Digest(), ref.Digest())
			}
			if !reflect.DeepEqual(got.Paired, ref.Paired) {
				t.Errorf("%s: resumed Paired differs", label)
			}
		}
	}
}
