package dnscontext_test

// Tests for the Analyzer API: functional options, worker-count
// determinism through the public facade, checkpoint handling, and
// context cancellation.

import (
	"context"
	"errors"
	"path/filepath"
	"reflect"
	"testing"
	"time"

	"dnscontext"
)

func generateTiny(t *testing.T, seed uint64) *dnscontext.Dataset {
	t.Helper()
	ds, _, err := dnscontext.Generate(tinyConfig(seed))
	if err != nil {
		t.Fatal(err)
	}
	return ds
}

func TestAnalyzerOptionsApply(t *testing.T) {
	an := dnscontext.NewAnalyzer(
		dnscontext.WithBlockThreshold(42*time.Millisecond),
		dnscontext.WithSCRMinSamples(123),
		dnscontext.WithWorkers(3),
	)
	got := an.Analyze(generateTiny(t, 11)).Opts
	want := dnscontext.DefaultOptions()
	want.BlockThreshold = 42 * time.Millisecond
	want.SCRMinSamples = 123
	want.Workers = 3
	if got != want {
		t.Fatalf("Analysis.Opts = %+v, want %+v", got, want)
	}

	// WithOptions seeds the whole struct, fields without an option of
	// their own included; later options still win.
	want.KneeThreshold = 7 * time.Millisecond
	want.DefaultSCThreshold = 9 * time.Millisecond
	want.Pairing = dnscontext.PairRandom
	want.Seed = 99
	want.InsignificantAbs = 30 * time.Millisecond
	want.InsignificantRel = 0.02
	an = dnscontext.NewAnalyzer(dnscontext.WithOptions(want), dnscontext.WithWorkers(5))
	got = an.Analyze(generateTiny(t, 11)).Opts
	want.Workers = 5
	if got != want {
		t.Fatalf("WithOptions composition broken: Analysis.Opts = %+v, want %+v", got, want)
	}
}

// TestAnalyzeIgnoresCheckpoint: Analyze has no error to return, so it
// runs without the options' checkpoint rather than fail on one that
// does not match the run or cannot be written. AnalyzeContext is the
// checkpointed entry point and returns those errors.
func TestAnalyzeIgnoresCheckpoint(t *testing.T) {
	want := dnscontext.NewAnalyzer().Analyze(generateTiny(t, 11)).Digest()

	// A snapshot of another trace, written after every client.
	stale := filepath.Join(t.TempDir(), "other.ckpt")
	opts := dnscontext.DefaultOptions()
	opts.Checkpoint = &dnscontext.AnalysisCheckpoint{Path: stale, Interval: 1}
	_, err := dnscontext.NewAnalyzer(dnscontext.WithOptions(opts)).
		AnalyzeContext(context.Background(), generateTiny(t, 12))
	if err != nil {
		t.Fatal(err)
	}

	for _, c := range []struct {
		name string
		ck   *dnscontext.AnalysisCheckpoint
	}{
		{"mismatched", &dnscontext.AnalysisCheckpoint{Path: stale, Resume: true}},
		{"unwritable", &dnscontext.AnalysisCheckpoint{
			Path: filepath.Join(t.TempDir(), "missing", "run.ckpt"), Interval: 1}},
	} {
		opts.Checkpoint = c.ck
		got := dnscontext.NewAnalyzer(dnscontext.WithOptions(opts)).Analyze(generateTiny(t, 11)).Digest()
		if got != want {
			t.Errorf("%s checkpoint: Analyze digest %#016x, want %#016x", c.name, got, want)
		}
	}

	opts.Checkpoint = &dnscontext.AnalysisCheckpoint{Path: stale, Resume: true}
	_, err = dnscontext.NewAnalyzer(dnscontext.WithOptions(opts)).
		AnalyzeContext(context.Background(), generateTiny(t, 11))
	if !errors.Is(err, dnscontext.ErrCheckpointMismatch) {
		t.Fatalf("AnalyzeContext with a mismatched checkpoint: err = %v, want ErrCheckpointMismatch", err)
	}
}

// TestAnalyzerWorkerDeterminism is the public half of the ISSUE's
// determinism gate: identical Paired, Thresholds, and Table 2 fractions
// for workers 1, 2 and 8 on the same SmallGeneratorConfig trace.
func TestAnalyzerWorkerDeterminism(t *testing.T) {
	ref := dnscontext.NewAnalyzer(dnscontext.WithWorkers(1)).Analyze(generateTiny(t, 4))
	for _, workers := range []int{2, 8} {
		got := dnscontext.NewAnalyzer(dnscontext.WithWorkers(workers)).Analyze(generateTiny(t, 4))
		if !reflect.DeepEqual(got.Paired, ref.Paired) {
			t.Fatalf("workers=%d: Paired differs", workers)
		}
		if !reflect.DeepEqual(got.Thresholds, ref.Thresholds) {
			t.Fatalf("workers=%d: Thresholds differ", workers)
		}
		if !reflect.DeepEqual(got.Table2(), ref.Table2()) {
			t.Fatalf("workers=%d: Table 2 differs", workers)
		}
	}
}

func TestAnalyzerContextCancellation(t *testing.T) {
	ds := generateTiny(t, 12)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	a, err := dnscontext.NewAnalyzer().AnalyzeContext(ctx, ds)
	if a != nil || !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled AnalyzeContext = (%v, %v), want (nil, context.Canceled)", a, err)
	}

	a, err = dnscontext.NewAnalyzer().AnalyzeContext(context.Background(), ds)
	if err != nil || a == nil {
		t.Fatalf("AnalyzeContext = (%v, %v)", a, err)
	}
}
