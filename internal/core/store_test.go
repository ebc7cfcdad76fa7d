package core

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"net/netip"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"sort"
	"testing"
	"time"
	"unsafe"

	"dnscontext/internal/households"
	"dnscontext/internal/trace"
)

// pointerFree reports the first field path under t that holds a
// pointer, string, slice, map, interface, chan or func, or "".
func pointerFree(t reflect.Type, path string) string {
	switch t.Kind() {
	case reflect.Struct:
		for i := 0; i < t.NumField(); i++ {
			if bad := pointerFree(t.Field(i).Type, path+"."+t.Field(i).Name); bad != "" {
				return bad
			}
		}
		return ""
	case reflect.Array:
		return pointerFree(t.Elem(), path+"[]")
	case reflect.Pointer, reflect.UnsafePointer, reflect.String, reflect.Slice, reflect.Map,
		reflect.Interface, reflect.Chan, reflect.Func:
		return path + " (" + t.Kind().String() + ")"
	}
	return ""
}

// TestResidentRecordsPointerFree pins the resident layout: the record
// store's records and answers, the client shards, the shard entries and
// the per-connection results hold nothing the garbage collector has to
// scan, and the record types keep their sizes.
func TestResidentRecordsPointerFree(t *testing.T) {
	var st recordStore
	for _, typ := range []reflect.Type{
		reflect.TypeOf(st.dns).Elem(),
		reflect.TypeOf(st.answers).Elem(),
		reflect.TypeOf(st.conns).Elem(),
		reflect.TypeOf(clientShard{}),
		reflect.TypeOf(connEntry{}),
		reflect.TypeOf(PairedConn{}),
	} {
		if bad := pointerFree(typ, typ.Name()); bad != "" {
			t.Errorf("%s holds a pointer: %s", typ.Name(), bad)
		}
	}
	for _, c := range []struct {
		typ       string
		size, max uintptr
	}{
		{"dnsRec", unsafe.Sizeof(dnsRec{}), 56},
		{"answerRec", unsafe.Sizeof(answerRec{}), 16},
		{"connRec", unsafe.Sizeof(connRec{}), 48},
	} {
		if c.size > c.max {
			t.Errorf("%s is %d B, want at most %d", c.typ, c.size, c.max)
		}
	}
}

// TestCheckpointFingerprintPinned: the checkpoint fingerprint, read
// from the record store, must hash the bytes the dataset-walking
// fingerprint hashed, so snapshots written before the store still
// resume. The value is the fingerprint of determinismTrace at commit
// 0bf0f77.
func TestCheckpointFingerprintPinned(t *testing.T) {
	const want uint64 = 0xb580d10ead732b66
	a := Analyze(determinismTrace(t), DefaultOptions())
	if got := a.fingerprint(); got != want {
		t.Errorf("fingerprint %#016x, want %#016x", got, want)
	}
	src := trace.NewDatasetSource(determinismTrace(t))
	src.DS.SortByTime()
	s, err := AnalyzeSource(context.Background(), trace.NewDatasetSource(copyDataset(src.DS)), DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	if got := s.fingerprint(); got != want {
		t.Errorf("streamed fingerprint %#016x, want %#016x", got, want)
	}
}

// edgeRecordsTrace holds what generated traces lack: zoned and IPv6
// clients, an answerless lookup, and an answer section listing one
// address twice.
func edgeRecordsTrace() *trace.Dataset {
	zoned, v6 := netip.MustParseAddr("fe80::1%eth0"), netip.MustParseAddr("2001:db8::1")
	res := netip.MustParseAddr("2001:db8::53")
	return &trace.Dataset{
		DNS: []trace.DNSRecord{
			{QueryTS: time.Second, TS: time.Second + 2*time.Millisecond, Client: zoned, Resolver: res,
				ID: 1, Query: "a.example", QType: 28, Answers: []trace.Answer{{Addr: v6, TTL: time.Minute}}},
			{QueryTS: 2 * time.Second, TS: 2*time.Second + 3*time.Millisecond, Client: v6, Resolver: res,
				ID: 2, Query: "b.example", QType: 28, RCode: 3},
			{QueryTS: 3 * time.Second, TS: 3*time.Second + time.Millisecond, Client: zoned, Resolver: res,
				ID: 3, Query: "a.example", QType: 28, Retries: 1, TC: true,
				Answers: []trace.Answer{{Addr: v6, TTL: time.Minute}, {Addr: v6, TTL: 30 * time.Second}}},
		},
		Conns: []trace.ConnRecord{
			{TS: 4 * time.Second, Duration: time.Second, Proto: trace.UDP, Orig: zoned, OrigPort: 5353,
				Resp: v6, RespPort: 443, OrigBytes: 10, RespBytes: 20},
			{TS: 5 * time.Second, Orig: netip.MustParseAddr("fe80::1%eth1"), Resp: v6},
		},
	}
}

// sameRecords fails unless got holds want's records, field by field;
// an empty answer list equals a nil one.
func sameRecords(t *testing.T, label string, gotDNS []trace.DNSRecord, gotConns []trace.ConnRecord, want *trace.Dataset) {
	t.Helper()
	if len(gotDNS) != len(want.DNS) || len(gotConns) != len(want.Conns) {
		t.Fatalf("%s: %d DNS records and %d connections, want %d and %d",
			label, len(gotDNS), len(gotConns), len(want.DNS), len(want.Conns))
	}
	for i := range want.DNS {
		g, w := gotDNS[i], want.DNS[i]
		if len(g.Answers) == 0 && len(w.Answers) == 0 {
			g.Answers, w.Answers = nil, nil
		}
		if !reflect.DeepEqual(g, w) {
			t.Fatalf("%s: DNS record %d:\ngot  %+v\nwant %+v", label, i, g, w)
		}
	}
	for i := range want.Conns {
		if gotConns[i] != want.Conns[i] {
			t.Fatalf("%s: connection %d:\ngot  %+v\nwant %+v", label, i, gotConns[i], want.Conns[i])
		}
	}
}

// TestStoreRoundTrip: converting a trace into the record store and
// back must give the trace itself, from a dataset at any worker count
// and from a stream.
func TestStoreRoundTrip(t *testing.T) {
	for _, tc := range []struct {
		name string
		ds   *trace.Dataset
	}{
		{"determinism", determinismTrace(t)},
		{"faulted", faultedTrace(t)},
		{"reference-edge", referenceEdgeTrace()},
		{"edge-records", edgeRecordsTrace()},
	} {
		tc.ds.SortByTime()
		for _, workers := range []int{1, 3} {
			st, err := buildStoreChunked(context.Background(), workers, tc.ds)
			if err != nil {
				t.Fatal(err)
			}
			sameRecords(t, fmt.Sprintf("%s workers=%d", tc.name, workers), storeDNS(st), storeConns(st), tc.ds)
		}
		run := &streamRun{opts: DefaultOptions().withDefaults()}
		if err := run.ingest(context.Background(), trace.NewDatasetSource(tc.ds)); err != nil {
			t.Fatal(err)
		}
		st := run.store()
		sameRecords(t, tc.name+" streamed", storeDNS(st), storeConns(st), tc.ds)
	}
}

// tsvTrace generates a trace above buildStore's parallel floor and
// writes it, time-sorted, as four partition files of a DirSource. It
// returns the directory and the dataset as written (TSV timestamps are
// microsecond-grained).
func tsvTrace(t *testing.T) (*trace.Dataset, string) {
	t.Helper()
	cfg := households.SmallConfig(11)
	cfg.Houses = 16
	cfg.Duration = 8 * time.Hour
	cfg.Warmup = 30 * time.Minute
	ds, _, err := households.Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ds.SortByTime()
	dir := t.TempDir()
	const parts = 4
	for p := 0; p < parts; p++ {
		var dns, conns bytes.Buffer
		if err := trace.WriteDNS(&dns, ds.DNS[p*len(ds.DNS)/parts:(p+1)*len(ds.DNS)/parts]); err != nil {
			t.Fatal(err)
		}
		if err := trace.WriteConns(&conns, ds.Conns[p*len(ds.Conns)/parts:(p+1)*len(ds.Conns)/parts]); err != nil {
			t.Fatal(err)
		}
		name := filepath.Join(dir, fmt.Sprintf("part-%d", p))
		if err := os.WriteFile(name+".dns.tsv", dns.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(name+".conn.tsv", conns.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	if ds, err = readDir(dir); err != nil {
		t.Fatal(err)
	}
	if n := len(ds.DNS) + len(ds.Conns); n < minParallelStore {
		t.Fatalf("trace has %d records, below the parallel build's floor %d", n, minParallelStore)
	}
	return ds, dir
}

// readDir reads a DirSource's records into a dataset.
func readDir(dir string) (*trace.Dataset, error) {
	ds := &trace.Dataset{}
	src := trace.NewDirSource(dir, trace.Strict())
	if err := src.StreamDNS(func(d *trace.DNSRecord) error {
		rec := *d
		rec.Answers = append([]trace.Answer(nil), d.Answers...)
		ds.DNS = append(ds.DNS, rec)
		return nil
	}); err != nil {
		return nil, err
	}
	err := src.StreamConns(func(c *trace.ConnRecord) error { ds.Conns = append(ds.Conns, *c); return nil })
	return ds, err
}

// TestStoreSameFromDatasetAndStream: the record store Analyze builds
// from a dataset, in parallel chunks at Workers 2 and 8 or serially at
// 1, must equal the one AnalyzeSource builds as the same trace streams
// in from TSV, records and numbering alike.
func TestStoreSameFromDatasetAndStream(t *testing.T) {
	ds, dir := tsvTrace(t)
	opts := DefaultOptions()
	opts.Workers = 2
	streamed, err := AnalyzeSource(context.Background(), trace.NewDirSource(dir, trace.Strict()), opts)
	if err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{1, 2, 8} {
		opts.Workers = workers
		a := analyzeCopy(ds, opts)
		checkStoresEqual(t, fmt.Sprintf("workers=%d", workers), a.st, streamed.st)
		if a.Digest() != streamed.Digest() {
			t.Errorf("workers=%d: digest %#016x, streamed %#016x", workers, a.Digest(), streamed.Digest())
		}
	}
}

// TestAnalyzeSourceBytesPerRecord gates what an unbudgeted AnalyzeSource
// allocates over a partitioned TSV trace at Workers 2: each record is
// parsed into a trace record and converted once into the record store,
// so the pass allocates about 430 B a record (the parse arena, the
// retention blocks and their one flatten, and the classification).
// Retaining the trace records themselves, copied three times, takes
// over 750 B, which the budget fails. The trace's four partitions must
// cost no more than the same trace read as one stream, give or take
// the noise: the stream's chunk buffers and record slices serve all its
// files, where a fresh 1 MiB buffer for each file's last chunk cost
// about 30 B a record more. A run's bytes move in steps of 10–15 B a
// record with how many record slices and parse states it needs, which
// depends on how far the parsers get ahead of the merge, so the test
// compares the medians of six interleaved runs of each.
func TestAnalyzeSourceBytesPerRecord(t *testing.T) {
	const budget, partitionSlack, runs = 600, 20, 6
	ds, dir := tsvTrace(t)
	whole := t.TempDir()
	for name, write := range map[string]func(io.Writer) error{
		"all.dns.tsv":  func(w io.Writer) error { return trace.WriteDNS(w, ds.DNS) },
		"all.conn.tsv": func(w io.Writer) error { return trace.WriteConns(w, ds.Conns) },
	} {
		var buf bytes.Buffer
		if err := write(&buf); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(whole, name), buf.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	opts := DefaultOptions()
	opts.Workers = 2
	perRecord := func(dir string) float64 {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		if _, err := AnalyzeSource(context.Background(), trace.NewDirSource(dir, trace.Strict()), opts); err != nil {
			t.Fatal(err)
		}
		runtime.ReadMemStats(&after)
		return float64(after.TotalAlloc-before.TotalAlloc) / float64(len(ds.DNS)+len(ds.Conns))
	}
	perRecord(dir) // warm the runtime's caches
	var parts, one []float64
	for i := 0; i < runs; i++ {
		parts = append(parts, perRecord(dir))
		one = append(one, perRecord(whole))
	}
	median := func(xs []float64) float64 {
		sort.Float64s(xs)
		return (xs[len(xs)/2-1] + xs[len(xs)/2]) / 2
	}
	p, o := median(parts), median(one)
	t.Logf("AnalyzeSource: %.1f B/record over four partitions, %.1f as one stream (medians of %d)", p, o, runs)
	if p > budget {
		t.Fatalf("AnalyzeSource allocates %.0f B a record; budget is %d", p, budget)
	}
	if p > o+partitionSlack {
		t.Fatalf("AnalyzeSource allocates %.0f B a record over four partitions, %.0f over the same trace as one stream; slack is %d",
			p, o, partitionSlack)
	}
}
