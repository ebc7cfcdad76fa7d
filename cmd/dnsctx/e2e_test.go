package main

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"dnscontext"
	"dnscontext/internal/trace"
)

// mainEnv makes the test binary run main instead of the tests, so the
// end-to-end tests drive the command itself: its flag checks, its exit
// codes and its output.
const mainEnv = "DNSCTX_TEST_RUN_MAIN"

func TestMain(m *testing.M) {
	if os.Getenv(mainEnv) != "" {
		main()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

type runResult struct {
	stdout, stderr string
	code           int
}

// dnsctx runs the command with args at the given GOMAXPROCS.
func dnsctx(t *testing.T, procs int, args ...string) runResult {
	t.Helper()
	cmd := exec.Command(os.Args[0], args...)
	cmd.Env = append(os.Environ(), mainEnv+"=1", fmt.Sprintf("GOMAXPROCS=%d", procs))
	var stdout, stderr bytes.Buffer
	cmd.Stdout, cmd.Stderr = &stdout, &stderr
	err := cmd.Run()
	var exit *exec.ExitError
	if err != nil && !errors.As(err, &exit) {
		t.Fatalf("dnsctx %q: %v", args, err)
	}
	return runResult{stdout.String(), stderr.String(), cmd.ProcessState.ExitCode()}
}

// mustRun runs dnsctx and fails the test unless it exits 0.
func mustRun(t *testing.T, procs int, args ...string) runResult {
	t.Helper()
	r := dnsctx(t, procs, args...)
	if r.code != 0 {
		t.Fatalf("dnsctx %q exited %d:\n%s", args, r.code, r.stderr)
	}
	return r
}

// e2eTrace is one small time-ordered trace written three ways: a TSV
// pair, a directory of four part-N partitions, and a JSON pair.
type e2eTrace struct {
	dns, conns         string
	partDir            string
	dnsJSON, connsJSON string
	ds                 *trace.Dataset // as read back from the TSV pair
}

func writeE2ETrace(t *testing.T) e2eTrace {
	t.Helper()
	cfg := dnscontext.DefaultGeneratorConfig()
	cfg.Houses = 6
	cfg.Duration = 2 * time.Hour
	cfg.Warmup = 30 * time.Minute
	cfg.Seed = 5
	gen, _, err := dnscontext.Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	gen.SortByTime()
	dir := t.TempDir()
	tr := e2eTrace{
		dns:       filepath.Join(dir, "dns.tsv"),
		conns:     filepath.Join(dir, "conn.tsv"),
		partDir:   filepath.Join(dir, "parts"),
		dnsJSON:   filepath.Join(dir, "dns.json"),
		connsJSON: filepath.Join(dir, "conn.json"),
	}
	writeFile(t, tr.dns, func(w *bytes.Buffer) error { return trace.WriteDNS(w, gen.DNS) })
	writeFile(t, tr.conns, func(w *bytes.Buffer) error { return trace.WriteConns(w, gen.Conns) })
	// The JSON pair and the partitions hold the records the TSV pair
	// parses to, so every input is the same trace to the analyzer.
	tr.ds = &trace.Dataset{}
	if tr.ds.DNS, err = readFile(tr.dns, trace.ReadDNS); err != nil {
		t.Fatal(err)
	}
	if tr.ds.Conns, err = readFile(tr.conns, trace.ReadConns); err != nil {
		t.Fatal(err)
	}
	writeFile(t, tr.dnsJSON, func(w *bytes.Buffer) error { return trace.WriteDNSJSON(w, tr.ds.DNS) })
	writeFile(t, tr.connsJSON, func(w *bytes.Buffer) error { return trace.WriteConnsJSON(w, tr.ds.Conns) })
	if err := os.Mkdir(tr.partDir, 0o755); err != nil {
		t.Fatal(err)
	}
	const parts = 4
	for p := 0; p < parts; p++ {
		dns := tr.ds.DNS[p*len(tr.ds.DNS)/parts : (p+1)*len(tr.ds.DNS)/parts]
		conns := tr.ds.Conns[p*len(tr.ds.Conns)/parts : (p+1)*len(tr.ds.Conns)/parts]
		name := filepath.Join(tr.partDir, fmt.Sprintf("part-%d", p))
		writeFile(t, name+".dns.tsv", func(w *bytes.Buffer) error { return trace.WriteDNS(w, dns) })
		writeFile(t, name+".conn.tsv", func(w *bytes.Buffer) error { return trace.WriteConns(w, conns) })
	}
	return tr
}

func writeFile(t *testing.T, path string, write func(*bytes.Buffer) error) {
	t.Helper()
	var buf bytes.Buffer
	if err := write(&buf); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}
}

// TestEndToEnd drives the dnsctx command over one trace given as each
// kind of input: every input prints the same report at GOMAXPROCS 1 and
// 2, a spilling run and a shard collect + merge agree on the summary, a
// checkpoint is resumed and removed, quarantined lines name their file
// (a partition's under -trace-dir) with a summary per file, a log out
// of time order stops the run, and every refused flag
// combination is a usage error that leaves the files it names alone.
func TestEndToEnd(t *testing.T) {
	tr := writeE2ETrace(t)
	tsv := []string{"-dns", tr.dns, "-conns", tr.conns}

	t.Run("inputs", func(t *testing.T) {
		report := []string{"-per-house", "-whatif-transport"}
		want := mustRun(t, 1, append(tsv, report...)...).stdout
		if !strings.Contains(want, "--- Per-house breakdown") {
			t.Fatalf("report lacks the per-house section:\n%s", want)
		}
		inputs := map[string][]string{
			"tsv":       tsv,
			"trace-dir": {"-trace-dir", tr.partDir},
			"json":      {"-format", "json", "-dns", tr.dnsJSON, "-conns", tr.connsJSON},
		}
		for name, in := range inputs {
			for _, procs := range []int{1, 2} {
				if got := mustRun(t, procs, append(in, report...)...).stdout; got != want {
					t.Errorf("%s at GOMAXPROCS=%d: report differs from the TSV pair's at 1:\n%s", name, procs, got)
				}
			}
		}
	})

	t.Run("spill and merge", func(t *testing.T) {
		spilled := mustRun(t, 2, append(tsv, "-memory-budget", "64k")...).stdout
		if !strings.HasPrefix(spilled, "=== dnscontext analysis summary ===") {
			t.Fatalf("a 64k budget did not spill the trace:\n%s", spilled)
		}
		shard := filepath.Join(t.TempDir(), "trace.shard")
		if got := mustRun(t, 2, "-trace-dir", tr.partDir, "-shard-out", shard).stdout; got != spilled {
			t.Errorf("-shard-out report differs from the spilled run's:\n%s", got)
		}
		if got := mustRun(t, 2, "-merge", shard).stdout; got != spilled {
			t.Errorf("-merge report differs from the spilled run's:\n%s", got)
		}
	})

	t.Run("checkpoint", func(t *testing.T) {
		want := mustRun(t, 2, tsv...).stdout
		ck := filepath.Join(t.TempDir(), "analysis.ckpt")
		if got := mustRun(t, 2, append(tsv, "-checkpoint", ck, "-checkpoint-interval", "1")...).stdout; got != want {
			t.Errorf("checkpointed report differs:\n%s", got)
		}
		if _, err := os.Stat(ck); !errors.Is(err, os.ErrNotExist) {
			t.Errorf("a completed run left its snapshot: stat = %v", err)
		}

		// A snapshot of the same trace, cut short after three clients,
		// resumes under the command's TSV stream to the same report.
		ctx, cancel := context.WithCancel(context.Background())
		opts := dnscontext.DefaultOptions()
		opts.Checkpoint = &dnscontext.AnalysisCheckpoint{Path: ck, Interval: 1, OnSnapshot: func(done int) {
			if done >= 3 {
				cancel()
			}
		}}
		_, err := dnscontext.NewAnalyzer(dnscontext.WithOptions(opts)).AnalyzeContext(ctx, &trace.Dataset{
			DNS:   append([]trace.DNSRecord(nil), tr.ds.DNS...),
			Conns: append([]trace.ConnRecord(nil), tr.ds.Conns...),
		})
		cancel()
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("snapshot run: err = %v, want context.Canceled", err)
		}
		if got := mustRun(t, 2, append(tsv, "-checkpoint", ck, "-resume")...).stdout; got != want {
			t.Errorf("resumed report differs:\n%s", got)
		}
		if _, err := os.Stat(ck); !errors.Is(err, os.ErrNotExist) {
			t.Errorf("a resumed run left its snapshot: stat = %v", err)
		}
	})

	t.Run("quarantine", func(t *testing.T) {
		dir := t.TempDir()
		dns, conns := filepath.Join(dir, "bad.dns.tsv"), filepath.Join(dir, "bad.conn.tsv")
		corrupt := func(dst, src string, line int) int {
			data, err := os.ReadFile(src)
			if err != nil {
				t.Fatal(err)
			}
			lines := strings.Split(strings.TrimSuffix(string(data), "\n"), "\n")
			lines[line-1] = "not a record"
			if err := os.WriteFile(dst, []byte(strings.Join(lines, "\n")+"\n"), 0o644); err != nil {
				t.Fatal(err)
			}
			return len(lines) - 1 // data lines, after the header
		}
		dnsLines := corrupt(dns, tr.dns, 10)
		connLines := corrupt(conns, tr.conns, 20)
		for _, procs := range []int{1, 2} {
			r := mustRun(t, procs, "-quarantine", "-dns", dns, "-conns", conns)
			for _, want := range []string{
				fmt.Sprintf("dnsctx: quarantined %s:10: trace: dns line 10:", dns),
				fmt.Sprintf("dnsctx: %s: quarantined 1 of %d lines\n", dns, dnsLines),
				fmt.Sprintf("dnsctx: quarantined %s:20: trace: conn line 20:", conns),
				fmt.Sprintf("dnsctx: %s: quarantined 1 of %d lines\n", conns, connLines),
			} {
				if !strings.Contains(r.stderr, want) {
					t.Errorf("GOMAXPROCS=%d: stderr lacks %q:\n%s", procs, want, r.stderr)
				}
			}
		}
		r := dnsctx(t, 2, "-dns", dns, "-conns", conns)
		if want := fmt.Sprintf("%s: trace: dns line 10:", dns); r.code != 1 || !strings.Contains(r.stderr, want) {
			t.Errorf("strict run over a malformed log: exit %d, stderr %q; want exit 1 naming %q", r.code, r.stderr, want)
		}

		// A partition directory with a bad line in two of its files: each
		// line names its partition, and each of those partitions gets its
		// summary.
		parts := t.TempDir()
		entries, err := os.ReadDir(tr.partDir)
		if err != nil {
			t.Fatal(err)
		}
		for _, e := range entries {
			data, err := os.ReadFile(filepath.Join(tr.partDir, e.Name()))
			if err != nil {
				t.Fatal(err)
			}
			if err := os.WriteFile(filepath.Join(parts, e.Name()), data, 0o644); err != nil {
				t.Fatal(err)
			}
		}
		badDNS, badConns := filepath.Join(parts, "part-1.dns.tsv"), filepath.Join(parts, "part-2.conn.tsv")
		dnsLines = corrupt(badDNS, badDNS, 10)
		connLines = corrupt(badConns, badConns, 20)
		for _, procs := range []int{1, 2} {
			r := mustRun(t, procs, "-quarantine", "-trace-dir", parts)
			for _, want := range []string{
				fmt.Sprintf("dnsctx: quarantined %s:10: trace: dns line 10:", badDNS),
				fmt.Sprintf("dnsctx: %s: quarantined 1 of %d lines\n", badDNS, dnsLines),
				fmt.Sprintf("dnsctx: quarantined %s:20: trace: conn line 20:", badConns),
				fmt.Sprintf("dnsctx: %s: quarantined 1 of %d lines\n", badConns, connLines),
			} {
				if !strings.Contains(r.stderr, want) {
					t.Errorf("-trace-dir at GOMAXPROCS=%d: stderr lacks %q:\n%s", procs, want, r.stderr)
				}
			}
			if n := strings.Count(r.stderr, "quarantined 1 of"); n != 2 {
				t.Errorf("-trace-dir at GOMAXPROCS=%d: %d quarantine summaries, want one for each bad partition:\n%s", procs, n, r.stderr)
			}
		}
	})

	t.Run("out of order", func(t *testing.T) {
		dns := filepath.Join(t.TempDir(), "late.dns.tsv")
		recs := append([]trace.DNSRecord(nil), tr.ds.DNS...)
		last := len(recs) - 1
		recs[0], recs[last] = recs[last], recs[0]
		writeFile(t, dns, func(w *bytes.Buffer) error { return trace.WriteDNS(w, recs) })
		r := dnsctx(t, 2, "-dns", dns, "-conns", tr.conns)
		if r.code != 1 || !strings.Contains(r.stderr, "source DNS stream out of order") {
			t.Errorf("out-of-order log: exit %d, stderr %q; want exit 1 with the analyzer's out-of-order error", r.code, r.stderr)
		}
	})

	t.Run("refused", func(t *testing.T) {
		dir := t.TempDir()
		keep := filepath.Join(dir, "keep.txt")
		if err := os.WriteFile(keep, []byte("not a snapshot"), 0o644); err != nil {
			t.Fatal(err)
		}
		shard := filepath.Join(dir, "g.shard")
		mustRun(t, 2, append(tsv, "-shard-out", shard)...)
		for _, args := range [][]string{
			{},
			{"-dns", tr.dns},
			{"-conns", tr.conns},
			append([]string{"-trace-dir", tr.partDir}, tsv...),
			{"-generate", "-trace-dir", tr.partDir},
			append([]string{"-generate"}, tsv...),
			{"-merge"},
			{"-merge", "-generate", shard},
			append(append([]string{"-merge"}, tsv...), shard),
			{"-merge", "-checkpoint", keep, shard},
			{"-merge", "-memory-budget", "64k", shard},
			{"-merge", "-spill-dir", dir, shard},
			append([]string{"-checkpoint", keep, "-memory-budget", "64k"}, tsv...),
			append([]string{"-resume"}, tsv...),
			append(tsv, shard),
			append([]string{"-memory-budget", "1.5g"}, tsv...),
			{"-format", "json", "-trace-dir", tr.partDir},
			{"-format", "json", "-generate"},
			{"-format", "json", "-quarantine", "-dns", tr.dnsJSON, "-conns", tr.connsJSON},
			append([]string{"-format", "xml"}, tsv...),
			append([]string{"-transport", "dot"}, tsv...),
			append([]string{"-transport-resumption"}, tsv...),
			{"-generate", "-transport", "smoke-signals"},
			{"-generate", "-fault-outage", "1m:-10s"},
			{"-generate", "-fault-outage", "1h"},
			{"-stream", "-trace-dir", tr.partDir},
			append([]string{"-houses", "3"}, tsv...),
			append([]string{"-duration", "1h"}, tsv...),
			append([]string{"-fault-loss", "0.5"}, tsv...),
			append([]string{"-fault-outage", "1m:1m"}, tsv...),
			{"-trace-dir", tr.partDir, "-seed", "2"},
			{"-trace-dir", tr.partDir, "-fault-truncate", "3"},
			{"-format", "json", "-dns", tr.dnsJSON, "-conns", tr.connsJSON, "-fault-jitter", "1ms"},
			{"-merge", "-fault-stale-hold", "1m", shard},
			{"-merge", "-houses", "20", shard},
		} {
			if r := dnsctx(t, 2, args...); r.code != 2 {
				t.Errorf("dnsctx %q: exit %d, want 2 (usage error); stderr:\n%s", args, r.code, r.stderr)
			}
		}
		if data, err := os.ReadFile(keep); err != nil || string(data) != "not a snapshot" {
			t.Errorf("a refused -merge -checkpoint run touched its -checkpoint file: %q, %v", data, err)
		}
	})
}
