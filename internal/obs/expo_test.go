package obs

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strings"
	"testing"
	"time"
)

func testRegistry() *Registry {
	r := NewRegistry()
	r.Counter("plain_total", "a plain counter").Add(3)
	vec := r.CounterVec("labeled_total", "a labeled counter", "platform")
	vec.With("Google").Add(2)
	vec.With("Local").Inc()
	r.Gauge("depth", "queue depth").Set(17)
	r.Timer("op_seconds", "op latency").Observe(3 * time.Millisecond)
	return r
}

func TestWritePrometheus(t *testing.T) {
	var b strings.Builder
	if err := testRegistry().Snapshot().WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	for _, want := range []string{
		"# HELP plain_total a plain counter\n",
		"# TYPE plain_total counter\n",
		"plain_total 3\n",
		`labeled_total{platform="Google"} 2` + "\n",
		`labeled_total{platform="Local"} 1` + "\n",
		"# TYPE depth gauge\n",
		"depth 17\n",
		"# TYPE op_seconds histogram\n",
		`op_seconds_bucket{le="+Inf"} 1` + "\n",
		"op_seconds_count 1\n",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("missing %q in:\n%s", want, out)
		}
	}
	if !strings.HasSuffix(out, "\n") {
		t.Error("output does not end with a newline")
	}
	// Every non-comment line must be "name{labels} value".
	for _, line := range strings.Split(strings.TrimSuffix(out, "\n"), "\n") {
		if strings.HasPrefix(line, "#") {
			continue
		}
		if len(strings.Fields(line)) != 2 {
			t.Errorf("malformed sample line %q", line)
		}
	}
}

func TestWritePrometheusEscaping(t *testing.T) {
	r := NewRegistry()
	r.CounterVec("esc_total", "line1\nline2 and \\slash", "k").With("a\"b\nc").Inc()
	var b strings.Builder
	if err := r.Snapshot().WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	if !strings.Contains(out, `# HELP esc_total line1\nline2 and \\slash`) {
		t.Errorf("help not escaped: %s", out)
	}
	if !strings.Contains(out, `esc_total{k="a\"b\nc"} 1`) {
		t.Errorf("label not escaped: %s", out)
	}
}

func TestWriteJSONRoundTrip(t *testing.T) {
	var b strings.Builder
	if err := testRegistry().Snapshot().WriteJSON(&b); err != nil {
		t.Fatal(err)
	}
	var snap Snapshot
	if err := json.Unmarshal([]byte(b.String()), &snap); err != nil {
		t.Fatal(err)
	}
	if len(snap.Families) != 4 {
		t.Fatalf("round-tripped %d families, want 4", len(snap.Families))
	}
	byName := map[string]FamilySnap{}
	for _, f := range snap.Families {
		byName[f.Name] = f
	}
	if byName["depth"].Metrics[0].Value != 17 {
		t.Fatalf("gauge lost in round trip: %+v", byName["depth"])
	}
	if byName["op_seconds"].Metrics[0].Hist.Count != 1 {
		t.Fatal("histogram lost in round trip")
	}
}

func TestServeEndpoints(t *testing.T) {
	srv, err := Serve("127.0.0.1:0", testRegistry(), true)
	if err != nil {
		t.Skipf("cannot bind loopback: %v", err)
	}
	defer srv.Close()

	get := func(path string) (string, string) {
		resp, err := http.Get(fmt.Sprintf("http://%s%s", srv.Addr(), path))
		if err != nil {
			t.Fatalf("GET %s: %v", path, err)
		}
		defer resp.Body.Close()
		body, _ := io.ReadAll(resp.Body)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("GET %s: status %d", path, resp.StatusCode)
		}
		return string(body), resp.Header.Get("Content-Type")
	}

	body, ctype := get("/metrics")
	if !strings.Contains(body, "plain_total 3") {
		t.Errorf("/metrics missing sample:\n%s", body)
	}
	if !strings.Contains(ctype, "text/plain") {
		t.Errorf("/metrics content type %q", ctype)
	}
	body, ctype = get("/metrics.json")
	if !strings.Contains(ctype, "application/json") {
		t.Errorf("/metrics.json content type %q", ctype)
	}
	var snap Snapshot
	if err := json.Unmarshal([]byte(body), &snap); err != nil {
		t.Errorf("/metrics.json not JSON: %v", err)
	}
	body, _ = get("/debug/pprof/cmdline")
	if body == "" {
		t.Error("pprof cmdline empty")
	}
}

func TestTracerTimeline(t *testing.T) {
	tr := NewTracer()
	tr.SetWorkers(4)
	sp := tr.StartPhase("sort")
	sp.SetItems(100)
	time.Sleep(time.Millisecond)
	sp.End()
	sp = tr.StartPhase("classify")
	tr.ShardDone(30, 2*time.Millisecond)
	tr.ShardDone(10, time.Millisecond)
	tr.ShardDone(60, 3*time.Millisecond)
	time.Sleep(time.Millisecond)
	sp.End()

	tl := tr.Timeline()
	if tl.Workers != 4 {
		t.Fatalf("workers %d", tl.Workers)
	}
	if len(tl.Phases) != 2 || tl.Phases[0].Name != "sort" || tl.Phases[1].Name != "classify" {
		t.Fatalf("phases %+v", tl.Phases)
	}
	if tl.Phases[0].Seconds <= 0 || tl.TotalSeconds < tl.Phases[0].Seconds {
		t.Fatalf("timing %+v", tl)
	}
	if tl.Shards == nil || tl.Shards.Count != 3 || tl.Shards.Items != 100 {
		t.Fatalf("shards %+v", tl.Shards)
	}
	if tl.Shards.MinItems != 10 || tl.Shards.MaxItems != 60 {
		t.Fatalf("shard min/max %+v", tl.Shards)
	}
	if tl.Shards.Utilization <= 0 {
		t.Fatalf("utilization %v", tl.Shards.Utilization)
	}

	var text strings.Builder
	if err := tl.WriteText(&text); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"analysis timeline", "sort", "classify", "worker utilization"} {
		if !strings.Contains(text.String(), want) {
			t.Errorf("text timeline missing %q:\n%s", want, text.String())
		}
	}
	var js strings.Builder
	if err := tl.WriteJSON(&js); err != nil {
		t.Fatal(err)
	}
	var back Timeline
	if err := json.Unmarshal([]byte(js.String()), &back); err != nil {
		t.Fatal(err)
	}
	if back.Shards == nil || back.Shards.Count != 3 {
		t.Fatalf("JSON round trip lost shards: %+v", back)
	}
}

func TestStartPhaseClosesOpenPhase(t *testing.T) {
	tr := NewTracer()
	tr.StartPhase("one") // never explicitly ended
	time.Sleep(time.Millisecond)
	sp := tr.StartPhase("two")
	sp.End()
	tl := tr.Timeline()
	if len(tl.Phases) != 2 {
		t.Fatalf("phases %+v", tl.Phases)
	}
	if tl.Phases[0].Seconds <= 0 {
		t.Fatal("implicitly closed phase has no duration")
	}
	if sum := tl.Phases[0].Seconds + tl.Phases[1].Seconds; tl.TotalSeconds != sum {
		t.Errorf("total %v, want the phases' sum %v", tl.TotalSeconds, sum)
	}
	// Ending an already-closed span is a no-op.
	sp.End()
}
