package obs

import (
	"encoding/json"
	"fmt"
	"io"
	"sync"
	"time"
)

// Tracer records the run timeline of one analysis: the wall time of each
// pipeline stage, per-shard item counts and busy time, and the worker
// pool width — enough to see where a run spent its time and how well the
// classify fan-out kept the workers busy.
//
// Like every obs instrument, a nil *Tracer is a guarded no-op, and
// nothing in the pipeline reads the tracer back, so traced and untraced
// runs produce bit-identical results.
type Tracer struct {
	mu      sync.Mutex
	workers int
	phases  []phaseRec

	shardCount int
	shardItems int
	shardMin   int
	shardMax   int
	shardBusy  time.Duration
}

type phaseRec struct {
	name  string
	start time.Time
	dur   time.Duration
	items int
	open  bool
}

// NewTracer returns an empty tracer.
func NewTracer() *Tracer {
	return &Tracer{}
}

// SetWorkers records the resolved worker-pool width used by the run.
func (t *Tracer) SetWorkers(n int) {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.workers = n
	t.mu.Unlock()
}

// Span is a handle on one open phase.
type Span struct {
	t   *Tracer
	idx int
}

// StartPhase opens a named pipeline stage, closing any stage still open
// (stages are sequential). The returned span is nil — and every method
// on it a no-op — when the tracer is nil.
func (t *Tracer) StartPhase(name string) *Span {
	if t == nil {
		return nil
	}
	now := time.Now()
	t.mu.Lock()
	defer t.mu.Unlock()
	t.closeOpenLocked(now)
	t.phases = append(t.phases, phaseRec{name: name, start: now, open: true})
	return &Span{t: t, idx: len(t.phases) - 1}
}

func (t *Tracer) closeOpenLocked(now time.Time) {
	for i := range t.phases {
		if t.phases[i].open {
			t.phases[i].dur = now.Sub(t.phases[i].start)
			t.phases[i].open = false
		}
	}
}

// SetItems records how many items the phase processed.
func (sp *Span) SetItems(n int) {
	if sp == nil {
		return
	}
	sp.t.mu.Lock()
	sp.t.phases[sp.idx].items = n
	sp.t.mu.Unlock()
}

// End closes the phase.
func (sp *Span) End() {
	if sp == nil {
		return
	}
	now := time.Now()
	sp.t.mu.Lock()
	p := &sp.t.phases[sp.idx]
	if p.open {
		p.dur = now.Sub(p.start)
		p.open = false
	}
	sp.t.mu.Unlock()
}

// ShardDone records one completed shard: how many items it carried and
// how long a worker was busy classifying it. Safe for concurrent use
// from the worker pool.
func (t *Tracer) ShardDone(items int, busy time.Duration) {
	if t == nil {
		return
	}
	t.mu.Lock()
	if t.shardCount == 0 || items < t.shardMin {
		t.shardMin = items
	}
	if items > t.shardMax {
		t.shardMax = items
	}
	t.shardCount++
	t.shardItems += items
	t.shardBusy += busy
	t.mu.Unlock()
}

// PhaseTimeline is one stage of a rendered timeline.
type PhaseTimeline struct {
	Name    string  `json:"name"`
	Seconds float64 `json:"seconds"`
	Items   int     `json:"items,omitempty"`
	// Offset is the phase's start relative to the run's first phase.
	Offset float64 `json:"offset_seconds"`
}

// ShardTimeline summarizes the classify fan-out.
type ShardTimeline struct {
	Count       int     `json:"count"`
	Items       int     `json:"items"`
	MinItems    int     `json:"min_items"`
	MaxItems    int     `json:"max_items"`
	BusySeconds float64 `json:"busy_seconds"`
	// Utilization is Σ shard busy time / (workers × classify-phase wall
	// time): 1.0 means every worker was busy for the whole fan-out.
	Utilization float64 `json:"worker_utilization"`
}

// Timeline is a completed run record, renderable as text or JSON.
type Timeline struct {
	Workers      int             `json:"workers"`
	TotalSeconds float64         `json:"total_seconds"`
	Phases       []PhaseTimeline `json:"phases"`
	Shards       *ShardTimeline  `json:"shards,omitempty"`
}

// classifyPhase is the stage name whose wall time anchors worker
// utilization; core.AnalyzeContext uses it for the shard fan-out.
const classifyPhase = "classify"

// Timeline snapshots the tracer. Open phases are measured up to now, so
// a timeline can be rendered mid-run. A nil tracer yields a zero
// timeline.
func (t *Tracer) Timeline() Timeline {
	if t == nil {
		return Timeline{}
	}
	now := time.Now()
	t.mu.Lock()
	defer t.mu.Unlock()
	var tl Timeline
	tl.Workers = t.workers
	var classifyWall float64
	for _, p := range t.phases {
		dur := p.dur
		if p.open {
			dur = now.Sub(p.start)
		}
		pt := PhaseTimeline{
			Name: p.name, Seconds: dur.Seconds(), Items: p.items,
			Offset: p.start.Sub(t.phases[0].start).Seconds(),
		}
		// StartPhase closes the open phase, so phases never overlap and
		// their sum is the time the run spent in them.
		tl.TotalSeconds += pt.Seconds
		if p.name == classifyPhase {
			classifyWall += pt.Seconds
		}
		tl.Phases = append(tl.Phases, pt)
	}
	if t.shardCount > 0 {
		st := &ShardTimeline{
			Count:       t.shardCount,
			Items:       t.shardItems,
			MinItems:    t.shardMin,
			MaxItems:    t.shardMax,
			BusySeconds: t.shardBusy.Seconds(),
		}
		if t.workers > 0 && classifyWall > 0 {
			st.Utilization = st.BusySeconds / (float64(t.workers) * classifyWall)
		}
		tl.Shards = st
	}
	return tl
}

// WriteText renders the timeline as an aligned table.
func (tl Timeline) WriteText(w io.Writer) error {
	if _, err := fmt.Fprintf(w, "analysis timeline (workers=%d, total %s)\n",
		tl.Workers, fmtSeconds(tl.TotalSeconds)); err != nil {
		return err
	}
	if _, err := fmt.Fprintf(w, "  %-12s %10s %10s\n", "phase", "wall", "items"); err != nil {
		return err
	}
	for _, p := range tl.Phases {
		if _, err := fmt.Fprintf(w, "  %-12s %10s %10d\n", p.Name, fmtSeconds(p.Seconds), p.Items); err != nil {
			return err
		}
	}
	if tl.Shards != nil {
		s := tl.Shards
		mean := 0
		if s.Count > 0 {
			mean = s.Items / s.Count
		}
		if _, err := fmt.Fprintf(w,
			"  shards: %d (items min %d / mean %d / max %d), busy %s, worker utilization %.1f%%\n",
			s.Count, s.MinItems, mean, s.MaxItems, fmtSeconds(s.BusySeconds), 100*s.Utilization); err != nil {
			return err
		}
	}
	return nil
}

// WriteJSON renders the timeline as indented JSON.
func (tl Timeline) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(tl)
}

func fmtSeconds(s float64) string {
	return time.Duration(s * float64(time.Second)).Round(time.Microsecond).String()
}
