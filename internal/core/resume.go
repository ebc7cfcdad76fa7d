package core

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/fnv"
	"io/fs"
	"net/netip"
	"sync"

	"dnscontext/internal/checkpoint"
	"dnscontext/internal/obs"
)

// Checkpoint/resume for the analysis pipeline. The classify phase is
// the long pole of a large run and its clients are independent, so the
// unit of progress is one classified client: every Interval completions
// the analyzer snapshots the partial AnalysisShard of the clients
// completed so far via internal/checkpoint. A resumed run loads it,
// skips those clients, classifies only the rest, and finalizes the
// restored clients through the same path as fresh ones; because clients
// share no state and each carries its own RNG stream, the resumed
// result is bit-identical to an uninterrupted run at any worker count.
//
// A snapshot is the dataset fingerprint followed by the shard encoding
// (shard.go), which carries the result-affecting options; loading a
// snapshot against a different dataset or options is an error, never a
// silent wrong answer.

// ckVersion is the on-disk format version of analyzer checkpoints.
// Version 1 stored per-shard blobs of final classes; version 2 stores a
// partial AnalysisShard, so a version-1 file is refused as a
// *checkpoint.VersionError.
const ckVersion = 2

// defaultCkInterval is the number of completed clients between
// snapshots.
const defaultCkInterval = 64

// ErrCheckpointMismatch is matched (via errors.Is) when a checkpoint
// was written for a different dataset or different analysis options.
var ErrCheckpointMismatch = errors.New("checkpoint does not match this run")

// Checkpoint configures snapshotting for AnalyzeContext (see
// Options.Checkpoint).
type Checkpoint struct {
	// Path is the snapshot file. Empty disables checkpointing.
	Path string
	// Interval is the number of completed shards between snapshots.
	// Zero means the default (64).
	Interval int
	// Resume loads Path before classifying, skipping shards the
	// snapshot already covers. A missing file is not an error (the run
	// simply starts fresh); a corrupt file or one from a different
	// dataset/options is.
	Resume bool
	// OnSnapshot, when non-nil, is called after each successful
	// snapshot with the number of shards persisted. Tests use it to
	// kill runs at snapshot boundaries.
	OnSnapshot func(doneShards int)
}

// ckRun is the per-run checkpoint state. sh is the run's shard, whose
// clients[s] is filled once client s is classified (or restored).
type ckRun struct {
	a   *Analysis
	sh  *AnalysisShard
	cfg *Checkpoint

	mu        sync.Mutex
	done      []int  // completed clients, in completion order
	restored  []bool // clients loaded from the snapshot
	sinceSave int

	writesC   *obs.Counter
	restoredC *obs.Counter
}

func newCkRun(a *Analysis, sh *AnalysisShard, cfg *Checkpoint) *ckRun {
	ck := &ckRun{a: a, sh: sh, cfg: cfg, restored: make([]bool, len(sh.clients))}
	if reg := a.Opts.Metrics; reg != nil {
		ck.writesC = reg.Counter("dnsctx_checkpoint_writes_total",
			"Analyzer snapshots persisted to disk.")
		ck.restoredC = reg.Counter("dnsctx_checkpoint_restored_shards_total",
			"Analyzer shards restored from a checkpoint instead of recomputed.")
	}
	return ck
}

// isRestored reports whether client s was loaded from the snapshot and
// must not be reclassified.
func (ck *ckRun) isRestored(s int) bool {
	return ck.restored[s] // only written before the parallel phase
}

// complete records client s as classified and persists a snapshot every
// Interval completions. Called concurrently from the worker pool.
func (ck *ckRun) complete(s int) error {
	ck.mu.Lock()
	defer ck.mu.Unlock()
	ck.done = append(ck.done, s)
	ck.sinceSave++
	interval := ck.cfg.Interval
	if interval <= 0 {
		interval = defaultCkInterval
	}
	if ck.sinceSave < interval {
		return nil
	}
	// Each completed client's entry was written before its worker took
	// the lock, so the snapshot reads finished results only.
	part := *ck.sh
	part.clients = make([]clientResult, len(ck.done))
	for i, c := range ck.done {
		part.clients[i] = ck.sh.clients[c]
	}
	payload := binary.LittleEndian.AppendUint64(nil, ck.a.fingerprint())
	if err := checkpoint.Save(ck.cfg.Path, ckVersion, append(payload, part.encode()...)); err != nil {
		return err
	}
	ck.sinceSave = 0
	ck.writesC.Inc()
	if ck.cfg.OnSnapshot != nil {
		ck.cfg.OnSnapshot(len(ck.done))
	}
	return nil
}

// restore loads the snapshot at Path, if any, into the run's shard: each
// snapshotted client takes its slot, with resolver symbols rebound by
// address, and is marked done.
func (ck *ckRun) restore() error {
	payload, err := checkpoint.Load(ck.cfg.Path, ckVersion)
	if errors.Is(err, fs.ErrNotExist) {
		return nil
	}
	if err != nil {
		return err
	}
	if len(payload) < 8 {
		return fmt.Errorf("checkpoint: %d-byte snapshot has no fingerprint", len(payload))
	}
	if fp := binary.LittleEndian.Uint64(payload); fp != ck.a.fingerprint() {
		return fmt.Errorf("%w: dataset fingerprint %016x, snapshot has %016x",
			ErrCheckpointMismatch, ck.a.fingerprint(), fp)
	}
	snap, err := decodeShardPayload(payload[8:])
	if err != nil {
		return fmt.Errorf("checkpoint: %w", err)
	}
	if optionsKey(&snap.opts) != optionsKey(&ck.a.Opts) {
		return fmt.Errorf("%w: analysis options changed since the snapshot", ErrCheckpointMismatch)
	}
	rsym := make(map[netip.Addr]int32, len(ck.sh.resolvers))
	for i := range ck.sh.resolvers {
		rsym[ck.sh.resolvers[i].addr] = int32(i)
	}
	remap := make([]int32, len(snap.resolvers))
	for i := range snap.resolvers {
		r, ok := rsym[snap.resolvers[i].addr]
		if !ok {
			return fmt.Errorf("%w: snapshot has unknown resolver %s", ErrCheckpointMismatch, snap.resolvers[i].addr)
		}
		remap[i] = r
	}
	slot := make(map[netip.Addr]int, len(ck.a.shards))
	for s := range ck.a.shards {
		slot[ck.a.shards[s].client] = s
	}
	for _, c := range snap.clients {
		s, ok := slot[c.client]
		if !ok {
			return fmt.Errorf("%w: snapshot has unknown client %s", ErrCheckpointMismatch, c.client)
		}
		if sh := &ck.a.shards[s]; int(c.nDNS) != len(sh.dns) || len(c.entries) != len(sh.conns) {
			return fmt.Errorf("%w: client %s has %d lookups and %d connections, snapshot has %d and %d",
				ErrCheckpointMismatch, c.client, len(sh.dns), len(sh.conns), c.nDNS, len(c.entries))
		}
		for j := range c.entries {
			if r := c.entries[j].res; r >= 0 {
				c.entries[j].res = remap[r]
			}
		}
		ck.sh.clients[s] = c
		ck.restored[s] = true
		ck.done = append(ck.done, s)
	}
	ck.restoredC.Add(uint64(len(snap.clients)))
	return nil
}

// fingerprint hashes the (time-sorted) dataset so a snapshot can refuse
// to resume against different input.
func (a *Analysis) fingerprint() uint64 {
	if a.fp != 0 {
		return a.fp
	}
	h := fnv.New64a()
	put := func(v any) { _ = binary.Write(h, binary.LittleEndian, v) }
	put(uint64(len(a.DS.DNS)))
	for i := range a.DS.DNS {
		d := &a.DS.DNS[i]
		put(int64(d.QueryTS))
		put(int64(d.TS))
		h.Write([]byte(d.Client.String()))
		h.Write([]byte(d.Resolver.String()))
		put(d.ID)
		h.Write([]byte(d.Query))
		put(d.QType)
		put(d.RCode)
		put(uint32(len(d.Answers)))
		for _, an := range d.Answers {
			h.Write([]byte(an.Addr.String()))
			put(int64(an.TTL))
		}
		put(d.Retries)
		put(d.TC)
	}
	put(uint64(len(a.DS.Conns)))
	for i := range a.DS.Conns {
		c := &a.DS.Conns[i]
		put(int64(c.TS))
		put(int64(c.Duration))
		put(uint8(c.Proto))
		h.Write([]byte(c.Orig.String()))
		put(c.OrigPort)
		h.Write([]byte(c.Resp.String()))
		put(c.RespPort)
		put(c.OrigBytes)
		put(c.RespBytes)
	}
	a.fp = h.Sum64()
	return a.fp
}

// optionsKey hashes every option that influences analysis results, so
// shards refuse to merge, and checkpoints to resume, across different
// ones. Workers is deliberately excluded (results are worker-count
// invariant), as are the observation hooks, the checkpoint config, and
// the streaming memory budget (spilling never changes the answer, only
// where intermediate state lives).
func optionsKey(o *Options) uint64 {
	h := fnv.New64a()
	put := func(v any) { _ = binary.Write(h, binary.LittleEndian, v) }
	put(int64(o.BlockThreshold))
	put(int64(o.KneeThreshold))
	put(int64(o.SCRMinSamples))
	put(int64(o.DefaultSCThreshold))
	put(uint8(o.Pairing))
	put(o.Seed)
	put(int64(o.InsignificantAbs))
	put(o.InsignificantRel)
	return h.Sum64()
}
