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
	shards := &ck.a.shards
	slot := make(map[netip.Addr]int, len(shards.list))
	for s := range shards.list {
		slot[ck.a.st.addrs[shards.list[s].client]] = s
	}
	for _, c := range snap.clients {
		s, ok := slot[c.client]
		if !ok {
			return fmt.Errorf("%w: snapshot has unknown client %s", ErrCheckpointMismatch, c.client)
		}
		if conns, dns := shards.records(s); int(c.nDNS) != len(dns) || len(c.entries) != len(conns) {
			return fmt.Errorf("%w: client %s has %d lookups and %d connections, snapshot has %d and %d",
				ErrCheckpointMismatch, c.client, len(dns), len(conns), c.nDNS, len(c.entries))
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

// fingerprint hashes the time-sorted trace, read from the record store,
// so a snapshot can refuse to resume against different input. The
// hashed bytes are those of every trace record's fields in order, with
// addresses in their text form, so a snapshot's fingerprint does not
// depend on how the store numbers its symbols.
func (a *Analysis) fingerprint() uint64 {
	if a.fp != 0 {
		return a.fp
	}
	st := a.st
	h := fnv.New64a()
	put := func(v any) { _ = binary.Write(h, binary.LittleEndian, v) }
	addrText := func(sym int32) []byte { return []byte(st.addrs[sym].String()) }
	put(uint64(len(st.dns)))
	for i := range st.dns {
		d := &st.dns[i]
		put(int64(d.queryTS))
		put(int64(d.ts))
		h.Write(addrText(d.client))
		h.Write([]byte(st.resolvers[d.res].addr.String()))
		put(d.id)
		h.Write([]byte(st.names.Name(d.name)))
		put(d.qtype)
		put(d.rcode)
		put(d.nAns)
		for _, an := range st.answersOf(d) {
			h.Write(addrText(an.addr))
			put(int64(an.ttl))
		}
		put(d.retries)
		put(d.tc)
	}
	put(uint64(len(st.conns)))
	for i := range st.conns {
		c := &st.conns[i]
		put(int64(c.ts))
		put(int64(c.dur))
		put(uint8(c.proto))
		h.Write(addrText(c.orig))
		put(c.origPort)
		h.Write(addrText(c.resp))
		put(c.respPort)
		put(c.origBytes)
		put(c.respBytes)
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
