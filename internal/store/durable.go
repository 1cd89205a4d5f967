package store

import (
	"errors"
	"fmt"
	"io"
	"io/fs"
	"iter"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"sheriff/internal/par"
)

// Durable is the crash-safe observation backend: the in-memory sharded
// engine for every query, fronted on the write path by a per-shard
// write-ahead log and checkpointed into time-bucketed JSONL snapshots.
// A checkpoint runs on the goroutine that needs it — the open, Compact,
// or the AddAll that crossed a trigger — never on one of its own, so
// with one writer where checkpoints land is a function of the writes.
// A Durable answers every Reader query exactly as the memory engine
// does (the memory engine IS its read path), and a process that dies —
// kill -9 included — loses at most the log tail that was not yet fsynced
// under the configured policy.
//
// On-disk layout of a data directory:
//
//	MANIFEST.json                      commit record: generation, buckets, prune totals
//	seg-<gen>-b<bucket>-<idx>.jsonl    active-bucket segments, JSONL {seq, obs} rows
//	seg-<gen>-b<bucket>-<idx>.jsonl.gz cold-bucket segments, same rows gzipped
//	wal-<gen>-<shard>.log              per-shard logs of post-snapshot batches
//
// Segments are keyed by time bucket (simulated observation time, fixed
// width): the storage lifecycle works bucket-at-a-time. Every bucket
// except the newest one holding data is cold and written compressed;
// retention prunes whole cold buckets — by age against the dataset's own
// clock, or oldest-first to fit a disk budget — and a pruned bucket is
// simply absent from the next committed manifest, so recovery and
// read-only opens replay only live buckets with no special cases.
//
// Opening a directory recovers it: the manifest's bucket segments load
// first, then the logs' complete records; both carry their original
// sequence numbers, so the k-way merge every ordered read shares puts
// them back into exact admission order. Every writable open then
// commits the recovered state as a fresh generation, and every commit
// carries an unchanged bucket's segments forward instead of rewriting
// them, so a clean restart writes a manifest and empty logs and nothing
// else. Torn log tails and truncated segments are tolerated and
// reported, never fatal.
type Durable struct {
	// mem is the read path. It is swapped wholesale when retention prunes
	// buckets (under the exclusive writeGate), so readers load it once per
	// operation and never see a half-pruned store.
	mem  atomic.Pointer[Store]
	dir  string
	opts DurableOptions

	// writeGate serializes structural transitions against writers:
	// AddAll holds it shared, Sync/Compact/Close hold it exclusively, so
	// an exclusive holder sees every reserved sequence number applied to
	// both the log and the memory engine.
	writeGate sync.RWMutex
	closed    bool
	gen       uint64
	// epoch is the directory's replication identity (see manifest.Epoch):
	// minted on first open, committed with every checkpoint, constant for
	// the directory's lifetime.
	epoch uint64
	// committed maps bucket start to the last commit's bucketInfo, and
	// committedSeq is that commit's sequence counter (manifest MaxSeq):
	// what the next checkpoint may carry forward unwritten, what stats
	// report, and how age-pruned buckets get byte-accounted.
	committed    map[int64]bucketInfo
	committedSeq uint64
	// pruned accumulates retention's work, mirrored to the manifest.
	pruned PruneTotals
	// pruneHook, when set, runs under the exclusive gate after a
	// checkpoint prunes buckets — derived state (the analysis engine's
	// aggregates) rebuilds from the pruned store before writers resume.
	pruneHook func(epoch uint64)
	wals      [numShards]walShardFile

	// committedActive is the last commit's active bucket: with retention
	// on, a batch that moves the dataset past it triggers a checkpoint.
	committedActive int64

	walBytes atomic.Int64
	synced   atomic.Uint64

	errMu    sync.Mutex
	firstErr error
	// failed mirrors firstErr != nil for lock-free reads: once any
	// record was dropped, the watermark freezes (see advanceSynced)
	// until a checkpoint makes the whole in-memory state durable again.
	failed atomic.Bool

	// lock is the data directory's single-writer flock.
	lock *os.File

	stopOnce sync.Once
	stopSync chan struct{}
	syncDone chan struct{}
}

// walShardFile is one shard's open log.
type walShardFile struct {
	mu sync.Mutex
	f  *os.File
	// poisoned marks a log whose tail may be torn by a failed append:
	// recovery stops at the first bad frame, so anything appended after
	// it would be unreadable — no further records (or durability claims)
	// until the next checkpoint swaps in a fresh file.
	poisoned bool
}

// errClosed marks operations on a closed durable store.
var errClosed = errors.New("store: durable store is closed")

// FsyncPolicy controls when the write-ahead log reaches stable storage.
type FsyncPolicy int

const (
	// FsyncAlways fsyncs every batch before AddAll returns: a completed
	// write survives any crash. The zero value, because the safest mode
	// should be the default one.
	FsyncAlways FsyncPolicy = iota
	// FsyncInterval fsyncs on a background tick (DurableOptions.SyncInterval);
	// a crash loses at most one interval of writes.
	FsyncInterval
	// FsyncNever leaves flushing to the OS page cache; only Sync, Compact
	// and Close force stability. Fastest, weakest.
	FsyncNever
)

// String names the policy for logs and stats.
func (p FsyncPolicy) String() string {
	switch p {
	case FsyncAlways:
		return "always"
	case FsyncInterval:
		return "interval"
	case FsyncNever:
		return "never"
	}
	return fmt.Sprintf("FsyncPolicy(%d)", int(p))
}

// ParseFsyncPolicy maps the CLI spelling to a policy.
func ParseFsyncPolicy(s string) (FsyncPolicy, error) {
	switch s {
	case "always":
		return FsyncAlways, nil
	case "interval":
		return FsyncInterval, nil
	case "never":
		return FsyncNever, nil
	}
	return 0, fmt.Errorf("store: unknown fsync policy %q (want always, interval or never)", s)
}

// DurableOptions tunes the durable engine; zero values take the defaults
// noted on each field.
type DurableOptions struct {
	// Fsync is the log flush policy (default FsyncAlways).
	Fsync FsyncPolicy
	// SyncInterval is the FsyncInterval tick (default 200ms).
	SyncInterval time.Duration
	// SegmentBytes bounds one snapshot segment (default 8 MiB).
	SegmentBytes int64
	// CompactWALBytes triggers compaction once the generation's logs
	// exceed this many bytes (default 32 MiB; negative disables automatic
	// compaction — Compact can still be called).
	CompactWALBytes int64
	// BucketDuration is the time-bucket width segments, retention and
	// time-range pushdown partition by, in simulated observation time
	// (default 24h). Reopening a directory at a different width rebuckets
	// and rewrites the snapshot once.
	BucketDuration time.Duration
	// RetainAge, when positive, prunes buckets whose entire range is
	// older than the newest observation minus RetainAge — the dataset's
	// own clock, never the host's. The active bucket is never pruned.
	RetainAge time.Duration
	// RetainBytes, when positive, prunes oldest-first at each checkpoint
	// until the snapshot fits the budget. The active bucket always
	// survives, so the budget is respected only down to one bucket.
	RetainBytes int64
}

// withDefaults fills unset options.
func (o DurableOptions) withDefaults() DurableOptions {
	if o.SyncInterval <= 0 {
		o.SyncInterval = 200 * time.Millisecond
	}
	if o.SegmentBytes <= 0 {
		o.SegmentBytes = 8 << 20
	}
	if o.CompactWALBytes == 0 {
		o.CompactWALBytes = 32 << 20
	}
	if o.BucketDuration <= 0 {
		o.BucketDuration = DefaultBucketSeconds * time.Second
	}
	return o
}

// bucketSeconds is the configured width in whole seconds (minimum 1).
func (o DurableOptions) bucketSeconds() int64 {
	secs := int64(o.BucketDuration / time.Second)
	if secs <= 0 {
		secs = 1
	}
	return secs
}

// retentionOn reports whether any pruning rule is configured.
func (o DurableOptions) retentionOn() bool { return o.RetainAge > 0 || o.RetainBytes > 0 }

// RecoveryReport describes what opening a data directory found: how much
// of the dataset came from the snapshot, how much replayed from the log
// tail, and what a crash had torn away.
type RecoveryReport struct {
	// Generation is the snapshot generation recovered from.
	Generation uint64 `json:"generation"`
	// SnapshotRows is the observation count loaded from segments.
	SnapshotRows int `json:"snapshot_rows"`
	// SnapshotBuckets counts the live buckets loaded; CompressedBuckets
	// of them were cold (gzipped).
	SnapshotBuckets   int `json:"snapshot_buckets"`
	CompressedBuckets int `json:"compressed_buckets,omitempty"`
	// SegmentRowsLost counts snapshot rows unrecoverable from truncated
	// or missing segments.
	SegmentRowsLost int `json:"segment_rows_lost,omitempty"`
	// WALRecords and WALRows are the complete log records replayed and
	// the observations they carried.
	WALRecords int `json:"wal_records"`
	WALRows    int `json:"wal_rows"`
	// WALBytesDiscarded counts torn-tail bytes dropped during replay.
	WALBytesDiscarded int64 `json:"wal_bytes_discarded,omitempty"`
	// PrunedBuckets and PrunedRows report retention's cumulative work as
	// the manifest records it — rows absent here were dropped on purpose,
	// not lost.
	PrunedBuckets uint64 `json:"pruned_buckets,omitempty"`
	PrunedRows    uint64 `json:"pruned_rows,omitempty"`
	// LiveOwner reports that a writer held the directory's lock during a
	// read-only open: a torn-looking log tail is then most likely the
	// owner's in-flight append, not crash damage.
	LiveOwner bool `json:"live_owner,omitempty"`
}

// Rows is the total recovered observation count.
func (r RecoveryReport) Rows() int { return r.SnapshotRows + r.WALRows }

// String is the one-line boot log form.
func (r RecoveryReport) String() string {
	s := fmt.Sprintf("recovered %d observations (snapshot %d + wal %d, generation %d)",
		r.Rows(), r.SnapshotRows, r.WALRows, r.Generation)
	if r.SnapshotBuckets > 0 {
		s += fmt.Sprintf(", %d buckets (%d compressed)", r.SnapshotBuckets, r.CompressedBuckets)
	}
	if r.PrunedBuckets > 0 {
		s += fmt.Sprintf(", retention pruned %d buckets (%d rows) to date", r.PrunedBuckets, r.PrunedRows)
	}
	if r.SegmentRowsLost > 0 {
		s += fmt.Sprintf(", %d snapshot rows lost to truncation", r.SegmentRowsLost)
	}
	if r.WALBytesDiscarded > 0 {
		s += fmt.Sprintf(", %d torn wal bytes discarded", r.WALBytesDiscarded)
		if r.LiveOwner {
			s += " (live writer present: likely its in-flight append, not damage)"
		}
	}
	return s
}

// OpenDurable opens (creating if needed) a data directory as a writable
// durable backend: recover, then commit the recovered state as a fresh
// generation so the engine starts on a clean snapshot and empty logs.
// The commit also applies the storage lifecycle (compression, retention)
// and rewrites only the buckets recovery changed.
func OpenDurable(dir string, opts DurableOptions) (*Durable, RecoveryReport, error) {
	opts = opts.withDefaults()
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, RecoveryReport{}, fmt.Errorf("store: create data dir: %w", err)
	}
	// Single writer per directory: a second writable open (a supervisor
	// double-start, a crawl pointed at a live sheriffd's dir) must fail
	// at startup, not checkpoint over the owner's live generation.
	lock, err := lockDataDir(dir)
	if err != nil {
		return nil, RecoveryReport{}, err
	}
	width := opts.bucketSeconds()
	mem, man, rep, err := recoverDir(dir, width)
	if err != nil {
		lock.Close()
		return nil, rep, err
	}
	d := &Durable{dir: dir, opts: opts, gen: man.Generation, epoch: man.Epoch, pruned: man.Pruned, lock: lock}
	d.mem.Store(mem)
	if man.BucketSeconds == width {
		// At another width every bucket is new: nothing carries forward.
		d.committed = bucketsByStart(man.Buckets)
		d.committedSeq = man.MaxSeq
	}
	if d.epoch == 0 {
		d.epoch = NewReplicationEpoch()
	}
	if err := d.Compact(); err != nil {
		lock.Close()
		return nil, rep, err
	}
	if opts.Fsync == FsyncInterval {
		d.stopSync = make(chan struct{})
		d.syncDone = make(chan struct{})
		go d.syncLoop()
	}
	return d, rep, nil
}

// OpenReadOnly recovers a data directory into a plain in-memory store
// without writing anything — the analysis-side open: a dataset directory
// can be inspected while (or after) a live process owns it. A live
// owner's compaction can sweep the very generation being loaded
// mid-read; that race is detected (the manifest's generation moved) and
// the load retries on the new generation, so apparent damage is only
// reported when the generation was stable.
func OpenReadOnly(dir string) (*Store, RecoveryReport, error) {
	if fi, err := os.Stat(dir); err != nil || !fi.IsDir() {
		return nil, RecoveryReport{}, fmt.Errorf("store: data dir %s: not a directory", dir)
	}
	for attempt := 0; ; attempt++ {
		mem, _, rep, err := recoverDir(dir, 0)
		rep.LiveOwner = dataDirBusy(dir)
		if cur, merr := readManifest(dir); merr == nil && cur.Generation != rep.Generation {
			if attempt < 5 {
				continue // raced a compaction; load the new generation
			}
			// Still racing after every retry: what recoverDir loaded is
			// some mix of swept generations, and returning it as data
			// would report phantom damage (or silent loss) on a healthy
			// directory.
			return nil, rep, fmt.Errorf("store: data dir %s kept compacting during read-only open; retry when the owner is quieter", dir)
		}
		return mem, rep, err
	}
}

// recoverDir rebuilds the dataset a directory holds at bucket width
// width (0 keeps the manifest's): the manifest's live buckets plus the
// log tail's complete records, all carrying their original sequence
// numbers, put back into exact admission order by the k-way merge every
// ordered read shares. The rebuilt store keeps every row's original
// sequence number and resumes the counter at the recovered maximum —
// replication resumes by sequence, so a restart must never renumber
// rows out from under a follower's cursor. Pruned buckets are simply
// absent from the manifest: nothing here ever sees them.
//
// Both halves run in parallel (par.Do). Every live segment and
// every shard log is one decode unit, and each worker interns into a
// table of its own. The results are then read in a fixed order —
// segments in manifest order, then logs in shard order — so the report
// and the first error do not depend on the schedule. Last, each shard
// merges and places its own rows: a row's shard follows from its
// domain and a sequence number names one row, so the shards' merges
// together place what one global merge would.
func recoverDir(dir string, width int64) (*Store, *manifest, RecoveryReport, error) {
	man, err := readManifest(dir)
	if err != nil {
		return nil, nil, RecoveryReport{}, err
	}
	rep := RecoveryReport{
		Generation:    man.Generation,
		PrunedBuckets: man.Pruned.Buckets,
		PrunedRows:    man.Pruned.Rows,
	}
	if width <= 0 {
		width = man.BucketSeconds
	}

	var units []recoveryUnit
	for bi := range man.Buckets {
		for si := range man.Buckets[bi].Segments {
			units = append(units, recoveryUnit{seg: &man.Buckets[bi].Segments[si]})
		}
	}
	for shard := 0; shard < numShards; shard++ {
		units = append(units, recoveryUnit{shard: shard})
	}
	par.Do(runtime.GOMAXPROCS(0), len(units), func() func(int) {
		// One intern table per worker, so recovered rows share their
		// repeated strings (domains, VPs, URLs, ...).
		strs := make(map[string]string)
		return func(i int) { units[i].load(dir, man.Generation, strs) }
	})

	var runs [numShards]refRuns
	next := 0
	for _, b := range man.Buckets {
		rep.SnapshotBuckets++
		if b.Compressed {
			rep.CompressedBuckets++
		}
		for range b.Segments {
			u := &units[next]
			next++
			if u.err != nil {
				return nil, nil, rep, u.err
			}
			rep.SegmentRowsLost += u.lost
			rep.SnapshotRows += u.seg.Rows - u.lost
			for i := range u.rows {
				o := &u.rows[i].Obs
				runs[shardIdx(o.Domain)].push(u.rows[i].Seq, o)
			}
		}
	}
	// Only rows logged after the snapshot qualify: the manifest records
	// the sequence counter at its commit (MaxSeq), and every later batch
	// reserved above it. Retention can leave holes below MaxSeq, which is
	// why the cut is the counter, not the row count. A shard's records
	// are not seq-sorted — concurrent writers log in lock order — so push
	// cuts a run wherever the sequence falls.
	for ; next < len(units); next++ {
		u := &units[next]
		if u.err != nil {
			return nil, nil, rep, u.err
		}
		rep.WALBytesDiscarded += u.discarded
		rep.WALRecords += len(u.recs)
		for _, rec := range u.recs {
			for i, seq := range rec.Seqs {
				if seq > man.MaxSeq {
					runs[shardIdx(rec.Obs[i].Domain)].push(seq, &rec.Obs[i])
					rep.WALRows++
				}
			}
		}
	}

	// Replay under the original sequence numbers. A sequence number
	// names one row: merge emits ties adjacently, so a repeat of the last
	// one kept (a manifest naming a segment twice) is a copy, skipped and
	// uncounted.
	mem := newBucketed(width)
	var last [numShards]uint64
	var walRepeats, snapRepeats [numShards]int
	par.Do(runtime.GOMAXPROCS(0), numShards, func() func(int) {
		return func(si int) {
			rr := &runs[si]
			rr.cut()
			refs := make([]seqRef, 0, len(rr.refs))
			rr.merge(func(r seqRef) bool {
				switch {
				case r.seq != last[si]:
					refs = append(refs, r)
					last[si] = r.seq
				case r.seq > man.MaxSeq:
					walRepeats[si]++
				default:
					snapRepeats[si]++
				}
				return true
			})
			maxUnixUpdate(&mem.maxUnix, mem.shards[si].fill(refs, width))
		}
	})
	newest := man.MaxSeq
	for si := range last {
		rep.WALRows -= walRepeats[si]
		rep.SnapshotRows -= snapRepeats[si]
		newest = max(newest, last[si])
	}
	mem.seq.Store(newest)
	mem.applied.Store(newest)
	return mem, man, rep, nil
}

// recoveryUnit is one file recovery decodes on its own: a live segment
// (seg set) or one shard's log. load fills in what the file held.
type recoveryUnit struct {
	seg   *segmentInfo
	shard int

	rows []segRow // a segment's rows
	lost int      // a segment's rows lost to damage

	recs      []walRecord // a log's complete records
	discarded int64       // a log's torn-tail bytes

	err error
}

// load decodes the unit, interning its strings in strs.
func (u *recoveryUnit) load(dir string, gen uint64, strs map[string]string) {
	if u.seg != nil {
		u.rows = make([]segRow, 0, u.seg.Rows)
		u.lost, u.err = loadSegment(dir, *u.seg, &u.rows, strs)
		return
	}
	data, err := os.ReadFile(filepath.Join(dir, walFile(gen, u.shard)))
	if errors.Is(err, fs.ErrNotExist) {
		return // no log for this shard: nothing was written there
	}
	if err != nil {
		// A log that exists but cannot be read is NOT an empty log:
		// skipping it would recover a silently truncated dataset and a
		// writable open would then commit (and sweep) the loss.
		u.err = fmt.Errorf("store: read wal: %w", err)
		return
	}
	u.recs, u.discarded = replayWAL(data, strs)
}

// checkpointLocked commits the memory engine's current state as a new
// generation — bucket segments, manifest, fresh empty logs — applying
// the storage lifecycle as it goes: cold buckets compress, age-expired
// buckets are skipped outright, and the disk budget evicts oldest-first.
// A bucket the last commit already holds exactly (see carries) keeps its
// segment files, under their old names; every other live bucket is
// written under the new generation. The work, and with it the writers'
// pause, is proportional to the changed buckets, not the dataset. The
// caller holds writeGate exclusively (see checkpoint).
//
// The manifest rename is the commit point, and the in-memory generation
// state must never desync from it: every fallible step is staged BEFORE
// the commit (a failure aborts with the old generation fully intact and
// only orphan files on disk), and everything after the commit is either
// infallible (handle swaps, counter resets, the in-memory prune) or
// best-effort cleanup whose failure is recorded, not allowed to leave
// d.gen behind the committed manifest — a desync would make later
// batches log into files recovery never reads, and a re-used generation
// number would truncate committed segments.
func (d *Durable) checkpointLocked() error {
	mem := d.mem.Load()
	newGen := d.gen + 1

	// Stage the new generation's logs and segments. commitManifest's
	// directory fsync below makes these creates durable together with
	// the rename.
	var fresh [numShards]*os.File
	abort := func(err error) error {
		for _, f := range fresh {
			if f != nil {
				f.Close()
			}
		}
		return err
	}
	for shard := range fresh {
		f, err := os.OpenFile(filepath.Join(d.dir, walFile(newGen, shard)),
			os.O_CREATE|os.O_TRUNC|os.O_WRONLY|os.O_APPEND, 0o644)
		if err != nil {
			return abort(fmt.Errorf("store: create wal: %w", err))
		}
		fresh[shard] = f
	}

	// Bucket plan: live buckets oldest-first, age-expired ones pruned
	// before a byte is written (their last committed size is what the
	// byte accounting can know).
	stats := mem.bucketStats()
	active := mem.activeBucket()
	starts := make([]int64, 0, len(stats))
	for b := range stats {
		starts = append(starts, b)
	}
	sort.Slice(starts, func(i, j int) bool { return starts[i] < starts[j] })

	pruned := d.pruned
	victims := make(map[int64]struct{})
	if d.opts.RetainAge > 0 {
		cutoff := mem.maxUnix.Load() - int64(d.opts.RetainAge/time.Second)
		for _, b := range starts {
			if b != active && b+mem.bucketSecs <= cutoff {
				victims[b] = struct{}{}
				pruned.Buckets++
				pruned.Rows += uint64(stats[b].rows)
				pruned.Bytes += uint64(d.committed[b].Bytes)
			}
		}
	}

	var infos []bucketInfo
	var rows uint64
	for _, b := range starts {
		if _, dead := victims[b]; dead {
			continue
		}
		cold := b != active
		info := d.committed[b]
		if !d.carries(info, stats[b], cold) {
			var err error
			if info, err = writeBucket(d.dir, newGen, mem, b, cold, d.opts.SegmentBytes); err != nil {
				return abort(err)
			}
		}
		infos = append(infos, info)
		rows += uint64(info.Rows)
	}

	// Disk budget: evict oldest-first until the snapshot fits; the
	// active bucket survives regardless. An evicted bucket's files, new
	// or carried, go unnamed in the manifest, so the sweep removes them.
	if d.opts.RetainBytes > 0 {
		var total int64
		for _, info := range infos {
			total += info.Bytes
		}
		for len(infos) > 1 && total > d.opts.RetainBytes && infos[0].Start != active {
			ev := infos[0]
			infos = infos[1:]
			total -= ev.Bytes
			rows -= uint64(ev.Rows)
			victims[ev.Start] = struct{}{}
			pruned.Buckets++
			pruned.Rows += uint64(ev.Rows)
			pruned.Bytes += uint64(ev.Bytes)
		}
	}

	man := &manifest{
		Version:       manifestVersion,
		Generation:    newGen,
		Rows:          rows,
		MaxSeq:        mem.seq.Load(),
		BucketSeconds: mem.bucketSecs,
		Buckets:       infos,
		Pruned:        pruned,
		Epoch:         d.epoch,
	}
	if err := commitManifest(d.dir, man); err != nil {
		return abort(err)
	}

	// Committed. Swap in the staged logs and bring memory in line with
	// the manifest before anything that can still fail. Fresh files also
	// clear any append-failure poisoning (writers are excluded by the
	// gate, so the flag flips race-free).
	var old [numShards]*os.File
	for shard := range d.wals {
		old[shard] = d.wals[shard].f
		d.wals[shard].f = fresh[shard]
		d.wals[shard].poisoned = false
	}
	d.gen = newGen
	d.committed = bucketsByStart(infos)
	d.committedSeq = man.MaxSeq
	d.committedActive = active
	d.pruned = pruned
	d.walBytes.Store(0)

	if len(victims) > 0 {
		// Prune memory to match the commit: a fresh store holding every
		// surviving row under its original sequence number, swapped in
		// whole. Readers mid-iteration keep the old store — it is never
		// mutated — and every later read sees only live buckets.
		ns, _ := mem.rebuildWithout(victims)
		d.mem.Store(ns)
		mem = ns
	}
	// The committed snapshot holds the entire in-memory state — rows a
	// failed append had dropped from the log included — so the watermark
	// is truthful again and may resume advancing (the sticky Err stays
	// for reporting).
	d.synced.Store(mem.seq.Load())
	d.failed.Store(false)

	if len(victims) > 0 && d.pruneHook != nil {
		// Writers are quiesced by the gate; derived state rebuilds from
		// the pruned store before appends resume. The cumulative pruned
		// row count is the new epoch: it grows with every prune and is
		// what the manifest hands a restarted process.
		d.pruneHook(pruned.Rows)
	}

	// Cleanup is best-effort: stale files of other generations — and this
	// generation's budget-evicted buckets — are inert (recovery trusts
	// only the manifest) and the next checkpoint sweeps whatever this one
	// could not.
	for _, f := range old {
		if f != nil {
			f.Close()
		}
	}
	if err := d.sweepExcept(newGen, man); err != nil {
		d.fail(err)
	}
	return nil
}

// carries reports whether the last commit's bucket still holds exactly
// the store's rows for that bucket in the wanted compression state, so
// the next commit can name its segments again instead of rewriting
// them. Every row logged after that commit has a sequence number above
// committedSeq, so a bucket whose newest row is at or below it gained
// nothing; an equal row count then means it lost nothing either (a
// truncated segment, a missing file). A cold bucket that was the active
// one at the last commit is uncompressed and gets rewritten, and a bucket
// the last commit lacks has the zero info, whose 0 rows never match.
func (d *Durable) carries(info bucketInfo, st bucketStat, cold bool) bool {
	return info.Rows == st.rows && st.maxSeq <= d.committedSeq && info.Compressed == cold
}

// bucketsByStart indexes a commit's buckets by their start.
func bucketsByStart(infos []bucketInfo) map[int64]bucketInfo {
	m := make(map[int64]bucketInfo, len(infos))
	for _, info := range infos {
		m[info.Start] = info
	}
	return m
}

// sweepExcept removes segment files the manifest does not name (other
// generations' files, aborted-pass orphans, budget-evicted buckets), log
// files of any generation other than keep, and a stale manifest temp
// file.
func (d *Durable) sweepExcept(keep uint64, man *manifest) error {
	live := make(map[string]struct{})
	for _, b := range man.Buckets {
		for _, seg := range b.Segments {
			live[seg.Name] = struct{}{}
		}
	}
	entries, err := os.ReadDir(d.dir)
	if err != nil {
		return fmt.Errorf("store: sweep data dir: %w", err)
	}
	walKeep := fmt.Sprintf("wal-%08d-", keep)
	for _, e := range entries {
		name := e.Name()
		stale := name == manifestName+".tmp"
		if strings.HasPrefix(name, "seg-") {
			_, ok := live[name]
			stale = !ok
		} else if strings.HasPrefix(name, "wal-") {
			stale = !strings.HasPrefix(name, walKeep)
		}
		if stale {
			if err := os.Remove(filepath.Join(d.dir, name)); err != nil {
				return fmt.Errorf("store: sweep %s: %w", name, err)
			}
		}
	}
	return nil
}

// SetObserver installs the write-path observer on the underlying memory
// engine — every durable AddAll applies through it, so one hook covers
// both engines. Recovery runs before a caller can attach, so an engine
// that needs the recovered rows must rebuild from the store's contents
// first (aggregate.New does). The hook survives retention's store swap.
func (d *Durable) SetObserver(fn Observer) { d.mem.Load().SetObserver(fn) }

// SetPruneHook installs fn to run — under the exclusive write gate, with
// writers quiesced — after a checkpoint prunes buckets, so derived state
// can rebuild from the pruned store before appends resume. fn receives
// the directory's cumulative pruned row count (DurableStats.PrunedRows),
// which a restarted process reads back from the manifest. fn must not
// call back into the store's gated methods (Stats, AddAll, Compact).
// Install before concurrent writers start; nil removes it.
func (d *Durable) SetPruneHook(fn func(epoch uint64)) {
	d.writeGate.Lock()
	d.pruneHook = fn
	d.writeGate.Unlock()
}

// AddAll logs the batch shard by shard, then applies it to the memory
// engine — identical sequence numbers on both sides, so recovery replays
// the log into exactly the order live readers saw. Under FsyncAlways the
// involved logs are fsynced before AddAll returns. The log write and
// fsync run before the batch waits for its turn to apply, so concurrent
// batches still overlap their fsyncs; only the memory apply and the
// observer's fold run one batch at a time, in sequence order. A batch
// that crosses a checkpoint trigger (see due) runs the checkpoint itself
// before returning, so with one writer every checkpoint, and every prune
// decision it makes, follows from the write sequence alone. Write errors
// (disk full, closed store) do not panic mid-campaign: the batch stays
// visible in memory, the failure is sticky and surfaces on Sync and
// Close.
func (d *Durable) AddAll(os_ []Observation) {
	if len(os_) > 0 && d.logAndApply(os_) {
		// A checkpoint that lost the race against Close is not a
		// failure; the un-compacted log replays on the next open.
		if err := d.checkpoint(false); err != nil && !errors.Is(err, errClosed) {
			d.fail(err)
		}
	}
}

// logAndApply is AddAll's shared-gate half; it reports whether the
// applied batch left a checkpoint trigger holding.
func (d *Durable) logAndApply(os_ []Observation) bool {
	d.writeGate.RLock()
	defer d.writeGate.RUnlock()
	if d.closed {
		d.fail(fmt.Errorf("store: AddAll: %w", errClosed))
		return false
	}
	mem := d.mem.Load()
	base := mem.reserve(len(os_))

	var touched [numShards]bool
	groups, single := groupByShard(os_)
	logged := true
	if single >= 0 {
		seqs := make([]uint64, len(os_))
		for i := range seqs {
			seqs[i] = base + uint64(i) + 1
		}
		logged = d.logRecord(single, seqs, os_)
		touched[single] = true
	} else {
		for si := range groups {
			if len(groups[si]) == 0 {
				continue
			}
			seqs := make([]uint64, len(groups[si]))
			obs := make([]Observation, len(groups[si]))
			for j, i := range groups[si] {
				seqs[j] = base + uint64(i) + 1
				obs[j] = os_[i]
			}
			logged = d.logRecord(si, seqs, obs) && logged
			touched[si] = true
		}
	}

	if d.opts.Fsync == FsyncAlways {
		for si := range touched {
			if !touched[si] {
				continue
			}
			if err := d.wals[si].f.Sync(); err != nil {
				d.fail(fmt.Errorf("store: fsync wal: %w", err))
				logged = false
			}
		}
		// The watermark only moves for batches that provably reached
		// disk: a failed append or fsync must not let /api/stats claim
		// durability the next crash would disprove.
		if logged {
			d.advanceSynced(base + uint64(len(os_)))
		}
	}

	mem.apply(os_, nil, base)
	return d.due()
}

// due reports whether a checkpoint trigger holds: the logs outgrew
// CompactWALBytes, or retention is on and the dataset's active bucket
// is newer than the last commit's — the previous bucket just went cold
// and may now be compressible or prunable. The caller holds writeGate.
func (d *Durable) due() bool {
	if t := d.opts.CompactWALBytes; t > 0 && d.walBytes.Load() >= t {
		return true
	}
	return d.opts.retentionOn() && d.mem.Load().activeBucket() > d.committedActive
}

// logRecord frames and appends one record to a shard's log, reporting
// whether the append reached the file. A failed append may have written
// a partial frame, after which recovery would discard everything later
// in that log as the torn tail — so the first failure poisons the shard
// and every subsequent record is refused (kept in memory only, never
// counted durable) until a checkpoint swaps in a fresh file.
func (d *Durable) logRecord(shard int, seqs []uint64, obs []Observation) bool {
	buf, err := appendWALRecord(nil, seqs, obs)
	if err != nil {
		d.fail(err)
		return false
	}
	ws := &d.wals[shard]
	ws.mu.Lock()
	if ws.poisoned {
		ws.mu.Unlock()
		return false
	}
	_, werr := ws.f.Write(buf)
	if werr != nil {
		ws.poisoned = true
	}
	ws.mu.Unlock()
	if werr != nil {
		d.fail(fmt.Errorf("store: append wal: %w", werr))
		return false
	}
	d.walBytes.Add(int64(len(buf)))
	return true
}

// advanceSynced lifts the durable watermark to seq, never lowering it.
// Once any record has been dropped (a failed append keeps its rows in
// memory only), a sequence watermark cannot truthfully advance — a
// concurrent healthy batch with higher sequences would sweep the dropped
// rows under its claim — so the watermark freezes until a checkpoint
// re-establishes durability for the whole in-memory state.
func (d *Durable) advanceSynced(seq uint64) {
	if d.failed.Load() {
		return
	}
	for {
		cur := d.synced.Load()
		if cur >= seq || d.synced.CompareAndSwap(cur, seq) {
			return
		}
	}
}

// Sync flushes every shard log to stable storage and returns the first
// write error the store has seen (nil when healthy). After Sync returns,
// every AddAll that completed before the call survives a crash.
func (d *Durable) Sync() error {
	d.writeGate.Lock()
	defer d.writeGate.Unlock()
	if !d.closed {
		d.syncAllLocked()
	}
	return d.Err()
}

// syncAllLocked fsyncs every log under the exclusive gate (so every
// reserved sequence has been written) and lifts the watermark.
func (d *Durable) syncAllLocked() {
	for si := range d.wals {
		if err := d.wals[si].f.Sync(); err != nil {
			d.fail(fmt.Errorf("store: fsync wal: %w", err))
			return
		}
	}
	d.advanceSynced(d.mem.Load().seq.Load())
}

// Compact commits the current state as a fresh snapshot generation —
// applying retention and cold-bucket compression — and empties the logs:
// the forced form of the checkpoint a crossing AddAll runs. Writers
// pause for the duration, which is the rewrite of the buckets changed
// since the last commit: unchanged buckets carry forward.
func (d *Durable) Compact() error { return d.checkpoint(true) }

// checkpoint is the one way a checkpoint runs: on the caller's goroutine,
// under the exclusive writeGate, so every reserved batch has applied.
// Unless forced it first rechecks the trigger, which another writer that
// crossed the same one may already have served.
func (d *Durable) checkpoint(force bool) error {
	d.writeGate.Lock()
	defer d.writeGate.Unlock()
	if d.closed {
		return fmt.Errorf("store: Compact: %w", errClosed)
	}
	if !force && !d.due() {
		return nil
	}
	return d.checkpointLocked()
}

// Close flushes, fsyncs and closes the logs. The directory is left in the
// same state a crash after a Sync would leave — the next open recovers it
// identically — so Close is a flush point, not a format transition.
func (d *Durable) Close() error {
	if d.stopSync != nil {
		d.stopOnce.Do(func() {
			close(d.stopSync)
			<-d.syncDone
		})
	}
	d.writeGate.Lock()
	defer d.writeGate.Unlock()
	if d.closed {
		return d.Err()
	}
	d.syncAllLocked()
	d.closed = true
	for si := range d.wals {
		if err := d.wals[si].f.Close(); err != nil {
			d.fail(fmt.Errorf("store: close wal: %w", err))
		}
	}
	if d.lock != nil {
		d.lock.Close() // releases the directory's single-writer flock
	}
	return d.Err()
}

// syncLoop is the FsyncInterval background flusher.
func (d *Durable) syncLoop() {
	defer close(d.syncDone)
	t := time.NewTicker(d.opts.SyncInterval)
	defer t.Stop()
	for {
		select {
		case <-t.C:
			d.Sync()
		case <-d.stopSync:
			return
		}
	}
}

// fail records the store's first error; later ones are dropped (the first
// is almost always the cause, the rest fallout).
func (d *Durable) fail(err error) {
	d.failed.Store(true)
	d.errMu.Lock()
	if d.firstErr == nil {
		d.firstErr = err
	}
	d.errMu.Unlock()
}

// Err returns the sticky first write error, nil while healthy.
func (d *Durable) Err() error {
	d.errMu.Lock()
	defer d.errMu.Unlock()
	return d.firstErr
}

// DurableStats is the monitoring view of the durable engine.
type DurableStats struct {
	// Dir is the data directory.
	Dir string `json:"dir"`
	// Fsync names the flush policy.
	Fsync string `json:"fsync"`
	// Generation is the committed snapshot generation.
	Generation uint64 `json:"generation"`
	// SnapshotRows is the committed snapshot's observation count.
	SnapshotRows uint64 `json:"snapshot_rows"`
	// SnapshotBuckets is the committed snapshot's live bucket count;
	// CompressedBuckets of them are cold (gzipped); SnapshotBytes is
	// their total on-disk size.
	SnapshotBuckets   int   `json:"snapshot_buckets"`
	CompressedBuckets int   `json:"compressed_buckets"`
	SnapshotBytes     int64 `json:"snapshot_bytes"`
	// BucketSeconds is the time-bucket width.
	BucketSeconds int64 `json:"bucket_seconds"`
	// RetainAgeSeconds and RetainBytes echo the retention knobs (0 = off).
	RetainAgeSeconds int64 `json:"retain_age_seconds,omitempty"`
	RetainBytes      int64 `json:"retain_bytes,omitempty"`
	// PrunedBuckets, PrunedRows and PrunedBytes accumulate what retention
	// has dropped over the directory's lifetime.
	PrunedBuckets uint64 `json:"pruned_buckets"`
	PrunedRows    uint64 `json:"pruned_rows"`
	PrunedBytes   uint64 `json:"pruned_bytes"`
	// WALBytes is the current generation's total log size.
	WALBytes int64 `json:"wal_bytes"`
	// SyncedSeq is the durable watermark. It is exact whenever no AddAll
	// is in flight (after Sync, after quiesce, and — since always-mode
	// batches fsync before returning — at any point a caller observes
	// its own write completed); while concurrent always-mode batches are
	// mid-fsync it may briefly run ahead of a slower sibling's batch.
	SyncedSeq uint64 `json:"synced_seq"`
}

// Stats snapshots the durability counters.
func (d *Durable) Stats() DurableStats {
	st := DurableStats{
		Dir:              d.dir,
		Fsync:            d.opts.Fsync.String(),
		BucketSeconds:    d.mem.Load().BucketSeconds(),
		RetainAgeSeconds: int64(d.opts.RetainAge / time.Second),
		RetainBytes:      d.opts.RetainBytes,
		WALBytes:         d.walBytes.Load(),
		SyncedSeq:        d.synced.Load(),
	}
	d.writeGate.RLock()
	defer d.writeGate.RUnlock()
	st.Generation = d.gen
	st.SnapshotBuckets = len(d.committed)
	for _, info := range d.committed {
		st.SnapshotRows += uint64(info.Rows)
		st.SnapshotBytes += info.Bytes
		if info.Compressed {
			st.CompressedBuckets++
		}
	}
	st.PrunedBuckets, st.PrunedRows, st.PrunedBytes = d.pruned.Buckets, d.pruned.Rows, d.pruned.Bytes
	return st
}

// The Reader surface delegates to the memory engine — the durable store's
// read path IS the sharded in-memory engine, so queries cost exactly what
// they cost before durability existed. The pointer is loaded once per
// call: a concurrent retention swap never splits one operation across
// two stores.

func (d *Durable) Len() int                           { return d.mem.Load().Len() }
func (d *Durable) LenOK() int                         { return d.mem.Load().LenOK() }
func (d *Durable) LenSource(source string) (int, int) { return d.mem.Load().LenSource(source) }
func (d *Durable) LenVP(vp string) int                { return d.mem.Load().LenVP(vp) }
func (d *Durable) Scan(q Query) iter.Seq[Observation] { return d.mem.Load().Scan(q) }
func (d *Durable) ScanRange(q Query, after, upto uint64) iter.Seq2[uint64, Observation] {
	return d.mem.Load().ScanRange(q, after, upto)
}
func (d *Durable) Watermark() uint64            { return d.mem.Load().Watermark() }
func (d *Durable) Filter(q Query) []Observation { return d.mem.Load().Filter(q) }
func (d *Durable) Domains() []string            { return d.mem.Load().Domains() }
func (d *Durable) Products(domain string) []Key { return d.mem.Load().Products(domain) }
func (d *Durable) Groups(source string) iter.Seq2[Key, []Observation] {
	return d.mem.Load().Groups(source)
}
func (d *Durable) DomainGroups(domain, source string) iter.Seq2[Key, []Observation] {
	return d.mem.Load().DomainGroups(domain, source)
}
func (d *Durable) WriteJSONL(w io.Writer) error { return d.mem.Load().WriteJSONL(w) }

// ScanStats snapshots the time-range pushdown counters (see Store.ScanStats).
func (d *Durable) ScanStats() ScanStats { return d.mem.Load().ScanStats() }

// TenantCounts snapshots per-tenant contribution counts (see
// Store.TenantCounts).
func (d *Durable) TenantCounts() map[string]TenantCount { return d.mem.Load().TenantCounts() }

// BucketSeconds reports the engine's time-bucket width.
func (d *Durable) BucketSeconds() int64 { return d.mem.Load().BucketSeconds() }
