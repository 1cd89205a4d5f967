package store

import (
	"bufio"
	"compress/gzip"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"io/fs"
	"os"
	"path/filepath"
	"strings"
)

// A snapshot is the dataset at one instant, compacted out of the WAL
// into segments keyed by time bucket: each bucket's rows are written as
// JSON Lines (one {"seq","obs"} row per observation, in sequence order),
// split into bounded segments so no single file grows without limit and
// a truncated tail costs at most one segment's worth of rows. Cold
// buckets — every bucket except the newest one holding data — are
// gzip-compressed; the reader decompresses transparently. Rows carry
// their sequence numbers so recovery can re-merge buckets back into
// exact admission order, which keeps the recovered dataset byte-
// identical to what live readers saw.
//
// Segment files are immutable: a commit either names a bucket's files
// from the previous commit again, unchanged, or writes the bucket anew.
//
// The manifest is the commit record: a snapshot exists only once
// MANIFEST.json names its buckets and segments, and the manifest is
// replaced atomically (write temp, fsync, rename, fsync directory), so
// a crash mid-compaction leaves the previous generation fully intact
// and the half-written files orphaned. Retention is recorded there too:
// a pruned bucket is simply absent from the committed manifest, and the
// cumulative prune totals ride along so restarts keep reporting what
// retention has dropped.

// manifestName is the data directory's commit record.
const manifestName = "MANIFEST.json"

// manifest describes one committed snapshot generation.
type manifest struct {
	// Version guards the on-disk format.
	Version int `json:"version"`
	// Generation increments with every committed snapshot; WAL file
	// names embed it, so other generations' logs are recognizable
	// orphans. A segment's name embeds the generation that wrote it,
	// which is older than this one when its bucket carried forward
	// unchanged: a segment is live exactly when the manifest names it.
	Generation uint64 `json:"generation"`
	// Rows is the snapshot's total observation count across buckets.
	Rows uint64 `json:"rows"`
	// MaxSeq is the sequence counter at commit time: every WAL record of
	// this generation carries sequence numbers > MaxSeq. (Retention can
	// leave holes below it, so MaxSeq can exceed Rows.)
	MaxSeq uint64 `json:"max_seq"`
	// BucketSeconds is the bucket width segments are keyed by.
	BucketSeconds int64 `json:"bucket_seconds"`
	// Buckets lists the live buckets, oldest first.
	Buckets []bucketInfo `json:"buckets"`
	// Pruned accumulates what retention has dropped over the directory's
	// lifetime — recovery reports it, stats surface it.
	Pruned PruneTotals `json:"pruned,omitempty"`
	// Epoch is the directory's replication identity: a random nonzero ID
	// minted on first writable open and carried across generations. A
	// follower pins the first epoch it streams from; a primary that was
	// replaced or reset mints a new one, which the follower refuses
	// rather than silently mixing two histories. Absent (0) on manifests
	// from before replication existed — bootstrapped on the next open.
	Epoch uint64 `json:"epoch,omitempty"`
}

// bucketInfo describes one live bucket's segments.
type bucketInfo struct {
	// Start is the bucket's inclusive start, unix seconds; the bucket
	// covers [Start, Start+BucketSeconds).
	Start int64 `json:"start"`
	// Rows and Bytes total the bucket's segments.
	Rows  int   `json:"rows"`
	Bytes int64 `json:"bytes"`
	// Compressed marks a cold (gzipped) bucket.
	Compressed bool `json:"compressed,omitempty"`
	// Segments lists the bucket's files in sequence order.
	Segments []segmentInfo `json:"segments"`
}

// segmentInfo pins one segment's expected shape so recovery can tell a
// complete segment from a truncated one.
type segmentInfo struct {
	Name  string `json:"name"`
	Rows  int    `json:"rows"`
	Bytes int64  `json:"bytes"`
}

// PruneTotals accumulates retention's work across the directory's life.
type PruneTotals struct {
	// Buckets, Rows and Bytes count what pruning dropped, cumulatively.
	Buckets uint64 `json:"buckets"`
	Rows    uint64 `json:"rows"`
	Bytes   uint64 `json:"bytes"`
}

// manifestVersion is the current on-disk format: 2 re-keyed segments by
// time bucket (v1 kept one flat segment list).
const manifestVersion = 2

// segmentFile names one snapshot segment: generation, bucket start,
// index within the bucket, with .gz marking a compressed cold bucket.
func segmentFile(gen uint64, bucket int64, idx int, compressed bool) string {
	name := fmt.Sprintf("seg-%08d-b%d-%05d.jsonl", gen, bucket, idx)
	if compressed {
		name += ".gz"
	}
	return name
}

// walFile names generation gen's log for one shard.
func walFile(gen uint64, shard int) string {
	return fmt.Sprintf("wal-%08d-%02d.log", gen, shard)
}

// readManifest loads the directory's commit record. A missing file is the
// empty dataset (generation 0); an unreadable or undecodable one is a
// real error — the manifest is written atomically, so damage to it is not
// a crash artifact recovery should paper over.
func readManifest(dir string) (*manifest, error) {
	data, err := os.ReadFile(filepath.Join(dir, manifestName))
	if errors.Is(err, fs.ErrNotExist) {
		return &manifest{Version: manifestVersion}, nil
	}
	if err != nil {
		return nil, fmt.Errorf("store: read manifest: %w", err)
	}
	var m manifest
	if err := json.Unmarshal(data, &m); err != nil {
		return nil, fmt.Errorf("store: parse manifest: %w", err)
	}
	if m.Version != manifestVersion {
		return nil, fmt.Errorf("store: manifest version %d unsupported (want %d)", m.Version, manifestVersion)
	}
	return &m, nil
}

// commitManifest atomically replaces the directory's manifest.
func commitManifest(dir string, m *manifest) error {
	data, err := json.MarshalIndent(m, "", "  ")
	if err != nil {
		return fmt.Errorf("store: encode manifest: %w", err)
	}
	return ReplaceFile(filepath.Join(dir, manifestName), append(data, '\n'), 0o644)
}

// ReplaceFile atomically replaces path with data: write a temp file
// (path + ".tmp", created with perm), fsync it, rename it over path, then
// fsync the directory so the rename itself is durable. A crash leaves
// either the old file or the new one, never a torn one. The manifest and
// the tenant snapshot both commit through it.
func ReplaceFile(path string, data []byte, perm os.FileMode) error {
	name := filepath.Base(path)
	tmp := path + ".tmp"
	f, err := os.OpenFile(tmp, os.O_CREATE|os.O_TRUNC|os.O_WRONLY, perm)
	if err != nil {
		return fmt.Errorf("store: write %s: %w", name, err)
	}
	if _, err := f.Write(data); err != nil {
		f.Close()
		return fmt.Errorf("store: write %s: %w", name, err)
	}
	if err := f.Sync(); err != nil {
		f.Close()
		return fmt.Errorf("store: sync %s: %w", name, err)
	}
	if err := f.Close(); err != nil {
		return fmt.Errorf("store: close %s: %w", name, err)
	}
	if err := os.Rename(tmp, path); err != nil {
		return fmt.Errorf("store: commit %s: %w", name, err)
	}
	d, err := os.Open(filepath.Dir(path))
	if err != nil {
		return fmt.Errorf("store: open dir for sync: %w", err)
	}
	defer d.Close()
	if err := d.Sync(); err != nil {
		return fmt.Errorf("store: sync dir: %w", err)
	}
	return nil
}

// segRow is the on-disk row: the observation plus the sequence number
// it held when written, so recovery can interleave buckets back into
// admission order.
type segRow struct {
	Seq uint64      `json:"seq"`
	Obs Observation `json:"obs"`
}

// writeBucket dumps one bucket of src as generation gen's segments, each
// at most segBytes on disk (a row never splits: segments rotate on the
// boundary after the limit is crossed; for compressed buckets the limit
// applies to compressed bytes). Every segment is fsynced before the
// caller commits the manifest that names it. Files are created under
// their final names — an aborted pass leaves orphans of an uncommitted
// generation, which the post-commit sweep (or the next open) removes.
func writeBucket(dir string, gen uint64, src *Store, bucket int64, compressed bool, segBytes int64) (bucketInfo, error) {
	info := bucketInfo{Start: bucket, Compressed: compressed}
	var (
		f   *os.File
		gz  *gzip.Writer
		bw  *bufio.Writer
		cur segmentInfo
	)
	closeCurrent := func() error {
		if f == nil {
			return nil
		}
		if err := bw.Flush(); err != nil {
			f.Close()
			return fmt.Errorf("store: flush segment %s: %w", cur.Name, err)
		}
		if gz != nil {
			if err := gz.Close(); err != nil {
				f.Close()
				return fmt.Errorf("store: close gzip %s: %w", cur.Name, err)
			}
		}
		if err := f.Sync(); err != nil {
			f.Close()
			return fmt.Errorf("store: sync segment %s: %w", cur.Name, err)
		}
		if err := f.Close(); err != nil {
			return fmt.Errorf("store: close segment %s: %w", cur.Name, err)
		}
		info.Bytes += cur.Bytes
		info.Segments = append(info.Segments, cur)
		f, gz, bw = nil, nil, nil
		return nil
	}
	emit := func(seq uint64, o *Observation) error {
		if f != nil && cur.Bytes >= segBytes {
			if err := closeCurrent(); err != nil {
				return err
			}
		}
		if f == nil {
			cur = segmentInfo{Name: segmentFile(gen, bucket, len(info.Segments), compressed)}
			var err error
			f, err = os.OpenFile(filepath.Join(dir, cur.Name), os.O_CREATE|os.O_TRUNC|os.O_WRONLY, 0o644)
			if err != nil {
				return fmt.Errorf("store: create segment %s: %w", cur.Name, err)
			}
			// cur.Bytes counts what lands in the file (compressed bytes
			// for cold buckets), which is what rotation and the disk
			// budget care about. Rows always go to the bufio layer; the
			// gzip layer, when present, sits between it and the counter.
			counted := io.Writer(&countingWriter{w: f, n: &cur.Bytes})
			if compressed {
				// BestSpeed: a bucket compresses inside the writers'
				// pause of the checkpoint that turns it cold, and the
				// cold data is mostly-redundant JSON, which compresses
				// well at any level.
				gz, _ = gzip.NewWriterLevel(counted, gzip.BestSpeed)
				bw = bufio.NewWriter(gz)
			} else {
				bw = bufio.NewWriter(counted)
			}
		}
		row, err := appendSegRow(bw.AvailableBuffer(), seq, o)
		if err != nil {
			return err
		}
		info.Rows++
		cur.Rows++
		_, err = bw.Write(append(row, '\n'))
		return err
	}
	if err := src.dumpBucket(bucket, emit); err != nil {
		if f != nil {
			f.Close()
		}
		return bucketInfo{}, err
	}
	if err := closeCurrent(); err != nil {
		return bucketInfo{}, err
	}
	return info, nil
}

// countingWriter tracks bytes written so segment rotation can trigger on
// size without re-stating the encoder's output.
type countingWriter struct {
	w io.Writer
	n *int64
}

func (cw *countingWriter) Write(p []byte) (int, error) {
	n, err := cw.w.Write(p)
	*cw.n += int64(n)
	return n, err
}

// loadSegment appends one snapshot segment's rows to dst, tolerating a
// truncated tail: complete rows load, the first broken row ends the
// segment, and the shortfall against the manifest's expectation is
// returned as lost rows. A missing file — or a compressed segment whose
// gzip header is gone — loses the whole segment. The .gz
// suffix picks the transparent-decompression path, so callers never care
// whether a bucket was cold when written. Decoded strings are interned
// in strs.
func loadSegment(dir string, info segmentInfo, dst *[]segRow, strs map[string]string) (lost int, err error) {
	f, err := os.Open(filepath.Join(dir, info.Name))
	if errors.Is(err, fs.ErrNotExist) {
		return info.Rows, nil
	}
	if err != nil {
		return 0, fmt.Errorf("store: open segment %s: %w", info.Name, err)
	}
	defer f.Close()

	var r io.Reader = f
	if strings.HasSuffix(info.Name, ".gz") {
		gz, err := gzip.NewReader(bufio.NewReader(f))
		if err != nil {
			// Header never made it to disk: the crash artifact form of a
			// compressed segment. Nothing is recoverable from it.
			return info.Rows, nil
		}
		defer gz.Close()
		r = gz
	}
	in := newJSONStream(r, strs)
	rows := 0
	var row segRow
	for {
		err := in.next(func(d *decoder) error {
			row = segRow{}
			return d.segRow(&row)
		})
		if err != nil {
			// EOF is the clean end; anything else is the torn tail of a
			// segment that lost its last write — keep what decoded.
			break
		}
		rows++
		*dst = append(*dst, row)
	}
	if rows < info.Rows {
		return info.Rows - rows, nil
	}
	return 0, nil
}
