// Format compatibility: a data directory written the way encoding/json
// writes observations — the format every existing directory is in —
// must recover through the store's own codec to exactly the bytes
// encoding/json would produce, on every read path.
package sheriff_test

import (
	"bytes"
	"compress/gzip"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"hash/crc32"
	"io"
	"log"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"testing"
	"time"

	"sheriff"
)

// The on-disk shapes, mirrored here with their JSON tags so this test
// writes a data directory independently of the store's own writer.
type (
	oldSegRow struct {
		Seq uint64              `json:"seq"`
		Obs sheriff.Observation `json:"obs"`
	}
	oldWALRecord struct {
		Seqs []uint64              `json:"seqs"`
		Obs  []sheriff.Observation `json:"obs"`
	}
	oldSegment struct {
		Name  string `json:"name"`
		Rows  int    `json:"rows"`
		Bytes int64  `json:"bytes"`
	}
	oldBucket struct {
		Start      int64        `json:"start"`
		Rows       int          `json:"rows"`
		Bytes      int64        `json:"bytes"`
		Compressed bool         `json:"compressed,omitempty"`
		Segments   []oldSegment `json:"segments"`
	}
	oldManifest struct {
		Version       int         `json:"version"`
		Generation    uint64      `json:"generation"`
		Rows          uint64      `json:"rows"`
		MaxSeq        uint64      `json:"max_seq"`
		BucketSeconds int64       `json:"bucket_seconds"`
		Buckets       []oldBucket `json:"buckets"`
	}
)

// compatObservations builds rows whose strings exercise JSON escaping:
// HTML specials, quotes, control bytes, U+2028/U+2029 and non-ASCII.
func compatObservations(n int, day time.Time) []sheriff.Observation {
	odd := []string{"", `<b>&amp;"q"</b>`, "tab\there\nnl", "\u2028\u2029", "Zürich – São Paulo", "\x01\x1f\\"}
	out := make([]sheriff.Observation, n)
	for i := range out {
		o := sheriff.Observation{
			Domain: fmt.Sprintf("www.shop%d.example", i%3), SKU: fmt.Sprintf("P-%d", i%5),
			URL: fmt.Sprintf("http://www.shop%d.example/p?id=%d&x=<y>", i%3, i%5),
			VP:  fmt.Sprintf("vp-%d", i%14), VPLabel: "USA - " + odd[i%len(odd)],
			Country: "US", City: odd[(i+1)%len(odd)], PriceUnits: int64(999 + i),
			Currency: "USD", Time: day.Add(time.Duration(i) * time.Minute), Round: -1,
			Source: "crowd", UserCountry: "FI", OK: i%4 != 0,
		}
		if !o.OK {
			o.Err = "extract: " + odd[i%len(odd)]
		}
		if i%7 == 0 {
			o.Tenant, o.Account, o.Segment = "t1", "acct", "budget"
		}
		out[i] = o
	}
	return out
}

// writeOldSegment writes rows as one JSON Lines segment with a
// json.Encoder, gzipped when compressed, and returns its manifest entry.
func writeOldSegment(t *testing.T, dir, name string, firstSeq uint64, rows []sheriff.Observation, compressed bool) oldBucket {
	t.Helper()
	var raw bytes.Buffer
	enc := json.NewEncoder(&raw)
	for i := range rows {
		if err := enc.Encode(oldSegRow{Seq: firstSeq + uint64(i), Obs: rows[i]}); err != nil {
			t.Fatal(err)
		}
	}
	data := raw.Bytes()
	if compressed {
		var gz bytes.Buffer
		zw := gzip.NewWriter(&gz)
		if _, err := zw.Write(data); err != nil {
			t.Fatal(err)
		}
		if err := zw.Close(); err != nil {
			t.Fatal(err)
		}
		data = gz.Bytes()
	}
	if err := os.WriteFile(filepath.Join(dir, name), data, 0o644); err != nil {
		t.Fatal(err)
	}
	return oldBucket{
		Start: rows[0].Time.Unix() / 86400 * 86400, Rows: len(rows), Bytes: int64(len(data)),
		Compressed: compressed, Segments: []oldSegment{{Name: name, Rows: len(rows), Bytes: int64(len(data))}},
	}
}

// appendOldFrame frames one WAL record the way the log is laid out:
// uint32 length, uint32 CRC-32C, then the json.Marshal payload.
func appendOldFrame(t *testing.T, buf []byte, rec oldWALRecord) []byte {
	t.Helper()
	payload, err := json.Marshal(rec)
	if err != nil {
		t.Fatal(err)
	}
	var hdr [8]byte
	binary.LittleEndian.PutUint32(hdr[0:4], uint32(len(payload)))
	binary.LittleEndian.PutUint32(hdr[4:8], crc32.Checksum(payload, crc32.MakeTable(crc32.Castagnoli)))
	return append(append(buf, hdr[:]...), payload...)
}

func TestOldWriterDataDirCompat(t *testing.T) {
	dir := t.TempDir()
	day := time.Date(2013, 1, 10, 0, 0, 0, 0, time.UTC)
	cold := compatObservations(40, day)
	active := compatObservations(30, day.AddDate(0, 0, 1))
	walTail := compatObservations(28, day.AddDate(0, 0, 1).Add(12*time.Hour))

	man := oldManifest{Version: 2, Generation: 1, BucketSeconds: 86400}
	man.Buckets = append(man.Buckets,
		writeOldSegment(t, dir, fmt.Sprintf("seg-%08d-b%d-%05d.jsonl.gz", 1, day.Unix(), 0), 1, cold, true),
		writeOldSegment(t, dir, fmt.Sprintf("seg-%08d-b%d-%05d.jsonl", 1, day.Unix()+86400, 0), 41, active, false))
	man.Rows, man.MaxSeq = 70, 70
	mdata, err := json.MarshalIndent(man, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, "MANIFEST.json"), append(mdata, '\n'), 0o644); err != nil {
		t.Fatal(err)
	}
	// The tail: two-batch records interleaved across two shard logs.
	logs := map[int][]byte{}
	for b := 0; b*14 < len(walTail); b++ {
		rows := walTail[b*14 : min(len(walTail), (b+1)*14)]
		seqs := make([]uint64, len(rows))
		for i := range seqs {
			seqs[i] = 71 + uint64(b*14+i)
		}
		logs[b%2] = appendOldFrame(t, logs[b%2], oldWALRecord{Seqs: seqs, Obs: rows})
	}
	for shard, data := range logs {
		if err := os.WriteFile(filepath.Join(dir, fmt.Sprintf("wal-%08d-%02d.log", 1, shard)), data, 0o644); err != nil {
			t.Fatal(err)
		}
	}

	// The oracle: encoding/json's JSON Lines of every row in sequence
	// order.
	var oracle bytes.Buffer
	enc := json.NewEncoder(&oracle)
	for _, rows := range [][]sheriff.Observation{cold, active, walTail} {
		for i := range rows {
			if err := enc.Encode(rows[i]); err != nil {
				t.Fatal(err)
			}
		}
	}

	st, rep, err := sheriff.OpenDataDirReadOnly(dir)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Rows() != 98 || rep.WALRows != 28 || rep.SegmentRowsLost != 0 || rep.CompressedBuckets != 1 {
		t.Fatalf("recovery report %+v", rep)
	}
	var got bytes.Buffer
	if err := st.WriteJSONL(&got); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got.Bytes(), oracle.Bytes()) {
		t.Fatalf("WriteJSONL after recovery differs from encoding/json:\n got %q\nwant %q", got.Bytes(), oracle.Bytes())
	}

	// The NDJSON export serves the same lines.
	srv := httptest.NewServer(sheriff.NewAPIWithOptions(sheriff.NewWorld(sheriff.WorldOptions{Seed: 1, Store: st}),
		sheriff.APIOptions{Logger: log.New(io.Discard, "", 0)}))
	defer srv.Close()
	req, err := http.NewRequest(http.MethodGet, srv.URL+"/api/v1/observations", nil)
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Accept", "application/x-ndjson")
	resp, err := srv.Client().Do(req)
	if err != nil {
		t.Fatal(err)
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil || resp.StatusCode != http.StatusOK {
		t.Fatalf("ndjson export: %d %v", resp.StatusCode, err)
	}
	if !bytes.Equal(body, oracle.Bytes()) {
		t.Fatalf("NDJSON export differs from WriteJSONL:\n got %q\nwant %q", body, oracle.Bytes())
	}

	// A writable open checkpoints the replayed tail through the codec's
	// encoder; the rewritten directory must still read back the same.
	d, _, err := sheriff.OpenDataDir(dir, sheriff.DurableOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if err := d.Close(); err != nil {
		t.Fatal(err)
	}
	again, _, err := sheriff.OpenDataDirReadOnly(dir)
	if err != nil {
		t.Fatal(err)
	}
	got.Reset()
	if err := again.WriteJSONL(&got); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got.Bytes(), oracle.Bytes()) {
		t.Fatal("WriteJSONL after a checkpoint differs from encoding/json")
	}
	// And ReadDataset reads those bytes back to the same dataset.
	back, err := sheriff.ReadDataset(bytes.NewReader(oracle.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	got.Reset()
	if err := back.WriteJSONL(&got); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got.Bytes(), oracle.Bytes()) {
		t.Fatal("ReadDataset/WriteJSONL round trip differs from encoding/json")
	}
}
