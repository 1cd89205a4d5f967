package store

import (
	"bufio"
	"bytes"
	"compress/gzip"
	"encoding/binary"
	"encoding/json"
	"errors"
	"io"
	"os"
	"path/filepath"
	"reflect"
	"strconv"
	"strings"
	"testing"
	"testing/iotest"
	"time"
)

// codecSeeds are the edge cases where a hand-written JSON codec most
// easily drifts from encoding/json.
var codecSeeds = []string{
	// Escaping: HTML specials, line/paragraph separators, short escapes,
	// other control bytes, raw and escaped non-ASCII.
	`{"domain":"<a&b>","sku":"\u2028\u2029","url":"\b\f\n\r\t\u0001\u001f","vp":"\"\\\/","city":"Zürich","err":"\u00e9"}`,
	// Surrogates: a pair, lone halves, a half followed by a non-half.
	`{"domain":"\ud83d\ude00","sku":"\ud800","url":"\udc00\ud800","vp":"\ud800\u0041","city":"\uD834\uDD1E"}`,
	"{\"domain\":\"\xff\xfe\",\"sku\":\"a\xc3\",\"url\":\"\xed\xa0\x80\",\"vp\":\"\xef\xbf\xbd\"}",
	// Whitespace everywhere.
	" \t\n\r{ \"domain\" : \"x\" ,\n\"ok\"\t:\rtrue , \"price_units\" : -12 } \n",
	// Unknown keys with every kind of value.
	`{"extra":{"a":[1,2,{"b":null}],"c":"d"},"domain":"x","zzz":-1.5e+3,"t":true,"f":false,"n":null,"e":[],"o":{}}`,
	// Case-insensitive keys, including the Kelvin sign and long s, which
	// fold to k and s under Unicode simple folding.
	`{"DOMAIN":"x","Sku":"y","ſource":"s","VP_Label":"l","price_UNITS":5,"OK":true,"ſku":"z","S\u212aU":"k","\u0064omain":"esc"}`,
	// null is a no-op for every field, and for the whole value.
	`{"domain":null,"time":null,"ok":null,"price_units":null,"round":null}`,
	`null`,
	` null `,
	`{"seqs":null,"obs":null,"w":null}`,
	`{"seq":null,"obs":null}`,
	// Duplicate keys: the last one wins, objects merge.
	`{"domain":"a","domain":"b","ok":true,"ok":false}`,
	`{"obs":{"domain":"a"},"obs":{"sku":"b"},"seq":1,"seq":2}`,
	`{"obs":[{"domain":"a"},{"domain":"b"}],"obs":[{"sku":"x"}],"obs":[{},{}],"seqs":[1,2],"seqs":[null,null],"seqs":[]}`,
	`{"seqs":[1,2,3],"obs":[{},{},{}],"w":7}`,
	`{"seqs":[],"obs":[]}`,
	// Integer range and syntax.
	`{"price_units":9223372036854775807,"round":-9223372036854775808}`,
	`{"price_units":9223372036854775808}`,
	`{"seq":18446744073709551615}`,
	`{"seq":18446744073709551616}`,
	`{"seq":-0}`,
	`{"price_units":-0}`,
	`{"price_units":1.0}`,
	`{"price_units":1e3}`,
	`{"price_units":01}`,
	`{"price_units":-}`,
	`{"round":1.5}`,
	`{"seqs":[1,-1]}`,
	`{"w":1E+2}`,
	// Time: RFC 3339 forms, the year range, non-strings.
	`{"time":"2013-01-10T08:00:00Z"}`,
	`{"time":"2013-01-10T08:00:00.123456789+05:30"}`,
	`{"time":"0000-01-01T00:00:00Z"}`,
	`{"time":"9999-12-31T23:59:59.999999999-23:59"}`,
	`{"time":"10000-01-01T00:00:00Z"}`,
	`{"time":"2013-01-10T08:00:00\u005a"}`,
	`{"time":"2013-01-10 08:00:00Z"}`,
	`{"time":12}`,
	`{"time":{}}`,
	`{"time":["2013-01-10T08:00:00Z"]}`,
	// Omitempty fields set and unset.
	`{"account":"a","segment":"s","user_country":"FI","tenant":"t","err":"e"}`,
	`{"account":"","segment":"","err":""}`,
	// Wrong kinds.
	`{"domain":1}`, `{"ok":1}`, `{"ok":"true"}`, `{"price_units":"1"}`, `{"obs":{}}`, `{"seqs":{}}`,
	`{"obs":[1]}`, `[]`, `"str"`, `1`, `true`,
	// Syntax errors.
	`{"domain":"x",}`, `{"domain" "x"}`, `{"domain":"x"} x`, "{\"domain\":\"\x01\"}", `{"domain":"\q"}`,
	`{"domain":"\u12"}`, `nul`, `{"ok":tru}`, `{`, `{"domain":"x"`, `{"domain":"x`, ``, ` `, `}`,
	`{"a":[1,]}`, `{"a":[,1]}`, `{,}`, `{"a":1 "b":2}`, "\ufeff{}",
	// Streams of values.
	"{\"seq\":1,\"obs\":{}}\n{\"seq\":2,\"obs\":{\"domain\":\"x\"}}\n",
	`{}{}`, `null null`, `nullx`, `null{}`, `{} x`, `123 {}`, `"s" {}`, "{\"seq\":1}\n{\"seq\":",
	// Nesting at and past encoding/json's depth limit.
	`{"x":` + strings.Repeat("[", maxDepth-1) + strings.Repeat("]", maxDepth-1) + `}`,
	`{"x":` + strings.Repeat("[", maxDepth) + strings.Repeat("]", maxDepth) + `}`,
}

// FuzzObservationJSON holds the codec to encoding/json: fed the same
// bytes as a bare Observation, a segRow and a walRecord, both must make
// the same accept/reject decision and, on accept, produce equal values;
// every accepted value must then encode to json.Marshal's exact bytes.
// The same bytes read as a stream must yield the rows a json.Decoder
// yields, even when the reader hands them over one byte at a time. And
// the bytes used raw as string fields (invalid UTF-8 included, which no
// decoded string carries) must encode like json.Marshal.
func FuzzObservationJSON(f *testing.F) {
	full := Observation{
		Domain: "www.shop.example", SKU: "P-1", URL: "http://www.shop.example/product/P-1?a=1&b=<2>",
		VP: "us-bos", VPLabel: "USA - Boston", Country: "US", City: "Boston",
		PriceUnits: 12345, Currency: "USD", Time: time.Date(2013, 1, 10, 8, 0, 0, 500, time.UTC),
		Round: -1, Source: SourceCrowd, Account: "acct", Segment: "affluent", UserCountry: "FI",
		Tenant: "t1", OK: false, Err: "extract: no price found",
	}
	for _, v := range []any{full, segRow{Seq: 9, Obs: full}, walRecord{Seqs: []uint64{3}, Obs: []Observation{full}, W: 4}} {
		b, err := json.Marshal(v)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(b)
	}
	for _, s := range codecSeeds {
		f.Add([]byte(s))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		checkCodec(t, data, (*decoder).observation, appendObservation)
		checkCodec(t, data, (*decoder).segRow, func(b []byte, r *segRow) ([]byte, error) {
			return appendSegRow(b, r.Seq, &r.Obs)
		})
		checkCodec(t, data, (*decoder).walRecord, appendWALPayload)
		checkStream(t, data, (*decoder).segRow)
		checkStream(t, data, (*decoder).observation)
		checkRawStrings(t, data)
	})
}

// checkCodec compares the codec with encoding/json on one input shape.
func checkCodec[T any](t *testing.T, data []byte, decode func(*decoder, *T) error, encode func([]byte, *T) ([]byte, error)) {
	t.Helper()
	var want, got T
	werr := json.Unmarshal(data, &want)
	gerr := unmarshal(data, &got, decode, make(map[string]string))
	if (werr == nil) != (gerr == nil) {
		t.Fatalf("%T %q: encoding/json error %v, codec error %v", want, data, werr, gerr)
	}
	if werr != nil {
		return
	}
	if !reflect.DeepEqual(want, got) {
		t.Fatalf("%T %q:\nencoding/json %#v\ncodec         %#v", want, data, want, got)
	}
	checkEncode(t, &got, encode)
}

// checkEncode compares the encoder with json.Marshal on one value.
func checkEncode[T any](t *testing.T, v *T, encode func([]byte, *T) ([]byte, error)) {
	t.Helper()
	wb, werr := json.Marshal(v)
	gb, gerr := encode([]byte("prefix"), v)
	if (werr == nil) != (gerr == nil) {
		t.Fatalf("%T %#v: json.Marshal error %v, codec error %v", *v, *v, werr, gerr)
	}
	if werr == nil && !bytes.Equal(gb, append([]byte("prefix"), wb...)) {
		t.Fatalf("%T encodes differently:\njson.Marshal %s\ncodec        %s", *v, wb, gb[len("prefix"):])
	}
}

// checkStream reads data as a stream of values with a json.Decoder and
// with the codec's stream, fed one byte per read into a buffer that
// starts at one byte, and requires the same rows and the same kind of
// end (clean EOF or not).
func checkStream[T any](t *testing.T, data []byte, decode func(*decoder, *T) error) {
	t.Helper()
	var want []T
	dec := json.NewDecoder(bytes.NewReader(data))
	var werr error
	for {
		var v T
		if werr = dec.Decode(&v); werr != nil {
			break
		}
		want = append(want, v)
	}
	var got []T
	// A one-byte buffer makes nearly every value straddle a refill.
	in := newJSONStream(iotest.OneByteReader(bytes.NewReader(data)), make(map[string]string))
	in.d.buf = make([]byte, 0, 1)
	var gerr error
	for {
		var v T
		if gerr = in.next(func(d *decoder) error {
			var zero T
			v = zero
			return decode(d, &v)
		}); gerr != nil {
			break
		}
		got = append(got, v)
	}
	if (werr == io.EOF) != (gerr == io.EOF) || !reflect.DeepEqual(want, got) {
		t.Fatalf("stream of %T %q: json.Decoder %d rows then %v, codec %d rows then %v",
			want, data, len(want), werr, len(got), gerr)
	}
}

// checkRawStrings encodes an observation whose string fields hold data
// verbatim and whose time comes from data's bytes, years outside
// 0–9999 and zone offsets of a day or more included.
func checkRawStrings(t *testing.T, data []byte) {
	t.Helper()
	var word [10]byte
	copy(word[:], data)
	sec := int64(binary.LittleEndian.Uint64(word[:8])) >> (word[8] % 64)
	zone := time.FixedZone("", int(int16(binary.LittleEndian.Uint16(word[8:])))*7)
	s := string(data)
	o := Observation{
		Domain: s, SKU: s, URL: s, VP: s, VPLabel: s, Country: s, City: s, Currency: s, Source: s,
		PriceUnits: sec, Round: int(int32(sec)), Time: time.Unix(sec, int64(word[9])).In(zone),
		OK: len(data)%2 == 0,
	}
	if len(data)%3 == 0 {
		o.Account, o.Segment, o.UserCountry, o.Tenant, o.Err = s, s, s, s, s
	}
	checkEncode(t, &o, appendObservation)
	checkEncode(t, &walRecord{Seqs: []uint64{uint64(sec)}, Obs: []Observation{o}, W: uint64(len(data))}, appendWALPayload)
}

// refLoadSegment is loadSegment as written against encoding/json — a
// json.Decoder over the (decompressed) file, stopping at the first row
// that fails — kept as the reference for torn-tail recovery.
func refLoadSegment(t *testing.T, dir string, info segmentInfo) (rows []segRow, lost int) {
	t.Helper()
	f, err := os.Open(filepath.Join(dir, info.Name))
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	var r io.Reader = bufio.NewReader(f)
	if strings.HasSuffix(info.Name, ".gz") {
		gz, err := gzip.NewReader(r)
		if err != nil {
			return nil, info.Rows
		}
		defer gz.Close()
		r = gz
	}
	dec := json.NewDecoder(r)
	for {
		var row segRow
		if err := dec.Decode(&row); err != nil {
			break
		}
		rows = append(rows, row)
	}
	return rows, max(0, info.Rows-len(rows))
}

// TestLoadSegmentTornTailMatchesReference truncates a plain and a gzip
// segment written by writeBucket at every byte offset: the codec's
// loadSegment must recover exactly the rows, and report exactly the
// lost count, of the encoding/json reference loader.
func TestLoadSegmentTornTailMatchesReference(t *testing.T) {
	obs := seedObservations(41, 12)
	day := time.Date(2013, 1, 10, 0, 0, 0, 0, time.UTC)
	for i := range obs {
		obs[i].Time = day.Add(time.Duration(i) * time.Minute)
	}
	obs[3].Domain, obs[4].Err, obs[5].City = "bücher.example", "bad <tag> & \"quote\"\n", "São Paulo\u2028"
	src := New()
	src.AddAll(obs)
	bucket := bucketOf(day, src.BucketSeconds())

	for _, compressed := range []bool{false, true} {
		dir := t.TempDir()
		info, err := writeBucket(dir, 1, src, bucket, compressed, 1<<30)
		if err != nil {
			t.Fatal(err)
		}
		if len(info.Segments) != 1 || info.Rows != len(obs) {
			t.Fatalf("want one %d-row segment, got %+v", len(obs), info)
		}
		seg := info.Segments[0]
		path := filepath.Join(dir, seg.Name)
		full, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		for n := len(full); n >= 0; n-- {
			if err := os.WriteFile(path, full[:n], 0o644); err != nil {
				t.Fatal(err)
			}
			var got []segRow
			lost, err := loadSegment(dir, seg, &got, make(map[string]string))
			if err != nil {
				t.Fatal(err)
			}
			want, wantLost := refLoadSegment(t, dir, seg)
			if lost != wantLost || !reflect.DeepEqual(got, want) {
				t.Fatalf("gzip=%v cut at %d/%d: loaded %d rows (lost %d), reference %d rows (lost %d)",
					compressed, n, len(full), len(got), lost, len(want), wantLost)
			}
			if n == len(full) && (lost != 0 || len(got) != len(obs)) {
				t.Fatalf("gzip=%v intact segment: %d rows, %d lost", compressed, len(got), lost)
			}
		}
	}
}

// TestReadJSONLReportsLineNumber pins the 1-based line of the row that
// fails to decode.
func TestReadJSONLReportsLineNumber(t *testing.T) {
	var good bytes.Buffer
	src := New()
	src.AddAll(seedObservations(3, 2))
	if err := src.WriteJSONL(&good); err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		in   string
		line int
	}{
		{"{bad\n", 1},
		{`{"ok":1}`, 1},
		{good.String() + "{bad\n", 3},
		{good.String() + "\n\n" + `{"price_units":1.5}` + "\n", 5},
		{good.String() + `{"domain":"torn`, 3},
	} {
		_, err := ReadJSONL(strings.NewReader(tc.in))
		if err == nil {
			t.Fatalf("%q: decoded", tc.in)
		}
		if want := "decode line " + strconv.Itoa(tc.line) + ":"; !strings.Contains(err.Error(), want) {
			t.Fatalf("%q: error %q does not name %q", tc.in, err, want)
		}
	}
}

// TestStreamSurfacesReadErrorAfterData pins json.Decoder's order: rows
// that arrived before a read error decode, then the error surfaces.
func TestStreamSurfacesReadErrorAfterData(t *testing.T) {
	boom := errors.New("boom")
	r := io.MultiReader(strings.NewReader(`{"domain":"a"} {"domain":"b"} {"dom`), iotest.ErrReader(boom))
	in := newJSONStream(r, nil)
	var rows []string
	var err error
	for {
		var o Observation
		if err = in.next(func(d *decoder) error { o = Observation{}; return d.observation(&o) }); err != nil {
			break
		}
		rows = append(rows, o.Domain)
	}
	if !errors.Is(err, boom) || !reflect.DeepEqual(rows, []string{"a", "b"}) {
		t.Fatalf("rows %v then %v, want [a b] then boom", rows, err)
	}
}

// BenchmarkObservationCodec times one observation's JSONL row through
// the codec: encode is AppendJSONL, decode reads the row back with the
// interning a recovery load uses.
func BenchmarkObservationCodec(b *testing.B) {
	obs := seedObservations(7, 1024)
	lines := make([][]byte, len(obs))
	for i := range obs {
		line, err := AppendJSONL(nil, &obs[i])
		if err != nil {
			b.Fatal(err)
		}
		lines[i] = line
	}
	b.Run("encode", func(b *testing.B) {
		b.ReportAllocs()
		var buf []byte
		for i := 0; b.Loop(); i++ {
			var err error
			if buf, err = AppendJSONL(buf[:0], &obs[i%len(obs)]); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("decode", func(b *testing.B) {
		b.ReportAllocs()
		strs := make(map[string]string)
		var o Observation
		for i := 0; b.Loop(); i++ {
			o = Observation{}
			if err := unmarshal(lines[i%len(lines)], &o, (*decoder).observation, strs); err != nil {
				b.Fatal(err)
			}
		}
	})
}
