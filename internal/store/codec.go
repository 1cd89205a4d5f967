package store

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"slices"
	"strconv"
	"strings"
	"time"
	"unicode/utf16"
	"unicode/utf8"
)

// One codec carries every observation byte the system writes or reads:
// snapshot segment rows (segRow), WAL and replication records
// (walRecord), WriteJSONL/ReadJSONL and the API's NDJSON export. The
// format is plain JSON, unchanged from what the standard library's
// package json produced for these types. The encoder emits exactly
// json.Marshal's bytes; the decoder accepts and rejects exactly what
// json.Unmarshal (or a json.Decoder stream) does for the three shapes
// it knows, down to case-insensitive keys, duplicate keys merging into
// the same value, null as a no-op and package json's nesting limit.
// Time values go through time.Time's own text append and UnmarshalJSON,
// so their semantics match by construction. It is hand-written because
// reflection decoding dominated restart time; FuzzObservationJSON holds
// it to package json.

// AppendJSONL appends o's JSON Lines row — its JSON object and a
// newline, the bytes a json.Encoder writes for it — to dst. It fails
// only for a time RFC 3339 cannot carry: a year outside 0–9999 or a
// zone offset of a day or more.
func AppendJSONL(dst []byte, o *Observation) ([]byte, error) {
	dst, err := appendObservation(dst, o)
	if err != nil {
		return dst, err
	}
	return append(dst, '\n'), nil
}

// appendObservation appends o as a JSON object: Observation's fields in
// declaration order, omitempty fields only when set.
func appendObservation(b []byte, o *Observation) ([]byte, error) {
	start := len(b)
	b = append(b, `{"domain":`...)
	b = appendString(b, o.Domain)
	b = append(b, `,"sku":`...)
	b = appendString(b, o.SKU)
	b = append(b, `,"url":`...)
	b = appendString(b, o.URL)
	b = append(b, `,"vp":`...)
	b = appendString(b, o.VP)
	b = append(b, `,"vp_label":`...)
	b = appendString(b, o.VPLabel)
	b = append(b, `,"country":`...)
	b = appendString(b, o.Country)
	b = append(b, `,"city":`...)
	b = appendString(b, o.City)
	b = append(b, `,"price_units":`...)
	b = strconv.AppendInt(b, o.PriceUnits, 10)
	b = append(b, `,"currency":`...)
	b = appendString(b, o.Currency)
	b = append(b, `,"time":"`...)
	bt, err := o.Time.AppendText(b)
	if err != nil {
		return b[:start], fmt.Errorf("store: encode time: %w", err)
	}
	b = append(bt, `","round":`...)
	b = strconv.AppendInt(b, int64(o.Round), 10)
	b = append(b, `,"source":`...)
	b = appendString(b, o.Source)
	b = appendOmitEmpty(b, `,"account":`, o.Account)
	b = appendOmitEmpty(b, `,"segment":`, o.Segment)
	b = appendOmitEmpty(b, `,"user_country":`, o.UserCountry)
	b = appendOmitEmpty(b, `,"tenant":`, o.Tenant)
	b = append(b, `,"ok":`...)
	b = strconv.AppendBool(b, o.OK)
	b = appendOmitEmpty(b, `,"err":`, o.Err)
	return append(b, '}'), nil
}

func appendOmitEmpty(b []byte, key, s string) []byte {
	if s == "" {
		return b
	}
	return appendString(append(b, key...), s)
}

// appendSegRow appends one snapshot segment row, {"seq":…,"obs":{…}}.
func appendSegRow(b []byte, seq uint64, o *Observation) ([]byte, error) {
	start := len(b)
	b = append(b, `{"seq":`...)
	b = strconv.AppendUint(b, seq, 10)
	b = append(b, `,"obs":`...)
	b, err := appendObservation(b, o)
	if err != nil {
		return b[:start], err
	}
	return append(b, '}'), nil
}

// appendWALPayload appends rec as JSON. Nil slices encode as null and
// empty ones as [], as package json writes them.
func appendWALPayload(b []byte, rec *walRecord) ([]byte, error) {
	start := len(b)
	b = append(b, `{"seqs":`...)
	if rec.Seqs == nil {
		b = append(b, "null"...)
	} else {
		b = append(b, '[')
		for i, s := range rec.Seqs {
			if i > 0 {
				b = append(b, ',')
			}
			b = strconv.AppendUint(b, s, 10)
		}
		b = append(b, ']')
	}
	b = append(b, `,"obs":`...)
	if rec.Obs == nil {
		b = append(b, "null"...)
	} else {
		b = append(b, '[')
		for i := range rec.Obs {
			if i > 0 {
				b = append(b, ',')
			}
			var err error
			if b, err = appendObservation(b, &rec.Obs[i]); err != nil {
				return b[:start], err
			}
		}
		b = append(b, ']')
	}
	if rec.W != 0 {
		b = append(b, `,"w":`...)
		b = strconv.AppendUint(b, rec.W, 10)
	}
	return append(b, '}'), nil
}

// jsonSafe marks the ASCII bytes a JSON string carries unescaped:
// everything printable except the quote, the backslash and the HTML
// specials <, > and &, which package json escapes by default.
var jsonSafe = func() (t [utf8.RuneSelf]bool) {
	for c := ' '; c < utf8.RuneSelf; c++ {
		t[c] = !strings.ContainsRune(`"\<>&`, c)
	}
	return t
}()

const hexDigits = "0123456789abcdef"

// appendString appends s as a JSON string the way package json writes
// it: the short escapes for \b \f \n \r \t, \u00XX for the other
// control bytes and the HTML specials, U+2028 and U+2029 escaped, and
// each invalid UTF-8 byte replaced by \ufffd.
func appendString(b []byte, s string) []byte {
	b = append(b, '"')
	start := 0
	for i := 0; i < len(s); {
		if c := s[i]; c < utf8.RuneSelf {
			if jsonSafe[c] {
				i++
				continue
			}
			b = append(b, s[start:i]...)
			switch c {
			case '"', '\\':
				b = append(b, '\\', c)
			case '\b':
				b = append(b, '\\', 'b')
			case '\f':
				b = append(b, '\\', 'f')
			case '\n':
				b = append(b, '\\', 'n')
			case '\r':
				b = append(b, '\\', 'r')
			case '\t':
				b = append(b, '\\', 't')
			default:
				b = append(b, '\\', 'u', '0', '0', hexDigits[c>>4], hexDigits[c&0xf])
			}
			i++
			start = i
			continue
		}
		r, size := utf8.DecodeRuneInString(s[i:])
		switch {
		case r == utf8.RuneError && size == 1:
			b = append(b, s[start:i]...)
			b = append(b, `\ufffd`...)
		case r == '\u2028' || r == '\u2029':
			b = append(b, s[start:i]...)
			b = append(b, '\\', 'u', '2', '0', '2', hexDigits[r&0xf])
		default:
			i += size
			continue
		}
		i += size
		start = i
	}
	b = append(b, s[start:]...)
	return append(b, '"')
}

// errShort reports that the buffer ended inside a value while more
// input may follow: a streaming caller reads more and decodes the value
// again from its start.
var errShort = errors.New("store: json value continues past the buffer")

// maxDepth is package json's nesting limit for arrays and objects.
const maxDepth = 10000

// decoder reads observation-shaped JSON from buf[off:]. Decoding into a
// value merges into it the way json.Unmarshal does: absent keys leave
// fields as they are, null leaves a field as it is (a slice becomes
// nil), and a repeated key decodes again into the same field.
type decoder struct {
	buf []byte
	off int
	// eof marks buf as the whole remaining input: running out of bytes
	// is then a syntax error instead of errShort.
	eof   bool
	depth int
	// strs interns decoded strings so the rows of one load share them;
	// nil decodes every string into its own allocation.
	strs map[string]string
	// tmp holds the last string that needed unescaping.
	tmp []byte
}

// fail reports a syntax error at d.off, or errShort when d.off is past
// a buffer that more input may extend.
func (d *decoder) fail(context string) error {
	if d.off >= len(d.buf) {
		if !d.eof {
			return errShort
		}
		return errors.New("store: unexpected end of JSON input")
	}
	return fmt.Errorf("store: invalid character %q %s", d.buf[d.off], context)
}

// mismatch reports a JSON value of the wrong kind for the Go field.
func (d *decoder) mismatch(want string) error {
	return fmt.Errorf("store: cannot decode JSON %q… into %s", d.buf[d.off], want)
}

func isSpace(c byte) bool { return c == ' ' || c == '\t' || c == '\n' || c == '\r' }

func (d *decoder) skipSpace() {
	for d.off < len(d.buf) && isSpace(d.buf[d.off]) {
		d.off++
	}
}

// next skips whitespace and returns the byte there without consuming it.
func (d *decoder) next(context string) (byte, error) {
	if d.skipSpace(); d.off < len(d.buf) {
		return d.buf[d.off], nil
	}
	return 0, d.fail(context)
}

func (d *decoder) push() error {
	if d.depth++; d.depth > maxDepth {
		return errors.New("store: exceeded max JSON nesting depth")
	}
	return nil
}

// object consumes the object at d.off, calling member for each key with
// d.off at the first byte of its value; member must consume the value.
// The key may alias the decoder's buffers: it is valid until member
// decodes the value.
func (d *decoder) object(member func(key []byte) error) error {
	if err := d.push(); err != nil {
		return err
	}
	d.off++ // '{'
	c, err := d.next("looking for beginning of object key string")
	if err != nil {
		return err
	}
	if c == '}' {
		d.off++
		d.depth--
		return nil
	}
	for {
		if c != '"' {
			return d.fail("looking for beginning of object key string")
		}
		key, err := d.stringBytes()
		if err != nil {
			return err
		}
		if c, err = d.next("after object key"); err != nil {
			return err
		}
		if c != ':' {
			return d.fail("after object key")
		}
		d.off++
		if _, err = d.next("looking for beginning of value"); err != nil {
			return err
		}
		if err = member(key); err != nil {
			return err
		}
		if c, err = d.next("after object key:value pair"); err != nil {
			return err
		}
		switch c {
		case '}':
			d.off++
			d.depth--
			return nil
		case ',':
			d.off++
		default:
			return d.fail("after object key:value pair")
		}
		if c, err = d.next("looking for beginning of object key string"); err != nil {
			return err
		}
	}
}

// array consumes the array at d.off, calling elem with d.off at the
// first byte of each element; elem must consume the element.
func (d *decoder) array(elem func() error) error {
	if err := d.push(); err != nil {
		return err
	}
	d.off++ // '['
	c, err := d.next("looking for beginning of value")
	if err != nil {
		return err
	}
	if c == ']' {
		d.off++
		d.depth--
		return nil
	}
	for {
		if err := elem(); err != nil {
			return err
		}
		if c, err = d.next("after array element"); err != nil {
			return err
		}
		switch c {
		case ']':
			d.off++
			d.depth--
			return nil
		case ',':
			d.off++
		default:
			return d.fail("after array element")
		}
		if _, err = d.next("looking for beginning of value"); err != nil {
			return err
		}
	}
}

// skip consumes any JSON value at d.off, checking its syntax.
func (d *decoder) skip() error {
	switch c := d.buf[d.off]; {
	case c == '"':
		_, err := d.stringBytes()
		return err
	case c == '{':
		return d.object(func([]byte) error { return d.skip() })
	case c == '[':
		return d.array(d.skip)
	case c == 't':
		return d.literal("true")
	case c == 'f':
		return d.literal("false")
	case c == 'n':
		return d.literal("null")
	case c == '-' || '0' <= c && c <= '9':
		_, err := d.number()
		return err
	}
	return d.fail("looking for beginning of value")
}

// literal consumes the keyword lit (true, false or null).
func (d *decoder) literal(lit string) error {
	for i := 0; i < len(lit); i++ {
		if d.off >= len(d.buf) || d.buf[d.off] != lit[i] {
			return d.fail("in literal " + lit)
		}
		d.off++
	}
	return nil
}

func isDigit(c byte) bool { return '0' <= c && c <= '9' }

// number consumes a JSON number and returns its text. A number that
// runs to the end of a buffer more input may extend is errShort: its
// digits may continue.
func (d *decoder) number() ([]byte, error) {
	b, i := d.buf, d.off
	digits := func() {
		for i < len(b) && isDigit(b[i]) {
			i++
		}
	}
	fail := func(context string) ([]byte, error) {
		d.off = i
		return nil, d.fail(context)
	}
	if i < len(b) && b[i] == '-' {
		i++
	}
	switch {
	case i >= len(b):
		return fail("in numeric literal")
	case b[i] == '0':
		i++
	case isDigit(b[i]):
		digits()
	default:
		return fail("in numeric literal")
	}
	if i < len(b) && b[i] == '.' {
		if i++; i >= len(b) || !isDigit(b[i]) {
			return fail("after decimal point in numeric literal")
		}
		digits()
	}
	if i < len(b) && (b[i] == 'e' || b[i] == 'E') {
		if i++; i < len(b) && (b[i] == '+' || b[i] == '-') {
			i++
		}
		if i >= len(b) || !isDigit(b[i]) {
			return fail("in exponent of numeric literal")
		}
		digits()
	}
	if i >= len(b) && !d.eof {
		return nil, errShort
	}
	start := d.off
	d.off = i
	return b[start:i], nil
}

// stringBytes consumes the string at d.off and returns its contents
// unquoted the way package json unquotes them: escapes resolved, a
// surrogate escape without its pair and each invalid UTF-8 byte turned
// into U+FFFD. The result aliases buf when the string needs no
// rewriting, else the decoder's scratch buffer.
func (d *decoder) stringBytes() ([]byte, error) {
	buf := d.buf
	start := d.off + 1
	for i := start; ; {
		for i < len(buf) && plainString[buf[i]] {
			i++
		}
		if i >= len(buf) {
			break
		}
		switch c := buf[i]; {
		case c == '"':
			d.off = i + 1
			return buf[start:i], nil
		case c < utf8.RuneSelf: // a backslash or a control byte
			return d.unquote(start, i)
		default:
			r, size := utf8.DecodeRune(buf[i:])
			if r == utf8.RuneError && size == 1 {
				return d.unquote(start, i)
			}
			i += size
		}
	}
	d.off = len(buf)
	return nil, d.fail("in string literal")
}

// plainString marks the bytes a JSON string carries that decode as
// themselves: printable ASCII except the quote and the backslash.
var plainString = func() (t [256]bool) {
	for c := ' '; c < utf8.RuneSelf; c++ {
		t[c] = c != '"' && c != '\\'
	}
	return t
}()

// unquote is stringBytes' slow path: buf[start:i] needs no rewriting
// and i is the first byte that does.
func (d *decoder) unquote(start, i int) ([]byte, error) {
	b := append(d.tmp[:0], d.buf[start:i]...)
	for {
		if i >= len(d.buf) {
			d.off = i
			return nil, d.fail("in string literal")
		}
		c := d.buf[i]
		switch {
		case c == '"':
			d.off = i + 1
			d.tmp = b
			return b, nil
		case c < ' ':
			d.off = i
			return nil, d.fail("in string literal")
		case c < utf8.RuneSelf && c != '\\':
			b = append(b, c)
			i++
		case c >= utf8.RuneSelf:
			r, size := utf8.DecodeRune(d.buf[i:])
			b = utf8.AppendRune(b, r)
			i += size
		default: // an escape
			if i+1 >= len(d.buf) {
				d.off = i + 1
				return nil, d.fail("in string escape code")
			}
			switch e := d.buf[i+1]; e {
			case '"', '\\', '/':
				b = append(b, e)
			case 'b':
				b = append(b, '\b')
			case 'f':
				b = append(b, '\f')
			case 'n':
				b = append(b, '\n')
			case 'r':
				b = append(b, '\r')
			case 't':
				b = append(b, '\t')
			case 'u':
				r := hex4(d.buf[i+2:])
				if r < 0 {
					// Point at the first byte that is not a hex digit;
					// when the buffer ends first, fail reports errShort,
					// as more input may complete the escape.
					d.off = i + 2
					for d.off < len(d.buf) && d.off < i+6 && hexVal(d.buf[d.off]) >= 0 {
						d.off++
					}
					return nil, d.fail("in \\u hexadecimal character escape")
				}
				i += 6
				if utf16.IsSurrogate(r) {
					if r2 := escapedRune(d.buf[i:]); r2 >= 0 {
						if pair := utf16.DecodeRune(r, r2); pair != utf8.RuneError {
							b = utf8.AppendRune(b, pair)
							i += 6
							continue
						}
					}
					r = utf8.RuneError
				}
				b = utf8.AppendRune(b, r)
				continue
			default:
				d.off = i + 1
				return nil, d.fail("in string escape code")
			}
			i += 2
		}
	}
}

// escapedRune decodes a \uXXXX escape at the start of b, or returns -1.
func escapedRune(b []byte) rune {
	if len(b) < 6 || b[0] != '\\' || b[1] != 'u' {
		return -1
	}
	return hex4(b[2:])
}

// hex4 decodes four hex digits at the start of b, or returns -1.
func hex4(b []byte) rune {
	if len(b) < 4 {
		return -1
	}
	var r rune
	for _, c := range b[:4] {
		v := hexVal(c)
		if v < 0 {
			return -1
		}
		r = r<<4 | v
	}
	return r
}

func hexVal(c byte) rune {
	switch {
	case '0' <= c && c <= '9':
		return rune(c - '0')
	case 'a' <= c && c <= 'f':
		return rune(c - 'a' + 10)
	case 'A' <= c && c <= 'F':
		return rune(c - 'A' + 10)
	}
	return -1
}

// intern returns b as a string, shared with earlier equal strings of the
// same load when interning is on.
func (d *decoder) intern(b []byte) string {
	if d.strs == nil {
		return string(b)
	}
	if s, ok := d.strs[string(b)]; ok {
		return s
	}
	s := string(b)
	d.strs[s] = s
	return s
}

// str decodes a string field.
func (d *decoder) str(p *string) error {
	switch d.buf[d.off] {
	case '"':
		b, err := d.stringBytes()
		if err != nil {
			return err
		}
		*p = d.intern(b)
		return nil
	case 'n':
		return d.literal("null")
	}
	return d.mismatch("string")
}

// numberText consumes a number for an integer field; ok is false (and
// nothing consumed) for null.
func (d *decoder) numberText(want string) (text []byte, ok bool, err error) {
	switch c := d.buf[d.off]; {
	case c == '-' || isDigit(c):
		text, err = d.number()
		return text, err == nil, err
	case c == 'n':
		return nil, false, d.literal("null")
	case c == '"' || c == 't' || c == 'f' || c == '{' || c == '[':
		return nil, false, d.mismatch(want)
	}
	return nil, false, d.fail("looking for beginning of value")
}

// integer decodes a signed integer field of the given bit size: a
// number strconv.ParseInt accepts, so fractions, exponents and
// out-of-range values are errors as they are for package json.
func (d *decoder) integer(p *int64, bits int) error {
	text, ok, err := d.numberText("integer")
	if !ok {
		return err
	}
	n, err := strconv.ParseInt(string(text), 10, bits)
	if err != nil {
		return fmt.Errorf("store: cannot decode number %s into int%d", text, bits)
	}
	*p = n
	return nil
}

// unsigned decodes a uint64 field.
func (d *decoder) unsigned(p *uint64) error {
	text, ok, err := d.numberText("uint64")
	if !ok {
		return err
	}
	n, err := strconv.ParseUint(string(text), 10, 64)
	if err != nil {
		return fmt.Errorf("store: cannot decode number %s into uint64", text)
	}
	*p = n
	return nil
}

// boolean decodes a bool field.
func (d *decoder) boolean(p *bool) error {
	switch c := d.buf[d.off]; c {
	case 't', 'f':
		if err := d.literal(strconv.FormatBool(c == 't')); err != nil {
			return err
		}
		*p = c == 't'
		return nil
	case 'n':
		return d.literal("null")
	}
	return d.mismatch("bool")
}

// time decodes a time field by handing the raw JSON value to
// (*time.Time).UnmarshalJSON, exactly what package json does.
func (d *decoder) time(t *time.Time) error {
	start := d.off
	if err := d.skip(); err != nil {
		return err
	}
	return t.UnmarshalJSON(d.buf[start:d.off])
}

// field binds one JSON key to the decoder of a T field.
type field[T any] struct {
	name   string
	decode func(*decoder, *T) error
}

// lookup finds key's field the way package json does — an exact name,
// else a case-insensitive match under Unicode simple folding — or
// returns -1. Encoders write keys in field order, so the search starts
// at hint, the field after the previous key.
func lookup[T any](fields []field[T], key []byte, hint int) int {
	for i := hint; i < len(fields); i++ {
		if string(key) == fields[i].name {
			return i
		}
	}
	for i := range min(hint, len(fields)) {
		if string(key) == fields[i].name {
			return i
		}
	}
	for i := range fields {
		if bytes.EqualFold(key, []byte(fields[i].name)) {
			return i
		}
	}
	return -1
}

// decodeStruct decodes an object (or null, a no-op) into v; keys
// without a field are skipped.
func decodeStruct[T any](d *decoder, v *T, fields []field[T]) error {
	switch d.buf[d.off] {
	case '{':
	case 'n':
		return d.literal("null")
	default:
		return d.mismatch("object")
	}
	hint := 0
	return d.object(func(key []byte) error {
		i := lookup(fields, key, hint)
		if i < 0 {
			return d.skip()
		}
		hint = i + 1
		return fields[i].decode(d, v)
	})
}

// decodeSlice decodes an array (or null, which sets nil) into *p. Like
// package json it decodes element i into the existing element when the
// slice already has one, reuses spare capacity without zeroing it, and
// leaves a fresh empty slice for [].
func decodeSlice[T any](d *decoder, p *[]T, elem func(*decoder, *T) error) error {
	switch d.buf[d.off] {
	case '[':
	case 'n':
		if err := d.literal("null"); err != nil {
			return err
		}
		*p = nil
		return nil
	default:
		return d.mismatch("array")
	}
	s, n := *p, 0
	err := d.array(func() error {
		switch {
		case n < len(s):
		case n < cap(s):
			s = s[:n+1]
		default:
			var zero T
			s = append(s, zero)
		}
		n++
		return elem(d, &s[n-1])
	})
	if err != nil {
		return err
	}
	if n == 0 {
		s = []T{}
	}
	*p = s[:n]
	return nil
}

var obsFields = []field[Observation]{
	{"domain", func(d *decoder, o *Observation) error { return d.str(&o.Domain) }},
	{"sku", func(d *decoder, o *Observation) error { return d.str(&o.SKU) }},
	{"url", func(d *decoder, o *Observation) error { return d.str(&o.URL) }},
	{"vp", func(d *decoder, o *Observation) error { return d.str(&o.VP) }},
	{"vp_label", func(d *decoder, o *Observation) error { return d.str(&o.VPLabel) }},
	{"country", func(d *decoder, o *Observation) error { return d.str(&o.Country) }},
	{"city", func(d *decoder, o *Observation) error { return d.str(&o.City) }},
	{"price_units", func(d *decoder, o *Observation) error { return d.integer(&o.PriceUnits, 64) }},
	{"currency", func(d *decoder, o *Observation) error { return d.str(&o.Currency) }},
	{"time", func(d *decoder, o *Observation) error { return d.time(&o.Time) }},
	{"round", func(d *decoder, o *Observation) error {
		n := int64(o.Round)
		err := d.integer(&n, strconv.IntSize)
		o.Round = int(n)
		return err
	}},
	{"source", func(d *decoder, o *Observation) error { return d.str(&o.Source) }},
	{"account", func(d *decoder, o *Observation) error { return d.str(&o.Account) }},
	{"segment", func(d *decoder, o *Observation) error { return d.str(&o.Segment) }},
	{"user_country", func(d *decoder, o *Observation) error { return d.str(&o.UserCountry) }},
	{"tenant", func(d *decoder, o *Observation) error { return d.str(&o.Tenant) }},
	{"ok", func(d *decoder, o *Observation) error { return d.boolean(&o.OK) }},
	{"err", func(d *decoder, o *Observation) error { return d.str(&o.Err) }},
}

var segRowFields = []field[segRow]{
	{"seq", func(d *decoder, r *segRow) error { return d.unsigned(&r.Seq) }},
	{"obs", func(d *decoder, r *segRow) error { return d.observation(&r.Obs) }},
}

var walRecordFields = []field[walRecord]{
	{"seqs", func(d *decoder, r *walRecord) error { return decodeSlice(d, &r.Seqs, (*decoder).unsigned) }},
	{"obs", func(d *decoder, r *walRecord) error { return decodeSlice(d, &r.Obs, (*decoder).observation) }},
	{"w", func(d *decoder, r *walRecord) error { return d.unsigned(&r.W) }},
}

func (d *decoder) observation(o *Observation) error { return decodeStruct(d, o, obsFields) }
func (d *decoder) segRow(r *segRow) error           { return decodeStruct(d, r, segRowFields) }
func (d *decoder) walRecord(r *walRecord) error     { return decodeStruct(d, r, walRecordFields) }

// unmarshal decodes data, one JSON value with optional surrounding
// whitespace, into v the way json.Unmarshal does.
func unmarshal[T any](data []byte, v *T, decode func(*decoder, *T) error, strs map[string]string) error {
	d := decoder{buf: data, eof: true, strs: strs}
	if _, err := d.next("looking for beginning of value"); err != nil {
		return err
	}
	if err := decode(&d, v); err != nil {
		return err
	}
	if d.skipSpace(); d.off < len(d.buf) {
		return d.fail("after top-level value")
	}
	return nil
}

// jsonStream decodes a sequence of JSON values from a reader the way a
// json.Decoder does: a value is complete once its closing bracket has
// been read (a scalar once any byte after it, or the end of input, has
// been), so values before a torn tail decode and the tail fails; a read
// error surfaces only once the bytes before it are used up.
type jsonStream struct {
	r    io.Reader
	d    decoder
	rerr error
	// start is the offset in d.buf of the value being decoded; lines
	// counts the newlines in bytes already dropped from d.buf.
	start int
	lines int
}

// streamBufSize is the initial read buffer; a value longer than it
// grows the buffer.
const streamBufSize = 64 << 10

func newJSONStream(r io.Reader, strs map[string]string) *jsonStream {
	return &jsonStream{r: r, d: decoder{buf: make([]byte, 0, streamBufSize), strs: strs}}
}

// next decodes the next value with decode, which may run more than once
// for one value (each time from the value's first byte) when the value
// straddles a read. It returns io.EOF at a clean end of input.
func (s *jsonStream) next(decode func(*decoder) error) error {
	d := &s.d
	for {
		d.skipSpace()
		s.start, d.depth = d.off, 0
		err := s.value(decode)
		if err != errShort {
			return err
		}
		d.off = s.start
		switch {
		case s.rerr == io.EOF:
			d.eof = true
		case s.rerr != nil:
			return s.rerr
		default:
			s.fill()
		}
	}
}

func (s *jsonStream) value(decode func(*decoder) error) error {
	d := &s.d
	if d.off >= len(d.buf) {
		if d.eof {
			return io.EOF
		}
		return errShort
	}
	scalar := d.buf[d.off] != '{' && d.buf[d.off] != '['
	if err := decode(d); err != nil {
		return err
	}
	// A top-level scalar ends only once a byte after it (whatever it is:
	// the next value reports it) or the end of input is seen.
	if scalar && d.off >= len(d.buf) && !d.eof {
		return errShort
	}
	return nil
}

// fill drops consumed bytes, grows the buffer if a value fills it, and
// reads until the buffer is full or the reader fails. Filling it whole
// keeps re-decoding a value that straddled reads rare however little
// each read returns.
func (s *jsonStream) fill() {
	d := &s.d
	if d.off > 0 {
		s.lines += bytes.Count(d.buf[:d.off], []byte{'\n'})
		d.buf = d.buf[:copy(d.buf, d.buf[d.off:])]
		d.off = 0
	}
	if len(d.buf) == cap(d.buf) {
		d.buf = slices.Grow(d.buf, len(d.buf))
	}
	for len(d.buf) < cap(d.buf) && s.rerr == nil {
		n, err := s.r.Read(d.buf[len(d.buf):cap(d.buf)])
		d.buf = d.buf[:len(d.buf)+n]
		s.rerr = err
	}
}

// line is the 1-based line on which the value last passed to next
// started.
func (s *jsonStream) line() int {
	return 1 + s.lines + bytes.Count(s.d.buf[:s.start], []byte{'\n'})
}
