package money

import (
	"errors"
	"fmt"
	"strings"
	"unicode"
	"unicode/utf8"
)

// Parsing errors returned by Parse and friends.
var (
	// ErrNoPrice reports that the text contained nothing price-shaped.
	ErrNoPrice = errors.New("money: no price found")
	// ErrNoCurrency reports that a number was found but its denomination
	// could not be determined and no hint was supplied.
	ErrNoCurrency = errors.New("money: currency not identifiable")
)

// symbolTable maps display symbols to currencies, longest symbol first so
// that "R$" wins over "$". Ambiguous symbols ("kr", "$"-prefixed composites)
// resolve in table order unless the parse hint matches one of the candidates.
var symbolTable = []struct {
	sym string
	cur Currency
}{
	{"MX$", MXN}, {"R$", BRL}, {"C$", CAD}, {"A$", AUD},
	{"CHF", CHF}, {"zł", PLN}, {"Kč", CZK}, {"Ft", HUF},
	{"kr", SEK}, {"$", USD}, {"€", EUR}, {"£", GBP},
	{"¥", JPY}, {"₺", TRY}, {"₹", INR}, {"₽", RUB},
}

// markerStart marks the bytes a currency marker can start with: the first
// byte of every symbol in symbolTable, and A–Z for ISO codes.
var markerStart = func() (t [256]bool) {
	for _, e := range symbolTable {
		t[e.sym[0]] = true
	}
	for c := 'A'; c <= 'Z'; c++ {
		t[c] = true
	}
	return t
}()

// Match is one price found inside free text.
type Match struct {
	// Amount is the parsed price.
	Amount Amount
	// Start and End delimit the matched substring, byte offsets into the
	// scanned text (symbol included when adjacent).
	Start, End int
	// Explicit reports whether the currency came from the text itself
	// (symbol or ISO code) rather than from the caller's hint.
	Explicit bool
}

// Parse parses text that should contain exactly one price with an explicit
// currency symbol or ISO code, e.g. "$1,234.56" or "1.234,56 €".
func Parse(text string) (Amount, error) {
	return ParseWithHint(text, Currency{})
}

// ParseWithHint is Parse with a locale hint: when the text carries no
// currency marker the hint denominates the number, and when the number's
// separators are ambiguous (a single separator followed by exactly three
// digits) the hint's decimal separator disambiguates.
func ParseWithHint(text string, hint Currency) (Amount, error) {
	ms := ParseAll(text, hint)
	if len(ms) == 0 {
		if hasDigit(text) && hint.Code == "" {
			return Amount{}, ErrNoCurrency
		}
		return Amount{}, ErrNoPrice
	}
	if len(ms) > 1 {
		return Amount{}, fmt.Errorf("money: expected one price, found %d in %q", len(ms), text)
	}
	return ms[0].Amount, nil
}

// ParseAll scans free text and returns every price it can find, in order of
// appearance. Numbers without a currency marker are only reported when a
// hint currency is supplied.
func ParseAll(text string, hint Currency) []Match {
	var out []Match
	s := scanner{text: text, hint: hint}
	for m, ok := s.next(); ok; m, ok = s.next() {
		out = append(out, m)
	}
	return out
}

// Nth returns the n-th price in text (0-based, in ParseAll's order), or the
// first when text holds n or fewer prices or n is negative. ok is false
// when text holds no price. The scan stops at the n-th price.
func Nth(text string, n int, hint Currency) (m Match, ok bool) {
	s := scanner{text: text, hint: hint}
	first, ok := s.next()
	if !ok {
		return Match{}, false
	}
	m = first
	for i := 0; i < n && ok; i++ {
		m, ok = s.next()
	}
	if !ok {
		return first, true
	}
	return m, true
}

// scanner walks the prices of a text in order of appearance. It is the one
// price scan: ParseAll collects every price it yields, Nth stops at the
// one it wants.
type scanner struct {
	text string
	hint Currency
	pos  int
}

// next returns the next price, or ok false once the text is exhausted.
func (s *scanner) next() (Match, bool) {
	for s.pos < len(s.text) {
		m, next, ok := scanPrice(s.text, s.pos, s.hint)
		if !ok {
			s.pos = next
			continue
		}
		s.pos = m.End
		return m, true
	}
	return Match{}, false
}

func hasDigit(s string) bool {
	for i := 0; i < len(s); i++ {
		if s[i] >= '0' && s[i] <= '9' {
			return true
		}
	}
	return false
}

// scanPrice tries to read one price starting at or after pos. On failure it
// returns the position scanning should resume from.
func scanPrice(text string, pos int, hint Currency) (Match, int, bool) {
	// Find the next digit, currency symbol, or ISO code. The scan steps
	// byte by byte but tries a marker only where markerStart allows one:
	// every marker starts with an ASCII byte or a UTF-8 lead byte, never a
	// continuation byte, so these are exactly the rune starts a rune-wise
	// scan would try.
	start := pos
	for start < len(text) {
		c := text[start]
		if c >= '0' && c <= '9' {
			break
		}
		if markerStart[c] {
			if _, _, ok := symbolAt(text, start); ok {
				break
			}
			if _, _, ok := isoCodeAt(text, start); ok {
				break
			}
		}
		start++
	}
	if start >= len(text) {
		return Match{}, len(text), false
	}

	cur, explicit := hint, false
	numStart := start
	matchStart := start

	// Leading symbol or ISO code?
	if sym, c, ok := symbolAt(text, start); ok {
		cur, explicit = resolveSymbol(sym, c, hint), true
		numStart = start + len(sym)
		// Allow a single space between symbol and digits.
		if numStart < len(text) && text[numStart] == ' ' {
			numStart++
		}
		if numStart >= len(text) || !isDigitOrSign(text[numStart]) {
			// Symbol not followed by a number; resume after it.
			return Match{}, start + len(sym), false
		}
	} else if code, c, ok := isoCodeAt(text, start); ok {
		cur, explicit = c, true
		numStart = start + len(code)
		for numStart < len(text) && text[numStart] == ' ' {
			numStart++
		}
		if numStart >= len(text) || !isDigitOrSign(text[numStart]) {
			return Match{}, start + len(code), false
		}
	}

	units, numEnd, ok := scanNumber(text, numStart, cur)
	if !ok {
		return Match{}, numStart + 1, false
	}
	end := numEnd

	// Trailing symbol or ISO code (possibly after one space)?
	if !explicit {
		t := numEnd
		if t < len(text) && text[t] == ' ' {
			t++
		}
		if sym, c, ok := symbolAt(text, t); ok {
			cur, explicit = resolveSymbol(sym, c, hint), true
			end = t + len(sym)
		} else if code, c, ok := isoCodeAt(text, t); ok {
			cur, explicit = c, true
			end = t + len(code)
		}
	}

	if cur.Code == "" {
		// A bare number with no hint is not a price.
		return Match{}, numEnd, false
	}
	// Re-scan with the final currency so separator disambiguation uses it.
	units, numEnd2, ok := scanNumber(text, numStart, cur)
	if !ok || numEnd2 != numEnd {
		return Match{}, numEnd, false
	}
	// A minus sign immediately before a leading symbol ("-$5.25") negates.
	if matchStart > 0 && text[matchStart-1] == '-' && units > 0 && matchStart != numStart {
		units = -units
		matchStart--
	}
	return Match{
		Amount:   Amount{Units: units, Currency: cur},
		Start:    matchStart,
		End:      end,
		Explicit: explicit,
	}, end, true
}

func isDigitOrSign(c byte) bool {
	return (c >= '0' && c <= '9') || c == '-'
}

// symbolAt reports the currency symbol starting at pos, if any.
func symbolAt(text string, pos int) (string, Currency, bool) {
	for _, e := range symbolTable {
		if strings.HasPrefix(text[pos:], e.sym) {
			// Alphabetic symbols (kr, CHF, Ft...) must stand alone, not be
			// part of a longer word such as "kraft".
			if isAlphaSym(e.sym) && !standsAlone(text, pos, pos+len(e.sym)) {
				continue
			}
			return e.sym, e.cur, true
		}
	}
	return "", Currency{}, false
}

func isAlphaSym(sym string) bool {
	r, _ := utf8.DecodeRuneInString(sym)
	return unicode.IsLetter(r)
}

// standsAlone reports whether text[s:e] is not embedded in a longer
// letter run.
func standsAlone(text string, s, e int) bool {
	if s > 0 {
		r, _ := utf8.DecodeLastRuneInString(text[:s])
		if unicode.IsLetter(r) {
			return false
		}
	}
	if e < len(text) {
		r, _ := utf8.DecodeRuneInString(text[e:])
		if unicode.IsLetter(r) {
			return false
		}
	}
	return true
}

// isoCodeAt reports the ISO currency code starting at pos, if any.
func isoCodeAt(text string, pos int) (string, Currency, bool) {
	if pos+3 > len(text) {
		return "", Currency{}, false
	}
	code := text[pos : pos+3]
	c, ok := ByCode(code)
	if !ok || !standsAlone(text, pos, pos+3) {
		return "", Currency{}, false
	}
	return code, c, true
}

// resolveSymbol maps an ambiguous symbol to the hint currency when the hint
// uses the same symbol; otherwise the table currency wins.
func resolveSymbol(sym string, tableCur Currency, hint Currency) Currency {
	if hint.Code != "" && hint.Symbol == sym {
		return hint
	}
	return tableCur
}

// scanNumber reads a localized decimal number starting at pos and returns
// its value in minor units of cur.
//
// Separator interpretation rules (documented here because the crowdsourced
// data's main noise source is exactly this, Sec. 3.2):
//
//  1. If both '.' and ',' occur, the right-most one is the decimal separator.
//  2. A separator that occurs more than once is a grouping separator.
//  3. Spaces and apostrophes are always grouping separators.
//  4. A single '.' or ',' followed by one or two digits is a decimal
//     separator; followed by exactly three digits it is grouping, unless it
//     equals cur's home decimal separator in which case it is decimal;
//     followed by four or more digits it is decimal.
func scanNumber(text string, pos int, cur Currency) (int64, int, bool) {
	i := pos
	neg := false
	if i < len(text) && text[i] == '-' {
		neg = true
		i++
	}
	numStart := i
	type sep struct {
		ch    byte
		index int // byte index in text
		after int // digits after this separator before the next one/end
	}
	var sepBuf [8]sep // most numbers have one or two separators
	seps := sepBuf[:0]
	digits := 0
	for i < len(text) {
		c := text[i]
		switch {
		case c >= '0' && c <= '9':
			digits++
			if len(seps) > 0 {
				seps[len(seps)-1].after++
			}
			i++
		case c == '.' || c == ',' || c == '\'':
			// A separator must be followed by a digit to belong to the number.
			if i+1 >= len(text) || text[i+1] < '0' || text[i+1] > '9' {
				goto done
			}
			seps = append(seps, sep{ch: c, index: i})
			i++
		case c == ' ':
			// Space grouping: only when flanked by digits and the digit
			// group that follows has length 3 (e.g. "1 234,56").
			if i+3 < len(text)+1 && i+1 < len(text) && text[i+1] >= '0' && text[i+1] <= '9' &&
				digits > 0 && spaceGroupAhead(text, i+1) {
				seps = append(seps, sep{ch: ' ', index: i})
				i++
				continue
			}
			goto done
		default:
			goto done
		}
	}
done:
	if digits == 0 {
		return 0, pos, false
	}
	end := i
	// Trim a trailing separator that consumed no digits (can't happen given
	// the lookahead, but keep the invariant obvious).
	// Decide which separator, if any, is the decimal point.
	decIdx := -1 // index into seps
	count := func(ch byte) int {
		n := 0
		for _, s := range seps {
			if s.ch == ch {
				n++
			}
		}
		return n
	}
	last := len(seps) - 1
	switch {
	case len(seps) == 0:
		// plain integer
	case count('.') > 0 && count(',') > 0:
		// Right-most of the two kinds is decimal (rule 1).
		if seps[last].ch == '.' || seps[last].ch == ',' {
			decIdx = last
		}
	default:
		s := seps[last]
		if s.ch == ' ' || s.ch == '\'' {
			break // rule 3: grouping
		}
		if count(s.ch) > 1 {
			break // rule 2: grouping
		}
		switch {
		case s.after <= 2:
			decIdx = last // rule 4: decimal
		case s.after == 3:
			if cur.Code != "" && cur.DecimalSep == s.ch {
				decIdx = last
			}
		default:
			decIdx = last
		}
	}

	// Validate grouping separators: every group between separators (other
	// than the decimal one) must have exactly 3 digits; otherwise the token
	// is something like a version number ("1.2.3") or a date and is
	// rejected.
	for k, s := range seps {
		if k == decIdx {
			continue
		}
		limit := 3
		if s.after != limit {
			// Permit the decimal separator to cut the last group short.
			if !(decIdx == k+1 || (k == len(seps)-1 && decIdx == -1)) {
				return 0, pos, false
			}
			if s.after != 3 && !(decIdx == k+1) {
				return 0, pos, false
			}
		}
	}

	// Accumulate the digits before the decimal separator, then at most
	// exp digits after it (dropping sub-minor precision), then pad the
	// minor units to exp digits.
	//
	// maxSaneUnits rejects digit runs too large to be prices (serial
	// numbers, timestamps) and guards the accumulation against int64
	// overflow: 10^15 minor units is ten trillion dollars.
	const maxSaneUnits = int64(1e15)
	decAt := -1
	if decIdx >= 0 {
		decAt = seps[decIdx].index
	}
	exp := cur.Exponent
	var units int64
	minor := -1 // digits taken after the decimal separator; -1 before it
	for j := numStart; j < end; j++ {
		c := text[j]
		switch {
		case j == decAt:
			minor = 0
		case c < '0' || c > '9':
			// a grouping separator
		case minor < 0:
			units = units*10 + int64(c-'0')
			if units > maxSaneUnits {
				return 0, pos, false
			}
		case minor < exp:
			units = units*10 + int64(c-'0')
			minor++
		}
	}
	for j := max(minor, 0); j < exp; j++ {
		units *= 10
	}
	if units > maxSaneUnits*100 {
		return 0, pos, false
	}
	if neg {
		units = -units
	}
	return units, end, true
}

// spaceGroupAhead reports whether the digit run starting at pos has exactly
// three digits (a valid space-separated thousand group).
func spaceGroupAhead(text string, pos int) bool {
	n := 0
	for i := pos; i < len(text); i++ {
		c := text[i]
		if c >= '0' && c <= '9' {
			n++
			continue
		}
		break
	}
	return n == 3
}
