package money

import (
	"slices"
	"strings"
	"testing"
	"unicode/utf8"
)

// The oracle below is the price scanner as it stood before the byte
// prefilter, the ByCode switch and the allocation-free number assembly:
// it tries every marker at every rune and collects every match. The
// differential tests hold the one scanner (ParseAll and Nth) to it.

// oracleByCode is ByCode as a loop over All.
func oracleByCode(code string) (Currency, bool) {
	for _, c := range All {
		if c.Code == code {
			return c, true
		}
	}
	return Currency{}, false
}

// oracleNth is the anchor's rule over the oracle's matches ms: the
// idx-th price, else the first.
func oracleNth(ms []Match, idx int) (Match, bool) {
	if len(ms) == 0 {
		return Match{}, false
	}
	if idx >= 0 && idx < len(ms) {
		return ms[idx], true
	}
	return ms[0], true
}

func oracleParseAll(text string, hint Currency) []Match {
	var out []Match
	i := 0
	for i < len(text) {
		m, next, ok := oracleScanPrice(text, i, hint)
		if !ok {
			i = next
			continue
		}
		out = append(out, m)
		i = m.End
	}
	return out
}

func oracleScanPrice(text string, pos int, hint Currency) (Match, int, bool) {
	// Find the next digit, currency symbol, or ISO code.
	start := pos
	for start < len(text) {
		c := text[start]
		if c >= '0' && c <= '9' {
			break
		}
		if _, _, ok := symbolAt(text, start); ok {
			break
		}
		if _, _, ok := oracleIsoCodeAt(text, start); ok {
			break
		}
		_, size := utf8.DecodeRuneInString(text[start:])
		start += size
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
	} else if code, c, ok := oracleIsoCodeAt(text, start); ok {
		cur, explicit = c, true
		numStart = start + len(code)
		for numStart < len(text) && text[numStart] == ' ' {
			numStart++
		}
		if numStart >= len(text) || !isDigitOrSign(text[numStart]) {
			return Match{}, start + len(code), false
		}
	}

	units, numEnd, ok := oracleScanNumber(text, numStart, cur)
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
		} else if code, c, ok := oracleIsoCodeAt(text, t); ok {
			cur, explicit = c, true
			end = t + len(code)
		}
	}

	if cur.Code == "" {
		// A bare number with no hint is not a price.
		return Match{}, numEnd, false
	}
	// Re-scan with the final currency so separator disambiguation uses it.
	units, numEnd2, ok := oracleScanNumber(text, numStart, cur)
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

func oracleIsoCodeAt(text string, pos int) (string, Currency, bool) {
	if pos+3 > len(text) {
		return "", Currency{}, false
	}
	code := text[pos : pos+3]
	c, ok := oracleByCode(code)
	if !ok || !standsAlone(text, pos, pos+3) {
		return "", Currency{}, false
	}
	return code, c, true
}

func oracleScanNumber(text string, pos int, cur Currency) (int64, int, bool) {
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
	var seps []sep
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
	counts := map[byte]int{}
	for _, s := range seps {
		counts[s.ch]++
	}
	last := len(seps) - 1
	switch {
	case len(seps) == 0:
		// plain integer
	case counts['.'] > 0 && counts[','] > 0:
		// Right-most of the two kinds is decimal (rule 1).
		if seps[last].ch == '.' || seps[last].ch == ',' {
			decIdx = last
		}
	default:
		s := seps[last]
		if s.ch == ' ' || s.ch == '\'' {
			break // rule 3: grouping
		}
		if counts[s.ch] > 1 {
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

	// Assemble major and minor digit strings.
	var major, minor strings.Builder
	target := &major
	for j := numStart; j < end; j++ {
		c := text[j]
		if c >= '0' && c <= '9' {
			target.WriteByte(c)
			continue
		}
		for k, s := range seps {
			if s.index == j && k == decIdx {
				target = &minor
			}
		}
	}
	// maxSaneUnits rejects digit runs too large to be prices (serial
	// numbers, timestamps) and guards the accumulation against int64
	// overflow: 10^15 minor units is ten trillion dollars.
	const maxSaneUnits = int64(1e15)
	var units int64
	for j := 0; j < major.Len(); j++ {
		units = units*10 + int64(major.String()[j]-'0')
		if units > maxSaneUnits {
			return 0, pos, false
		}
	}
	exp := cur.Exponent
	mstr := minor.String()
	if len(mstr) > exp {
		mstr = mstr[:exp] // drop sub-minor precision
	}
	for j := 0; j < exp; j++ {
		units *= 10
		if j < len(mstr) {
			units += int64(mstr[j] - '0')
		}
	}
	if units > maxSaneUnits*100 {
		return 0, pos, false
	}
	if neg {
		units = -units
	}
	return units, end, true
}

// FuzzPriceScanOracle holds the price scanner to the oracle under every
// currency hint and under none: ParseAll must return the oracle's
// matches, and Nth the oracle's idx-th-else-first pick for every idx.
// Run longer with: go test -fuzz=FuzzPriceScanOracle ./internal/money
func FuzzPriceScanOracle(f *testing.F) {
	for _, seed := range []string{
		"$1,234.56 and 1.234,56 € or R$ 59,90",
		"version 1.2.3 is not a price; $5 is",
		"-$5.25 CHF 1'234.50 1 234,56 zł ¥1,234",
		"€€€$$$123...456,,,789",
		"krkrkr 10 kr 10kr Kč 5 Ft 7 MX$3 A$4 C$5",
		"Preço: ééééééééééééé 12,50 € — USD 12 JPY1,234 EURO 5",
		"1,234,567,890,123,456,789.00 $ 1.2.3.4.5.6.7.8.9.10.11",
		"9999999999999999 99999999999999.99 € \xe2\x82 \xff$1 ₹ 1,00,000 ₽ 5 ₺7",
		"1 234 567,89 zł 12 345 kr was $19.99 now $9.99 (save $10.00)",
	} {
		f.Add(seed, 1)
	}
	hints := append([]Currency{{}}, All...)
	f.Fuzz(func(t *testing.T, text string, idx int) {
		for _, hint := range hints {
			want := oracleParseAll(text, hint)
			if got := ParseAll(text, hint); !slices.Equal(got, want) {
				t.Fatalf("hint %q: ParseAll(%q) = %+v, oracle %+v", hint.Code, text, got, want)
			}
			for _, n := range []int{-1, 0, 1, 2, idx % 8, len(want), len(want) + 1} {
				got, gotOK := Nth(text, n, hint)
				want, wantOK := oracleNth(want, n)
				if got != want || gotOK != wantOK {
					t.Fatalf("hint %q: Nth(%q, %d) = %+v, %v; oracle %+v, %v", hint.Code, text, n, got, gotOK, want, wantOK)
				}
			}
		}
	})
}

func TestByCodeMatchesOracle(t *testing.T) {
	codes := []string{"", "usd", "US", "USDX", "XXX", "EURO", "€"}
	for _, c := range All {
		codes = append(codes, c.Code)
	}
	for _, code := range codes {
		got, ok := ByCode(code)
		want, wantOK := oracleByCode(code)
		if got != want || ok != wantOK {
			t.Errorf("ByCode(%q) = %+v, %v; oracle %+v, %v", code, got, ok, want, wantOK)
		}
	}
}
