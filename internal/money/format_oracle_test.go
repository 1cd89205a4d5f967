package money

import (
	"fmt"
	"math"
	"strings"
	"testing"
)

// oracleFormat is Format as it stood before AppendFormat: fmt for the
// digits and a string-building group. The differential tests hold the
// one formatter to it byte for byte.
func oracleFormat(a Amount, s Style) string {
	sym := s.Symbol
	if sym == "" {
		sym = a.Currency.Symbol
	}
	neg := a.Units < 0
	units := a.Units
	if neg {
		units = -units
	}
	u := a.Currency.unit()
	major := units / u
	minor := units % u

	digits := fmt.Sprintf("%d", major)
	if s.GroupSep != 0 {
		digits = oracleGroup(digits, s.GroupSep)
	}
	var b strings.Builder
	if neg {
		b.WriteByte('-')
	}
	if s.SymbolBefore {
		b.WriteString(sym)
		if s.SymbolSpace {
			b.WriteByte(' ')
		}
	}
	b.WriteString(digits)
	if a.Currency.Exponent > 0 && !(s.StripZeroCents && minor == 0) {
		b.WriteByte(s.DecimalSep)
		fmt.Fprintf(&b, "%0*d", a.Currency.Exponent, minor)
	}
	if !s.SymbolBefore {
		if s.SymbolSpace {
			b.WriteByte(' ')
		}
		b.WriteString(sym)
	}
	return b.String()
}

func oracleGroup(digits string, sep byte) string {
	n := len(digits)
	if n <= 3 {
		return digits
	}
	var b strings.Builder
	head := n % 3
	if head > 0 {
		b.WriteString(digits[:head])
	}
	for i := head; i < n; i += 3 {
		if b.Len() > 0 {
			b.WriteByte(sep)
		}
		b.WriteString(digits[i : i+3])
	}
	return b.String()
}

// formatUnits are amounts at zero, at the grouping boundaries of both
// exponents, with zero and non-zero minor units, and at the extremes of
// int64; each is also tried negated.
var formatUnits = []int64{
	0, 1, 9, 10, 99, 100, 101, 999, 1000, 1001, 9999, 10000, 99999,
	100000, 100001, 123456, 999999, 1000000, 1234567, 99999999, 100000000,
	123456789012, 100000000000000, math.MaxInt64, math.MinInt64,
}

// formatStyles are each currency's home style and its variants: the
// US-style rendering of a foreign currency, stripped zero cents, no
// grouping, an empty symbol (the currency's own), and a symbol after the
// digits with no space.
func formatStyles(c Currency) []Style {
	home := c.Style()
	strip := home
	strip.StripZeroCents = true
	ungrouped := home
	ungrouped.GroupSep = 0
	ownSymbol := home
	ownSymbol.Symbol = ""
	tight := home
	tight.SymbolBefore, tight.SymbolSpace = false, false
	us := Style{Symbol: c.Symbol, SymbolBefore: true, DecimalSep: '.', GroupSep: ','}
	return []Style{home, strip, ungrouped, ownSymbol, tight, us}
}

func TestAppendFormatMatchesOracle(t *testing.T) {
	prefix := []byte("price: ")
	for _, c := range All {
		for _, s := range formatStyles(c) {
			for _, u := range formatUnits {
				for _, units := range []int64{u, -u} {
					a := FromMinor(units, c)
					want := oracleFormat(a, s)
					if got := Format(a, s); got != want {
						t.Fatalf("Format(%d %s, %+v) = %q, oracle %q", units, c.Code, s, got, want)
					}
					got := AppendFormat(append([]byte(nil), prefix...), a, s)
					if string(got) != string(prefix)+want {
						t.Fatalf("AppendFormat(%d %s, %+v) = %q, oracle %q", units, c.Code, s, got, want)
					}
				}
			}
		}
	}
}

// TestAppendFormatAllocs pins that formatting into a buffer with room
// allocates nothing, which is what lets a storefront render its prices
// straight into its page.
func TestAppendFormatAllocs(t *testing.T) {
	buf := make([]byte, 0, 64)
	a := FromMinor(123456789, EUR)
	allocs := testing.AllocsPerRun(100, func() {
		buf = AppendFormat(buf[:0], a, a.Currency.Style())
	})
	if allocs != 0 {
		t.Fatalf("AppendFormat into a buffer with room allocates %.1f times, want 0", allocs)
	}
}

// FuzzFormatOracle holds AppendFormat and Format to the fmt-based oracle
// on arbitrary amounts, currencies and styles.
// Run longer with: go test -fuzz=FuzzFormatOracle ./internal/money
func FuzzFormatOracle(f *testing.F) {
	f.Add(int64(123456), uint8(0), "", true, false, byte('.'), byte(','), false)
	f.Add(int64(-100), uint8(1), "€", false, true, byte(','), byte('.'), true)
	f.Add(int64(math.MinInt64), uint8(7), "¥", true, true, byte('.'), byte(0), false)
	f.Add(int64(1000000), uint8(6), "CHF", true, false, byte('.'), byte('\''), true)
	f.Fuzz(func(t *testing.T, units int64, cur uint8, sym string, before, space bool, dec, grp byte, strip bool) {
		a := FromMinor(units, All[int(cur)%len(All)])
		s := Style{Symbol: sym, SymbolBefore: before, SymbolSpace: space, DecimalSep: dec, GroupSep: grp, StripZeroCents: strip}
		want := oracleFormat(a, s)
		if got := Format(a, s); got != want {
			t.Fatalf("Format(%d %s, %+v) = %q, oracle %q", units, a.Currency.Code, s, got, want)
		}
		if got := AppendFormat([]byte("x"), a, s); string(got) != "x"+want {
			t.Fatalf("AppendFormat(%d %s, %+v) = %q, oracle %q", units, a.Currency.Code, s, got, want)
		}
	})
}
