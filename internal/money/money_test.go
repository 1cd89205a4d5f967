package money

import (
	"math"
	"testing"
	"testing/quick"
)

func TestFromFloatRounding(t *testing.T) {
	cases := []struct {
		in   float64
		want int64
	}{
		{1.005, 101}, // half away from zero
		{1.004, 100},
		{0, 0},
		{-1.005, -101},
		{-1.004, -100},
		{9.999, 1000},
		{10.994999, 1099},
	}
	for _, c := range cases {
		got := FromFloat(c.in, USD).Units
		if got != c.want {
			t.Errorf("FromFloat(%v) = %d units, want %d", c.in, got, c.want)
		}
	}
}

func TestAmountFloatRoundTrip(t *testing.T) {
	if err := quick.Check(func(units int32) bool {
		a := FromMinor(int64(units), USD)
		back := FromFloat(a.Float(), USD)
		return back.Units == a.Units
	}, nil); err != nil {
		t.Error(err)
	}
}

func TestAddAndCmp(t *testing.T) {
	a := FromMinor(150, USD)
	b := FromMinor(50, USD)
	if got := a.Add(b).Units; got != 200 {
		t.Errorf("Add = %d, want 200", got)
	}
	if a.Cmp(b) != 1 || b.Cmp(a) != -1 || a.Cmp(a) != 0 {
		t.Error("Cmp ordering wrong")
	}
}

func TestAddPanicsAcrossCurrencies(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Add across currencies did not panic")
		}
	}()
	FromMinor(1, USD).Add(FromMinor(1, EUR))
}

func TestCmpPanicsAcrossCurrencies(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Cmp across currencies did not panic")
		}
	}()
	FromMinor(1, USD).Cmp(FromMinor(1, EUR))
}

func TestFormatHomeStyles(t *testing.T) {
	cases := []struct {
		a    Amount
		want string
	}{
		{FromMinor(123456, USD), "$1,234.56"},
		{FromMinor(123456, EUR), "1.234,56 €"},
		{FromMinor(999, GBP), "£9.99"},
		{FromMinor(123456, BRL), "R$1.234,56"},
		{FromMinor(1234, JPY), "¥1,234"},
		{FromMinor(123456789, USD), "$1,234,567.89"},
		{FromMinor(-999, USD), "-$9.99"},
		{FromMinor(123456, PLN), "1 234,56 zł"},
	}
	for _, c := range cases {
		if got := c.a.String(); got != c.want {
			t.Errorf("String(%d %s) = %q, want %q", c.a.Units, c.a.Currency.Code, got, c.want)
		}
	}
}

func TestFormatStyleVariants(t *testing.T) {
	a := FromMinor(123400, EUR)
	us := Style{Symbol: "€", SymbolBefore: true, DecimalSep: '.', GroupSep: ','}
	if got := Format(a, us); got != "€1,234.00" {
		t.Errorf("US-style EUR = %q", got)
	}
	strip := us
	strip.StripZeroCents = true
	if got := Format(a, strip); got != "€1,234" {
		t.Errorf("StripZeroCents = %q", got)
	}
	if got := Format(FromMinor(123450, EUR), strip); got != "€1,234.50" {
		t.Errorf("StripZeroCents with nonzero cents = %q", got)
	}
}

func TestParseBasics(t *testing.T) {
	cases := []struct {
		in    string
		units int64
		code  string
	}{
		{"$1,234.56", 123456, "USD"},
		{"$ 1,234.56", 123456, "USD"},
		{"1.234,56 €", 123456, "EUR"},
		{"1.234,56€", 123456, "EUR"},
		{"£9.99", 999, "GBP"},
		{"R$1.234,56", 123456, "BRL"},
		{"R$ 59,90", 5990, "BRL"},
		{"¥1,234", 1234, "JPY"},
		{"1 234,56 zł", 123456, "PLN"},
		{"CHF 1'234.50", 123450, "CHF"},
		{"USD 42.00", 4200, "USD"},
		{"42.00 USD", 4200, "USD"},
		{"-$5.25", -525, "USD"},
		{"$0.99", 99, "USD"},
		{"€5", 500, "EUR"},
	}
	for _, c := range cases {
		got, err := Parse(c.in)
		if err != nil {
			t.Errorf("Parse(%q): %v", c.in, err)
			continue
		}
		if got.Units != c.units || got.Currency.Code != c.code {
			t.Errorf("Parse(%q) = %d %s, want %d %s",
				c.in, got.Units, got.Currency.Code, c.units, c.code)
		}
	}
}

func TestParseAmbiguousSeparators(t *testing.T) {
	cases := []struct {
		in    string
		hint  Currency
		units int64
	}{
		// Single '.' + three digits: grouping unless hint says decimal.
		{"€1.234", Currency{}, 123400},
		{"1.234 €", EUR, 123400},        // EUR decimal is ',' so '.' groups
		{"$1.234", USD, 123},            // USD decimal is '.', 3 digits -> decimal, truncated to cents
		{"9,99 €", EUR, 999},            // 2 digits after -> decimal
		{"9.99 €", EUR, 999},            // rule 4: 2 digits -> decimal even though EUR uses ','
		{"1.234.567 €", EUR, 123456700}, // repeated '.' -> grouping
		{"1,234,567.89 USD", USD, 123456789},
	}
	for _, c := range cases {
		got, err := ParseWithHint(c.in, c.hint)
		if err != nil {
			t.Errorf("ParseWithHint(%q): %v", c.in, err)
			continue
		}
		if got.Units != c.units {
			t.Errorf("ParseWithHint(%q) = %d, want %d", c.in, got.Units, c.units)
		}
	}
}

func TestParseSEKCommaDecimal(t *testing.T) {
	// "1,234 kr" with SEK hint: ',' is SEK's decimal separator and is
	// followed by 3 digits -> decimal by rule 4's hint clause, so the value
	// is 1.234 kr, truncated to the exponent: 123 minor units.
	got, err := ParseWithHint("1,234 kr", SEK)
	if err != nil {
		t.Fatal(err)
	}
	if got.Units != 123 {
		t.Fatalf("got %d, want 123", got.Units)
	}
}

func TestParseRejectsNonPrices(t *testing.T) {
	for _, in := range []string{"", "no numbers here", "version 1.2.3", "call 555-1212x"} {
		if _, err := Parse(in); err == nil {
			t.Errorf("Parse(%q) unexpectedly succeeded", in)
		}
	}
}

func TestParseNumberWithHintOnly(t *testing.T) {
	got, err := ParseWithHint("1234.50", USD)
	if err != nil {
		t.Fatal(err)
	}
	if got.Units != 123450 || got.Currency.Code != "USD" {
		t.Fatalf("got %d %s", got.Units, got.Currency.Code)
	}
	if _, err := Parse("1234.50"); err == nil {
		t.Fatal("bare number without hint should not parse")
	}
}

func TestParseAllFindsMultiplePrices(t *testing.T) {
	text := "Main item: $49.99. Also recommended: $12.50 and $199.00."
	ms := ParseAll(text, Currency{})
	if len(ms) != 3 {
		t.Fatalf("found %d prices, want 3: %+v", len(ms), ms)
	}
	want := []int64{4999, 1250, 19900}
	for i, m := range ms {
		if m.Amount.Units != want[i] {
			t.Errorf("price %d = %d, want %d", i, m.Amount.Units, want[i])
		}
		if !m.Explicit {
			t.Errorf("price %d not marked explicit", i)
		}
	}
}

func TestParseAllOffsets(t *testing.T) {
	text := "xx $5.00 yy"
	ms := ParseAll(text, Currency{})
	if len(ms) != 1 {
		t.Fatalf("found %d", len(ms))
	}
	if got := text[ms[0].Start:ms[0].End]; got != "$5.00" {
		t.Errorf("span = %q", got)
	}
}

func TestParseAllKrNotInsideWord(t *testing.T) {
	ms := ParseAll("kraft paper 100 sheets", SEK)
	for _, m := range ms {
		if m.Explicit {
			t.Errorf("matched currency inside word: %+v", m)
		}
	}
}

func TestFormatParseRoundTripAllCurrencies(t *testing.T) {
	for _, cur := range All {
		cur := cur
		f := func(raw int32) bool {
			units := int64(raw)
			if units < 0 {
				units = -units
			}
			a := FromMinor(units, cur)
			s := a.String()
			back, err := ParseWithHint(s, cur)
			if err != nil {
				t.Logf("%s: Parse(%q): %v", cur.Code, s, err)
				return false
			}
			return back.Units == a.Units && back.Currency.Code == cur.Code
		}
		if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
			t.Errorf("%s round trip: %v", cur.Code, err)
		}
	}
}

func TestCrossLocaleRenderParse(t *testing.T) {
	// A EUR price rendered US-style must still parse to the same value.
	a := FromMinor(123456, EUR)
	s := Format(a, Style{Symbol: "€", SymbolBefore: true, DecimalSep: '.', GroupSep: ','})
	got, err := Parse(s)
	if err != nil {
		t.Fatal(err)
	}
	if got.Units != a.Units {
		t.Fatalf("Parse(%q) = %d, want %d", s, got.Units, a.Units)
	}
}

func TestByCode(t *testing.T) {
	if c, ok := ByCode("EUR"); !ok || c.Symbol != "€" {
		t.Error("ByCode(EUR) failed")
	}
	if _, ok := ByCode("XXX"); ok {
		t.Error("ByCode(XXX) should fail")
	}
}

func TestMulPrecision(t *testing.T) {
	a := FromMinor(1000, USD) // $10.00
	if got := a.Mul(1.1).Units; got != 1100 {
		t.Errorf("Mul(1.1) = %d", got)
	}
	if got := a.Mul(0).Units; got != 0 {
		t.Errorf("Mul(0) = %d", got)
	}
	if got := a.Mul(math.Pi).Units; got != 3142 {
		t.Errorf("Mul(pi) = %d", got)
	}
}

func TestGroupingEdgeCases(t *testing.T) {
	cases := []struct{ in, want string }{
		{"1", "1"},
		{"12", "12"},
		{"123", "123"},
		{"1234", "1,234"},
		{"123456", "123,456"},
		{"1234567", "1,234,567"},
	}
	for _, c := range cases {
		if got := string(appendGrouped(nil, []byte(c.in), ',')); got != c.want {
			t.Errorf("appendGrouped(%q) = %q, want %q", c.in, got, c.want)
		}
	}
}

func TestZeroAmountFormatting(t *testing.T) {
	if got := FromMinor(0, USD).String(); got != "$0.00" {
		t.Errorf("zero USD = %q", got)
	}
	if got := FromMinor(0, JPY).String(); got != "¥0" {
		t.Errorf("zero JPY = %q", got)
	}
	if !FromMinor(0, USD).IsZero() {
		t.Error("IsZero false for zero")
	}
}
