// Package money implements currencies, exact monetary amounts, locale-aware
// price formatting and tolerant price parsing.
//
// The paper's crowdsourced dataset suffers from "diverse number and date
// formats across countries" (Sec. 3.2): the same product renders as
// "$1,234.56" in Boston, "1.234,56 €" in Berlin and "R$ 1.234,56" in São
// Paulo. This package is the single source of truth for producing those
// renderings (the retailer simulator uses Format) and for undoing them
// (the extraction pipeline uses Parse).
//
// Amounts are stored in integer minor units (cents) to keep every pipeline
// stage exact; ratios and statistics convert to float64 at the edge.
package money

import (
	"fmt"
	"math"
	"strings"
)

// Currency identifies an ISO-4217-style currency together with the display
// conventions its home locale uses for prices.
type Currency struct {
	// Code is the ISO code, e.g. "USD".
	Code string
	// Symbol is the display symbol, e.g. "$" or "€".
	Symbol string
	// Exponent is the number of minor-unit digits (2 for cents, 0 for JPY).
	Exponent int
	// SymbolBefore reports whether the symbol precedes the number ("$9.99")
	// or follows it ("9,99 €").
	SymbolBefore bool
	// DecimalSep is the decimal separator used by the home locale.
	DecimalSep byte
	// GroupSep is the thousands separator used by the home locale
	// (0 means no grouping).
	GroupSep byte
}

// Predefined currencies. The set covers every vantage-point country plus the
// crowd-user countries of the reproduction (18 countries, Sec. 3.2).
var (
	USD = Currency{Code: "USD", Symbol: "$", Exponent: 2, SymbolBefore: true, DecimalSep: '.', GroupSep: ','}
	EUR = Currency{Code: "EUR", Symbol: "€", Exponent: 2, SymbolBefore: false, DecimalSep: ',', GroupSep: '.'}
	GBP = Currency{Code: "GBP", Symbol: "£", Exponent: 2, SymbolBefore: true, DecimalSep: '.', GroupSep: ','}
	BRL = Currency{Code: "BRL", Symbol: "R$", Exponent: 2, SymbolBefore: true, DecimalSep: ',', GroupSep: '.'}
	PLN = Currency{Code: "PLN", Symbol: "zł", Exponent: 2, SymbolBefore: false, DecimalSep: ',', GroupSep: ' '}
	SEK = Currency{Code: "SEK", Symbol: "kr", Exponent: 2, SymbolBefore: false, DecimalSep: ',', GroupSep: ' '}
	CHF = Currency{Code: "CHF", Symbol: "CHF", Exponent: 2, SymbolBefore: true, DecimalSep: '.', GroupSep: '\''}
	JPY = Currency{Code: "JPY", Symbol: "¥", Exponent: 0, SymbolBefore: true, DecimalSep: '.', GroupSep: ','}
	CAD = Currency{Code: "CAD", Symbol: "C$", Exponent: 2, SymbolBefore: true, DecimalSep: '.', GroupSep: ','}
	MXN = Currency{Code: "MXN", Symbol: "MX$", Exponent: 2, SymbolBefore: true, DecimalSep: '.', GroupSep: ','}
	AUD = Currency{Code: "AUD", Symbol: "A$", Exponent: 2, SymbolBefore: true, DecimalSep: '.', GroupSep: ','}
	NOK = Currency{Code: "NOK", Symbol: "kr", Exponent: 2, SymbolBefore: false, DecimalSep: ',', GroupSep: ' '}
	DKK = Currency{Code: "DKK", Symbol: "kr", Exponent: 2, SymbolBefore: false, DecimalSep: ',', GroupSep: '.'}
	CZK = Currency{Code: "CZK", Symbol: "Kč", Exponent: 2, SymbolBefore: false, DecimalSep: ',', GroupSep: ' '}
	HUF = Currency{Code: "HUF", Symbol: "Ft", Exponent: 0, SymbolBefore: false, DecimalSep: ',', GroupSep: ' '}
	TRY = Currency{Code: "TRY", Symbol: "₺", Exponent: 2, SymbolBefore: true, DecimalSep: ',', GroupSep: '.'}
	INR = Currency{Code: "INR", Symbol: "₹", Exponent: 2, SymbolBefore: true, DecimalSep: '.', GroupSep: ','}
	RUB = Currency{Code: "RUB", Symbol: "₽", Exponent: 2, SymbolBefore: false, DecimalSep: ',', GroupSep: ' '}
)

// All lists every predefined currency, in a stable order.
var All = []Currency{
	USD, EUR, GBP, BRL, PLN, SEK, CHF, JPY, CAD,
	MXN, AUD, NOK, DKK, CZK, HUF, TRY, INR, RUB,
}

// ByCode returns the predefined currency with the given ISO code.
func ByCode(code string) (Currency, bool) {
	switch code {
	case "USD":
		return USD, true
	case "EUR":
		return EUR, true
	case "GBP":
		return GBP, true
	case "BRL":
		return BRL, true
	case "PLN":
		return PLN, true
	case "SEK":
		return SEK, true
	case "CHF":
		return CHF, true
	case "JPY":
		return JPY, true
	case "CAD":
		return CAD, true
	case "MXN":
		return MXN, true
	case "AUD":
		return AUD, true
	case "NOK":
		return NOK, true
	case "DKK":
		return DKK, true
	case "CZK":
		return CZK, true
	case "HUF":
		return HUF, true
	case "TRY":
		return TRY, true
	case "INR":
		return INR, true
	case "RUB":
		return RUB, true
	}
	return Currency{}, false
}

// unit returns the number of minor units per major unit (100 for USD).
func (c Currency) unit() int64 {
	u := int64(1)
	for i := 0; i < c.Exponent; i++ {
		u *= 10
	}
	return u
}

// Amount is an exact monetary amount: an integer count of minor units of a
// currency. The zero Amount is "0 units of the zero Currency" and is safe to
// compare against.
type Amount struct {
	// Units is the amount in minor units (cents for USD).
	Units int64
	// Currency is the denomination.
	Currency Currency
}

// FromFloat builds an Amount from a major-unit float, rounding half away
// from zero to the currency's exponent. A tiny bias (1e-6 minor units)
// compensates for binary floats that sit just under a .5 boundary, so that
// FromFloat(1.005, USD) is 101 cents as a human would expect.
func FromFloat(v float64, c Currency) Amount {
	scaled := v * float64(c.unit())
	scaled += math.Copysign(1e-6, scaled)
	return Amount{Units: int64(math.Round(scaled)), Currency: c}
}

// FromMinor builds an Amount directly from minor units.
func FromMinor(units int64, c Currency) Amount {
	return Amount{Units: units, Currency: c}
}

// Float returns the amount in major units as a float64.
func (a Amount) Float() float64 {
	return float64(a.Units) / float64(a.Currency.unit())
}

// IsZero reports whether the amount is exactly zero.
func (a Amount) IsZero() bool { return a.Units == 0 }

// Mul returns the amount scaled by factor, rounded half away from zero.
func (a Amount) Mul(factor float64) Amount {
	return FromFloat(a.Float()*factor, a.Currency)
}

// Add returns a+b. It panics if the currencies differ: adding across
// denominations is always a programming error in this codebase, as
// conversions must go through the fx package where a rate and date are
// explicit.
func (a Amount) Add(b Amount) Amount {
	if a.Currency.Code != b.Currency.Code {
		panic(fmt.Sprintf("money: Add across currencies %s and %s", a.Currency.Code, b.Currency.Code))
	}
	return Amount{Units: a.Units + b.Units, Currency: a.Currency}
}

// Cmp compares two amounts of the same currency: -1 if a<b, 0 if equal,
// +1 if a>b. It panics if the currencies differ.
func (a Amount) Cmp(b Amount) int {
	if a.Currency.Code != b.Currency.Code {
		panic(fmt.Sprintf("money: Cmp across currencies %s and %s", a.Currency.Code, b.Currency.Code))
	}
	switch {
	case a.Units < b.Units:
		return -1
	case a.Units > b.Units:
		return 1
	}
	return 0
}

// String renders the amount in the currency's home-locale convention.
// It is shorthand for Format with the currency's own Style.
func (a Amount) String() string {
	return Format(a, a.Currency.Style())
}

// Style describes how a locale renders a price of some currency.
// Retail sites mix-and-match: a US site shows "€1,234.56" to a German
// visitor just as often as "1.234,56 €", so Style is independent of the
// Currency it renders.
type Style struct {
	// Symbol to display; empty means use the currency's own.
	Symbol string
	// SymbolBefore places the symbol before the digits.
	SymbolBefore bool
	// SymbolSpace inserts a space between symbol and digits.
	SymbolSpace bool
	// DecimalSep separates major from minor units.
	DecimalSep byte
	// GroupSep groups thousands; 0 disables grouping.
	GroupSep byte
	// StripZeroCents renders "12" instead of "12.00" for whole amounts.
	StripZeroCents bool
}

// Style returns the home-locale style of the currency.
func (c Currency) Style() Style {
	return Style{
		Symbol:       c.Symbol,
		SymbolBefore: c.SymbolBefore,
		SymbolSpace:  !c.SymbolBefore,
		DecimalSep:   c.DecimalSep,
		GroupSep:     c.GroupSep,
	}
}

// Format renders amount according to style.
func Format(a Amount, s Style) string {
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
		digits = group(digits, s.GroupSep)
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

// group inserts sep every three digits from the right: "1234567" -> "1,234,567".
func group(digits string, sep byte) string {
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
