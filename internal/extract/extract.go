// Package extract implements $heriff's template-free price extraction.
//
// The paper's core scaling trick (Sec. 2.2): instead of writing one scraper
// per retailer template, let the user highlight the price once. From that
// highlight we derive an Anchor — a structural path to the highlighted
// element plus enough local context to disambiguate multiple prices inside
// it — and re-apply the anchor to renderings of the same page fetched from
// other vantage points, where the price may appear in a different currency
// and number format.
//
// Extraction is layered, most precise first:
//
//  1. structural: resolve the anchor's node path and parse the price at
//     the remembered match index inside that element;
//  2. contextual: find any element whose text carries the anchor's
//     leading context ("Our price:") followed by a price;
//  3. heuristic: take the first element with a price-suggesting class
//     ("price", "amount", ...) whose text parses to exactly one price.
//
// Parsed.ExtractPage applies an anchor to an unparsed page. It streams
// layer 1 through htmlx's one tokenizer, which also feeds the tree
// builder, and parses the page for layers 1–3 only when the streamed pass
// cannot commit to the tree's answer.
//
// The naive whole-page scan (NaiveFirst) exists only as the ablation
// baseline; product pages deliberately carry decoy prices that defeat it.
package extract

import (
	"errors"
	"fmt"
	"strings"
	"unicode/utf8"

	"sheriff/internal/htmlx"
	"sheriff/internal/money"
)

// Errors returned by the extraction pipeline.
var (
	// ErrHighlightNotFound reports that the highlighted text is not on the
	// page it was supposedly highlighted on.
	ErrHighlightNotFound = errors.New("extract: highlighted text not found on page")
	// ErrNoPrice reports that no extraction layer could find a price.
	ErrNoPrice = errors.New("extract: no price found")
)

// Anchor remembers where a price lives inside a page family. It is what
// the $heriff backend stores per (domain, product) after a user highlight,
// and what both the fan-out checker and the systematic crawler apply to
// newly fetched pages.
type Anchor struct {
	// Path is the serialized structural path to the price element.
	Path string
	// MatchIndex selects among multiple prices inside the element's text
	// (0-based document order).
	MatchIndex int
	// Context is the text immediately preceding the price inside the
	// element, used by the contextual fallback.
	Context string
}

// Parsed is an Anchor with its path parsed, ready to apply to many pages.
// Anchor stays the comparable wire form that SaveAnchors writes; the
// parsed path lives beside it, so whoever keeps an anchor for reuse (the
// backend's table, the crawler's per-domain map, an experiment's loop)
// parses its path once instead of once per page.
type Parsed struct {
	Anchor
	path htmlx.Path // nil when Anchor.Path does not parse
}

// Parse parses the anchor's path. An anchor whose path does not parse
// still extracts, through the contextual and heuristic layers.
func (a Anchor) Parse() Parsed {
	p, err := htmlx.ParsePath(a.Path)
	if err != nil {
		p = nil
	}
	return Parsed{Anchor: a, path: p}
}

// Derive builds an Anchor from a user highlight: the exact price text the
// user selected on the page. The hint currency is the locale the page was
// rendered for (the highlighting user's own locale).
func Derive(doc *htmlx.Node, highlight string, hint money.Currency) (Anchor, error) {
	want, err := money.ParseWithHint(strings.TrimSpace(highlight), hint)
	if err != nil {
		return Anchor{}, fmt.Errorf("extract: highlight %q does not parse as a price: %w", highlight, err)
	}
	el, text := doc.DeepestContaining(strings.Join(strings.Fields(highlight), " "))
	if el == nil {
		return Anchor{}, ErrHighlightNotFound
	}
	matches := money.ParseAll(text, hint)
	if len(matches) == 0 {
		return Anchor{}, fmt.Errorf("extract: element text %q has no parseable price", text)
	}
	idx := 0
	found := false
	for i, m := range matches {
		if m.Amount.Units == want.Units && m.Amount.Currency.Code == want.Currency.Code {
			idx, found = i, true
			break
		}
	}
	if !found {
		// The highlight parsed but its value is not among the element's
		// prices (e.g. partial selection): fall back to the first price.
		idx = 0
	}
	ctx := leadingContext(text, matches[idx].Start)
	return Anchor{
		Path:       htmlx.PathOf(el).String(),
		MatchIndex: idx,
		Context:    ctx,
	}, nil
}

// leadingContext captures up to contextLen bytes of text before the match,
// trimmed to whole words.
const contextLen = 24

func leadingContext(text string, start int) string {
	lo := start - contextLen
	if lo < 0 {
		lo = 0
	}
	// Start the window on a rune, so the context stays valid UTF-8 and
	// survives a JSON round trip unchanged.
	for lo > 0 && !utf8.RuneStart(text[lo]) {
		lo++
	}
	ctx := strings.TrimSpace(text[lo:start])
	if lo > 0 {
		// Drop the possibly cut first word.
		if sp := strings.IndexByte(ctx, ' '); sp >= 0 {
			ctx = ctx[sp+1:]
		}
	}
	return ctx
}

// Extract applies the anchor to a page and returns the price. The hint
// currency is the locale the page was fetched under (the vantage point's
// country currency); it denominates bare numbers and disambiguates
// separators.
func (a Anchor) Extract(doc *htmlx.Node, hint money.Currency) (money.Amount, error) {
	return a.Parse().Extract(doc, hint)
}

// Extract is Anchor.Extract with the path already parsed.
func (a Parsed) Extract(doc *htmlx.Node, hint money.Currency) (money.Amount, error) {
	// Layer 1: structural.
	if el, ok := a.path.Resolve(doc); ok {
		if amt, ok := priceInText(el.Text(), a.MatchIndex, hint); ok {
			return amt, nil
		}
	}
	// Layer 2: contextual.
	if a.Context != "" {
		if amt, ok := priceAfterContext(doc, a.Context, hint); ok {
			return amt, nil
		}
	}
	// Layer 3: class heuristic.
	if amt, ok := priceByClassHeuristic(doc, hint); ok {
		return amt, nil
	}
	return money.Amount{}, ErrNoPrice
}

// ExtractPage applies the anchor to an unparsed page. It is defined as
// Extract(ParseString(page), hint), but it first streams layer 1: the
// anchor's path resolves while the page is tokenized, and the price is
// read from the target's text as soon as the target closes, with no tree
// built. Only when that pass cannot commit to Resolve's answer, or the
// target's text holds no price, does it parse the page and run all three
// layers on the tree.
func (a Parsed) ExtractPage(page string, hint money.Currency) (money.Amount, error) {
	if text, ok := a.path.ResolveText(page); ok {
		if amt, ok := priceInText(text, a.MatchIndex, hint); ok {
			return amt, nil
		}
	}
	doc, err := htmlx.ParseString(page)
	if err != nil {
		return money.Amount{}, err
	}
	return a.Extract(doc, hint)
}

// priceInText picks the idx-th price of an anchored element's text,
// falling back to the first when the element has fewer prices than the
// original had.
func priceInText(text string, idx int, hint money.Currency) (money.Amount, bool) {
	m, ok := money.Nth(text, idx, hint)
	return m.Amount, ok
}

// priceAfterContext finds the first element whose text contains the
// context string immediately followed by a price.
func priceAfterContext(doc *htmlx.Node, ctx string, hint money.Currency) (money.Amount, bool) {
	var out money.Amount
	found := false
	doc.Walk(func(n *htmlx.Node) bool {
		if found || n.Type != htmlx.ElementNode {
			return !found
		}
		text := n.Text()
		pos := strings.Index(text, ctx)
		if pos < 0 {
			return true
		}
		after := text[pos+len(ctx):]
		ms := money.ParseAll(after, hint)
		if len(ms) == 0 {
			return true
		}
		// The price must start right after the context (allow separators).
		lead := strings.TrimLeft(after[:ms[0].Start], " : ")
		if lead != "" {
			return true
		}
		out, found = ms[0].Amount, true
		return false
	})
	return out, found
}

// priceClassHints are class-name fragments that suggest a price element.
var priceClassHints = []string{"price", "amount", "cost"}

// priceByClassHeuristic scans for elements with price-suggesting classes
// containing exactly one price. Elements that look like decoys
// (recommendation/ad/was classes) are skipped.
func priceByClassHeuristic(doc *htmlx.Node, hint money.Currency) (money.Amount, bool) {
	var out money.Amount
	found := false
	doc.Walk(func(n *htmlx.Node) bool {
		if found {
			return false
		}
		if n.Type != htmlx.ElementNode {
			return true
		}
		if !hasPriceClass(n) || isDecoy(n) {
			return true
		}
		ms := money.ParseAll(n.Text(), hint)
		if len(ms) == 1 {
			out, found = ms[0].Amount, true
			return false
		}
		return true
	})
	return out, found
}

func hasPriceClass(n *htmlx.Node) bool {
	for _, c := range n.Classes() {
		lc := strings.ToLower(c)
		for _, h := range priceClassHints {
			if strings.Contains(lc, h) {
				return true
			}
		}
	}
	return false
}

// isDecoy reports whether the element or an ancestor is marked as a
// recommendation, ad, or struck-through old price.
func isDecoy(n *htmlx.Node) bool {
	for cur := n; cur != nil; cur = cur.Parent {
		if cur.Type != htmlx.ElementNode {
			continue
		}
		if cur.Tag == "s" || cur.Tag == "del" {
			return true
		}
		for _, c := range cur.Classes() {
			lc := strings.ToLower(c)
			if strings.Contains(lc, "rec") || strings.Contains(lc, "ad") ||
				strings.Contains(lc, "was") || strings.Contains(lc, "old") ||
				strings.Contains(lc, "related") {
				return true
			}
		}
	}
	return false
}

// NaiveFirst returns the first price anywhere on the page — the strawman
// the paper argues cannot work ("a simple search for dollar or euro sign
// would fail", Sec. 2.2). Kept as the ablation baseline.
func NaiveFirst(doc *htmlx.Node, hint money.Currency) (money.Amount, error) {
	ms := money.ParseAll(doc.Text(), hint)
	if len(ms) == 0 {
		return money.Amount{}, ErrNoPrice
	}
	return ms[0].Amount, nil
}
