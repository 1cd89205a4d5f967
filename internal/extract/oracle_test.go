package extract

import (
	"encoding/json"
	"fmt"
	"strings"
	"testing"
	"unicode/utf8"

	"sheriff/internal/geo"
	"sheriff/internal/htmlx"
	"sheriff/internal/money"
	"sheriff/internal/shop"
)

// oracleText is Node.Text as a concatenation collapsed afterwards: every
// text node followed by a space, comments, doctypes and script and style
// bodies skipped, whitespace runs collapsed by strings.Fields.
func oracleText(n *htmlx.Node) string {
	var b strings.Builder
	var walk func(n *htmlx.Node)
	walk = func(n *htmlx.Node) {
		switch n.Type {
		case htmlx.TextNode:
			b.WriteString(n.Data)
			b.WriteByte(' ')
		case htmlx.CommentNode, htmlx.DoctypeNode:
			return
		case htmlx.ElementNode:
			if n.Tag == "script" || n.Tag == "style" {
				return
			}
		}
		for _, c := range n.Children {
			walk(c)
		}
	}
	walk(n)
	return strings.Join(strings.Fields(b.String()), " ")
}

// oracleDeepestContaining is the tree search Derive made before it built
// the document's text once: it rebuilds the text of every element on the
// way down.
func oracleDeepestContaining(doc *htmlx.Node, needle string) *htmlx.Node {
	if needle == "" {
		return nil
	}
	var best *htmlx.Node
	bestDepth := -1
	doc.Walk(func(n *htmlx.Node) bool {
		if n.Type != htmlx.ElementNode {
			return true
		}
		if !strings.Contains(oracleText(n), needle) {
			return false // children cannot contain it either
		}
		d := 0
		for p := n.Parent; p != nil; p = p.Parent {
			d++
		}
		if d > bestDepth {
			best, bestDepth = n, d
		}
		return true
	})
	return best
}

// oracleDerive is Derive on the oracle's tree search and text.
func oracleDerive(doc *htmlx.Node, highlight string, hint money.Currency) (Anchor, error) {
	want, err := money.ParseWithHint(strings.TrimSpace(highlight), hint)
	if err != nil {
		return Anchor{}, fmt.Errorf("extract: highlight %q does not parse as a price: %w", highlight, err)
	}
	el := oracleDeepestContaining(doc, strings.Join(strings.Fields(highlight), " "))
	if el == nil {
		return Anchor{}, ErrHighlightNotFound
	}
	text := oracleText(el)
	matches := money.ParseAll(text, hint)
	if len(matches) == 0 {
		return Anchor{}, fmt.Errorf("extract: element text %q has no parseable price", text)
	}
	idx := 0
	for i, m := range matches {
		if m.Amount.Units == want.Units && m.Amount.Currency.Code == want.Currency.Code {
			idx = i
			break
		}
	}
	return Anchor{
		Path:       htmlx.PathOf(el).String(),
		MatchIndex: idx,
		Context:    leadingContext(text, matches[idx].Start),
	}, nil
}

// deriveAgrees runs Derive and the oracle on one page and fails unless
// they return the same anchor and the same error.
func deriveAgrees(t *testing.T, doc *htmlx.Node, highlight string, hint money.Currency) (Anchor, error) {
	t.Helper()
	got, gotErr := Derive(doc, highlight, hint)
	want, wantErr := oracleDerive(doc, highlight, hint)
	if got != want || fmt.Sprint(gotErr) != fmt.Sprint(wantErr) {
		t.Fatalf("highlight %q: Derive = %+v, %v; oracle %+v, %v", highlight, got, gotErr, want, wantErr)
	}
	return got, gotErr
}

// TestDeriveMatchesOracle derives anchors on two products of every preset
// and scenario retailer, as users in three countries see them, and holds
// Derive to the oracle's anchor on each.
func TestDeriveMatchesOracle(t *testing.T) {
	var users []shop.Visit
	for _, u := range []struct{ cc, city, ip string }{
		{"US", "Boston", "10.0.1.10"}, {"DE", "Berlin", "10.2.0.10"}, {"BR", "Sao Paulo", "10.5.0.10"},
	} {
		loc, err := geo.LocationOf(u.cc, u.city)
		if err != nil {
			t.Fatal(err)
		}
		users = append(users, shop.Visit{Loc: loc, Time: testDay, IP: u.ip})
	}
	var cfgs []shop.Config
	cfgs = append(cfgs, shop.CrawledConfigs(1)...)
	cfgs = append(cfgs, shop.CrowdExtraConfigs(1)...)
	cfgs = append(cfgs, shop.ScenarioConfigs(1)...)
	derived := 0
	for _, cfg := range cfgs {
		r := shop.New(cfg, market)
		for _, p := range r.Catalog().Products()[:2] {
			for _, user := range users {
				if !r.PriceDisclosed(p, user) {
					continue
				}
				truth := r.DisplayPrice(p, user)
				doc := parse(t, r.RenderProduct(p, user))
				if _, err := deriveAgrees(t, doc, money.Format(truth, truth.Currency.Style()), user.Loc.Country.Currency); err == nil {
					derived++
				}
			}
		}
	}
	if derived < len(cfgs)*3 {
		t.Fatalf("derived %d anchors over %d retailers", derived, len(cfgs))
	}
}

// FuzzDeriveOracle holds Derive to the oracle on arbitrary pages and
// highlights.
// Run longer with: go test -fuzz=FuzzDeriveOracle ./internal/extract
func FuzzDeriveOracle(f *testing.F) {
	for _, tmpl := range []string{"classic", "modern", "table", "minimal"} {
		pageUS, pageDE, highlight, _, truthDE := retailerPages(f, tmpl)
		f.Add(pageUS, highlight, false)
		f.Add(pageDE, money.Format(truthDE, truthDE.Currency.Style()), true)
	}
	f.Add(`<div><p>$5</p><p>$5</p></div><span>$5</span>`, "$5", false)
	f.Add(`<div>$1<b>2</b>.00 <i> $12 </i></div>`, "$12", false)
	f.Add(`<p>a<!-- c -->$3<script>$3</script></p><p> $ 3 </p>`, " $3 ", false)
	f.Add("<p>x  12,50 €</p><p>12,50 €</p>", "12,50 €", true)
	f.Fuzz(func(t *testing.T, page, highlight string, eur bool) {
		hint := money.USD
		if eur {
			hint = money.EUR
		}
		deriveAgrees(t, parse(t, page), highlight, hint)
	})
}

// TestDeriveContextIsValidUTF8 derives an anchor whose context window
// starts inside a multi-byte rune with no space to trim at: the context
// must start on a rune, and survive a JSON round trip (the anchor
// sidecar's encoding) unchanged.
func TestDeriveContextIsValidUTF8(t *testing.T) {
	doc := parse(t, `<p class="price">Preço: ééééééééééééé 12,50 €</p>`)
	a, err := Derive(doc, "12,50 €", money.EUR)
	if err != nil {
		t.Fatal(err)
	}
	if !utf8.ValidString(a.Context) || a.Context == "" {
		t.Fatalf("context %q is not valid UTF-8", a.Context)
	}
	raw, err := json.Marshal(a)
	if err != nil {
		t.Fatal(err)
	}
	var back Anchor
	if err := json.Unmarshal(raw, &back); err != nil {
		t.Fatal(err)
	}
	if back != a {
		t.Fatalf("JSON round trip: %+v, want %+v", back, a)
	}
}
