package htmlx

import (
	"testing"
	"testing/quick"
)

func TestPathOfTruncatesAtID(t *testing.T) {
	doc := mustParse(t, samplePage)
	price := first(doc, "span", "main-price")
	p := PathOf(price)
	if len(p) == 0 {
		t.Fatal("empty path")
	}
	// The nearest id ancestor is #main, so the path starts there.
	if p[0].ID != "main" {
		t.Fatalf("path root = %+v, want id=main (path %s)", p[0], p)
	}
	if p[len(p)-1].Tag != "span" {
		t.Fatalf("leaf = %+v", p[len(p)-1])
	}
}

func TestPathResolveRoundTrip(t *testing.T) {
	doc := mustParse(t, samplePage)
	for _, el := range []struct{ tag, class string }{
		{"span", "main-price"}, {"h1", ""}, {"ul", ""}, {"li", "rec"}, {"p", ""}, {"img", ""}, {"div", "price-box"},
	} {
		n := first(doc, el.tag, el.class)
		if n == nil {
			t.Fatalf("no match for %v", el)
		}
		p := PathOf(n)
		got, ok := p.Resolve(doc)
		if !ok {
			t.Fatalf("Resolve(%s) failed for %v", p, el)
		}
		if got != n {
			t.Fatalf("Resolve(%s) = %v, want the original node for %v", p, got, el)
		}
	}
}

func TestPathResolveAllRecommendationItems(t *testing.T) {
	doc := mustParse(t, samplePage)
	lis := findAll(doc, "li", "rec")
	for i, li := range lis {
		p := PathOf(li)
		got, ok := p.Resolve(doc)
		if !ok || got != li {
			t.Fatalf("li[%d]: path %s resolved to %v", i, p, got)
		}
	}
}

func TestPathResolveOnVariantPage(t *testing.T) {
	// Same structure, different content/currency: the path derived from
	// page A must land on the corresponding node of page B.
	pageB := `<!DOCTYPE html><html><body>
	<div id="main" class="container">
	  <h1 class="product-title">Acme Camera X100</h1>
	  <div class="price-box" data-sku="X100">
	    <span class="price main-price">1.199,00 €</span>
	    <span class="vat-note">inkl. MwSt.</span>
	  </div>
	  <ul id="recs">
	    <li class="rec"><a href="/p/1">Lens</a> <span class="price">189,00 €</span></li>
	  </ul>
	</div></body></html>`
	docA := mustParse(t, samplePage)
	docB := mustParse(t, pageB)
	p := PathOf(first(docA, "span", "main-price"))
	got, ok := p.Resolve(docB)
	if !ok {
		t.Fatalf("cross-page resolve failed for %s", p)
	}
	if got.Text() != "1.199,00 €" {
		t.Fatalf("cross-page resolve found %q", got.Text())
	}
}

func TestPathResolveSurvivesInsertedSibling(t *testing.T) {
	// An A/B banner inserted before the price box must not derail an
	// id-anchored path whose classes still match.
	pageB := `<div id="main"><div class="banner">SALE!</div>
	<div class="price-box"><span class="price main-price">$10.00</span></div></div>`
	docA := mustParse(t, `<div id="main">
	<div class="price-box"><span class="price main-price">$12.00</span></div></div>`)
	p := PathOf(first(docA, "span", "main-price"))
	got, ok := p.Resolve(mustParse(t, pageB))
	if !ok {
		t.Fatalf("resolve failed: %s", p)
	}
	if got.Text() != "$10.00" {
		t.Fatalf("resolved to %q", got.Text())
	}
}

func TestPathStringParseRoundTrip(t *testing.T) {
	doc := mustParse(t, samplePage)
	nodes := findAll(doc, "span", "price")
	for _, n := range nodes {
		p := PathOf(n)
		s := p.String()
		back, err := ParsePath(s)
		if err != nil {
			t.Fatalf("ParsePath(%q): %v", s, err)
		}
		if back.String() != s {
			t.Fatalf("round trip %q -> %q", s, back.String())
		}
		got, ok := back.Resolve(doc)
		if !ok || got != n {
			t.Fatalf("parsed path %q resolves to %v", s, got)
		}
	}
}

func TestParsePathErrors(t *testing.T) {
	for _, s := range []string{"", "div[x]", "[0]", "div[0]/[1]"} {
		if _, err := ParsePath(s); err == nil {
			t.Errorf("ParsePath(%q) unexpectedly succeeded", s)
		}
	}
}

func TestPathResolveFailsOnMissingStructure(t *testing.T) {
	doc := mustParse(t, samplePage)
	p, err := ParsePath("div#nonexistent/span[0]")
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := p.Resolve(doc); ok {
		t.Fatal("resolved a path through a missing id")
	}
	p2, _ := ParsePath("table[0]/tr[5]")
	if _, ok := p2.Resolve(doc); ok {
		t.Fatal("resolved a path with no matching tags")
	}
}

func TestPathOfTextNodeUsesElementAncestor(t *testing.T) {
	doc := mustParse(t, samplePage)
	price := first(doc, "span", "main-price")
	textChild := price.Children[0]
	if textChild.Type != TextNode {
		t.Fatal("expected text child")
	}
	p := PathOf(textChild)
	got, ok := p.Resolve(doc)
	if !ok || got != price {
		t.Fatalf("PathOf(text) resolved to %v", got)
	}
}

func TestPathDeterministic(t *testing.T) {
	f := func(seed uint8) bool {
		doc := mustParse(t, samplePage)
		n := findAll(doc, "span", "price")[int(seed)%4]
		return PathOf(n).String() == PathOf(n).String()
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// resolveTextAgrees checks ResolveText against Resolve on the full tree:
// a definitive answer must be the tree's answer.
func resolveTextAgrees(t *testing.T, src string, p Path) (string, bool) {
	t.Helper()
	text, ok := p.ResolveText(src)
	if !ok {
		return "", false
	}
	el, found := p.Resolve(mustParse(t, src))
	if !found {
		t.Fatalf("ResolveText(%s) = %q, but Resolve finds nothing", p, text)
	}
	if want := el.Text(); text != want {
		t.Fatalf("ResolveText(%s) = %q, Resolve's Text() = %q", p, text, want)
	}
	return text, true
}

func TestResolveTextMatchesResolveForEveryElement(t *testing.T) {
	doc := mustParse(t, samplePage)
	var n int
	doc.Walk(func(el *Node) bool {
		if el.Type != ElementNode {
			return true
		}
		p := PathOf(el)
		text, ok := resolveTextAgrees(t, samplePage, p)
		opens := !isVoid(el.Tag) && !isRawText(el.Tag)
		if ok != opens {
			t.Fatalf("ResolveText(%s) ok = %v, want %v", p, ok, opens)
		}
		if ok && text != el.Text() {
			t.Fatalf("ResolveText(%s) = %q, want %q", p, text, el.Text())
		}
		n++
		return true
	})
	if n < 20 {
		t.Fatalf("walked %d elements", n)
	}
}

func TestResolveTextDefinitiveOnly(t *testing.T) {
	for _, tc := range []struct {
		name, src, path, want string
		ok                    bool
	}{
		{"by id", `<p id=a>x <b>y</b>z</p>`, "p#a[0]", "x y z", true},
		{"id ignores tag", `<div><span id=a>$1</span></div>`, "p#a[0]", "$1", true},
		{"nth of type", `<ul><li>a</li><li>b</li><li>c</li></ul>`, "ul[0]/li[1]", "b", true},
		{"class on the nth", `<ul><li>a</li><li class=p>b</li></ul>`, "ul[0]/li.p[1]", "b", true},
		{"nth lacks class", `<ul><li class=p>a</li><li>b</li></ul>`, "ul[0]/li.p[1]", "", false},
		{"fewer siblings than index", `<ul><li>a</li></ul><p>after</p>`, "ul[0]/li[3]", "", false},
		{"id after the first step", `<div><p id=q>x</p></div>`, "div[0]/p#q[0]", "", false},
		{"void target", `<div><img src=x></div>`, "div[0]/img[0]", "", false},
		{"raw-text target", `<div><script>1</script></div>`, "div[0]/script[0]", "", false},
		{"self-closed target", `<div><span/></div>`, "div[0]/span[0]", "", false},
		{"no such id", `<div>x</div>`, "div#nope[0]", "", false},
		{"misnested close pops the target", `<div id=a><span>$1<b>2</div><p>$3</p>`, "div#a[0]/span[0]", "$1 2", true},
		{"parent closed early", `<div id=a></div><span>$1</span>`, "div#a[0]/span[0]", "", false},
		{"stray close keeps text merged", `<p id=a>1</i>2</p>`, "p#a[0]", "12", true},
		{"comment splits text", `<p id=a>1<!--c-->2</p>`, "p#a[0]", "1 2", true},
		{"doctype splits text", `<p id=a>1<!x>2</p>`, "p#a[0]", "1 2", true},
		{"raw text inside target", `<p id=a>1<script>$9</script>2</p>`, "p#a[0]", "1 2", true},
		{"per-chunk unescape", `<p id=a>&amp<&lt;</p>`, "p#a[0]", "&<<", true},
		{"unclosed target ends with the page", `<p id=a>$1 <b>2`, "p#a[0]", "$1 2", true},
		{"upper-case markup", `<DIV ID=a><SPAN CLASS="x p">$5</SPAN></DIV>`, "div#a[0]/span.p[0]", "$5", true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			p, err := ParsePath(tc.path)
			if err != nil {
				t.Fatal(err)
			}
			text, ok := resolveTextAgrees(t, tc.src, p)
			if ok != tc.ok || text != tc.want {
				t.Fatalf("ResolveText = %q, %v; want %q, %v", text, ok, tc.want, tc.ok)
			}
		})
	}
}

func TestParsePathRejectsNegativeIndex(t *testing.T) {
	if p, err := ParsePath("div[0]/span[-1]"); err == nil {
		t.Fatalf("ParsePath accepted a negative index: %v", p)
	}
}
