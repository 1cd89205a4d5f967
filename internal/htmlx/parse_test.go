package htmlx

import (
	"strings"
	"testing"
	"testing/quick"
)

const samplePage = `<!DOCTYPE html>
<html>
<head>
  <title>Acme Camera X100</title>
  <meta charset="utf-8">
  <script src="//analytics.example.com/ga.js"></script>
  <style>.price { color: red; }</style>
</head>
<body>
  <div id="main" class="container">
    <h1 class="product-title">Acme Camera X100</h1>
    <!-- price block -->
    <div class="price-box" data-sku="X100">
      <span class="price main-price">$1,299.00</span>
      <span class="vat-note">excl. tax</span>
    </div>
    <ul id="recs">
      <li class="rec"><a href="/p/1">Lens</a> <span class="price">$199.00</span></li>
      <li class="rec"><a href="/p/2">Bag</a> <span class="price">$49.50</span></li>
      <li class="rec"><a href="/p/3">Tripod</a> <span class="price">$89.99</span></li>
    </ul>
    <img src="/img/x100.jpg" alt="camera">
    <br>
    <p>Ships worldwide &amp; fast. Price match: &euro;1.199,00 in EU stores.</p>
  </div>
</body>
</html>`

func mustParse(t *testing.T, src string) *Node {
	t.Helper()
	n, err := ParseString(src)
	if err != nil {
		t.Fatal(err)
	}
	return n
}

// findAll returns the elements under n with the tag that carry class
// ("" for any), in document order.
func findAll(n *Node, tag, class string) []*Node {
	var out []*Node
	n.Walk(func(c *Node) bool {
		if c.Type == ElementNode && c.Tag == tag && (class == "" || c.HasClass(class)) {
			out = append(out, c)
		}
		return true
	})
	return out
}

// first returns the first of findAll's elements, or nil.
func first(n *Node, tag, class string) *Node {
	if all := findAll(n, tag, class); len(all) > 0 {
		return all[0]
	}
	return nil
}

func TestSelectorFirstDocumentOrder(t *testing.T) {
	// Walk visits in document order, so the buy box's price comes before
	// the recommendations'.
	doc := mustParse(t, samplePage)
	got := first(doc, "span", "price")
	if got == nil || got.Text() != "$1,299.00" {
		t.Fatalf("first span.price = %v", got)
	}
}

func TestSelectorMultiClass(t *testing.T) {
	// HasClass finds a class among several, and only a whole class name.
	doc := mustParse(t, `<span class="price big sale">x</span><span class="price">y</span><span class="sales">z</span>`)
	var n int
	for _, c := range findAll(doc, "span", "price") {
		if c.HasClass("sale") {
			n++
		}
	}
	if n != 1 {
		t.Errorf("multi-class = %d", n)
	}
	if got := len(findAll(doc, "span", "sale")); got != 1 {
		t.Errorf("span.sale = %d, want 1", got)
	}
}

func TestParseBasicStructure(t *testing.T) {
	doc := mustParse(t, samplePage)
	html := first(doc, "html", "")
	if html == nil {
		t.Fatal("no <html>")
	}
	if first(doc, "head", "") == nil || first(doc, "body", "") == nil {
		t.Fatal("missing head/body")
	}
	title := first(doc, "title", "")
	if title == nil || title.Text() != "Acme Camera X100" {
		t.Fatalf("title = %v", title)
	}
}

func TestParseAttributes(t *testing.T) {
	doc := mustParse(t, samplePage)
	box := first(doc, "div", "price-box")
	if box == nil {
		t.Fatal("no price box")
	}
	if sku, _ := box.Attr("data-sku"); sku != "X100" {
		t.Fatalf("data-sku = %q", sku)
	}
	img := first(doc, "img", "")
	if img == nil {
		t.Fatal("no img")
	}
	if alt, _ := img.Attr("alt"); alt != "camera" {
		t.Fatalf("alt = %q", alt)
	}
	if len(img.Children) != 0 {
		t.Fatal("void element has children")
	}
}

func TestParseEntities(t *testing.T) {
	doc := mustParse(t, samplePage)
	p := first(doc, "p", "")
	if p == nil {
		t.Fatal("no <p>")
	}
	txt := p.Text()
	if !strings.Contains(txt, "Ships worldwide & fast") {
		t.Errorf("named entity not decoded: %q", txt)
	}
	if !strings.Contains(txt, "€1.199,00") {
		t.Errorf("euro entity not decoded: %q", txt)
	}
}

func TestParseScriptAndStyleRawText(t *testing.T) {
	doc := mustParse(t, `<body><script>if (a < b) { x(); }</script><div>ok</div></body>`)
	script := first(doc, "script", "")
	if script == nil {
		t.Fatal("no script")
	}
	if len(script.Children) != 1 || !strings.Contains(script.Children[0].Data, "a < b") {
		t.Fatalf("script content mishandled: %+v", script.Children)
	}
	// The "<" inside script must not have eaten the following div.
	if first(doc, "div", "") == nil {
		t.Fatal("div after script lost")
	}
	// Script content is excluded from Text().
	body := first(doc, "body", "")
	if got := body.Text(); got != "ok" {
		t.Fatalf("body text = %q", got)
	}
}

func TestParseComments(t *testing.T) {
	doc := mustParse(t, `<div><!-- hidden $9.99 --><span>visible</span></div>`)
	div := first(doc, "div", "")
	if got := div.Text(); got != "visible" {
		t.Fatalf("text = %q (comment leaked?)", got)
	}
	var comments int
	doc.Walk(func(n *Node) bool {
		if n.Type == CommentNode {
			comments++
		}
		return true
	})
	if comments != 1 {
		t.Fatalf("comments = %d", comments)
	}
}

func TestParseUnquotedAndSingleQuotedAttrs(t *testing.T) {
	doc := mustParse(t, `<div id=main class='a b'><input type=checkbox checked></div>`)
	div := first(doc, "div", "")
	if div.ID() != "main" {
		t.Fatalf("id = %q", div.ID())
	}
	if !div.HasClass("a") || !div.HasClass("b") {
		t.Fatal("classes not parsed")
	}
	input := first(doc, "input", "")
	if _, ok := input.Attr("checked"); !ok {
		t.Fatal("boolean attribute lost")
	}
}

func TestParseSelfClosingAndStrayClose(t *testing.T) {
	doc := mustParse(t, `<div><br/><span>x</span></div></section><p>tail</p>`)
	if first(doc, "span", "") == nil || first(doc, "p", "") == nil {
		t.Fatal("stray close tag broke parsing")
	}
	if got := first(doc, "p", "").Text(); got != "tail" {
		t.Fatalf("tail = %q", got)
	}
}

func TestParseMisnestedTags(t *testing.T) {
	// </div> closes the div even though a <span> is still open.
	doc := mustParse(t, `<div><span>a</div><p>b</p>`)
	p := first(doc, "p", "")
	if p == nil || p.Text() != "b" {
		t.Fatal("recovery from misnesting failed")
	}
}

func TestTextWhitespaceCollapsing(t *testing.T) {
	doc := mustParse(t, "<div>  a \n\t b  <b> c</b>d </div>")
	if got := first(doc, "div", "").Text(); got != "a b cd" && got != "a b c d" {
		t.Fatalf("text = %q", got)
	}
}

func TestAdjacentTextMerged(t *testing.T) {
	doc := mustParse(t, `<p>a&amp;b</p>`)
	p := first(doc, "p", "")
	if len(p.Children) != 1 {
		t.Fatalf("text nodes = %d, want 1 (merged)", len(p.Children))
	}
	if p.Children[0].Data != "a&b" {
		t.Fatalf("data = %q", p.Children[0].Data)
	}
}

func TestParseNeverPanics(t *testing.T) {
	f := func(s string) bool {
		_, err := ParseString(s)
		return err == nil
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Error(err)
	}
}

func TestParseDeepNesting(t *testing.T) {
	var b strings.Builder
	const depth = 500
	for i := 0; i < depth; i++ {
		b.WriteString("<div>")
	}
	b.WriteString("<span id=deep>x</span>")
	for i := 0; i < depth; i++ {
		b.WriteString("</div>")
	}
	doc := mustParse(t, b.String())
	n := findByID(doc, "deep")
	if n == nil || n.Text() != "x" {
		t.Fatal("deep nesting failed")
	}
}

func TestParseEmptyAndGarbage(t *testing.T) {
	for _, src := range []string{"", "   ", "<", "<>", "< div>", "<<<>>>", "just text"} {
		if _, err := ParseString(src); err != nil {
			t.Errorf("ParseString(%q): %v", src, err)
		}
	}
	doc := mustParse(t, "just text with < sign")
	if got := doc.Text(); !strings.Contains(got, "< sign") {
		t.Errorf("bare '<' mangled: %q", got)
	}
}

// A raw-text element's close tag must be found on the page itself: a
// lower-cased copy turns each invalid byte into a 3-byte U+FFFD, so an
// index found in the copy overruns the page or cuts the body short.
func TestRawTextCloseTagOnInvalidUTF8(t *testing.T) {
	for _, tc := range []struct {
		name, src, script, p string
	}{
		{"unterminated close after invalid bytes", "<script>\xff\xff\xff\xff\xff</script", "\xff\xff\xff\xff\xff", ""},
		{"invalid byte before close", "<script>\xff</script><p>after</p>", "\xff", "after"},
		{"upper-case close", "<STYLE>a{}</StYlE><p>after</p>", "a{}", "after"},
		{"close tag prefix only", "<script>x</scrip</script><p>after</p>", "x</scrip", "after"},
		{"non-ASCII rune that lowers longer", "<script>İİ</script><p>after</p>", "İİ", "after"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			doc := mustParse(t, tc.src)
			el := first(doc, "script", "")
			if el == nil {
				el = first(doc, "style", "")
			}
			if el == nil || len(el.Children) != 1 || el.Children[0].Data != tc.script {
				t.Fatalf("raw-text body = %+v, want %q", el, tc.script)
			}
			if tc.p == "" {
				return
			}
			if p := first(doc, "p", ""); p == nil || p.Text() != tc.p {
				t.Fatalf("element after the raw text = %v, want %q", p, tc.p)
			}
		})
	}
}
