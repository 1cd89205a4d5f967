package htmlx

import (
	"strings"
	"testing"
)

// oracleText is Text as a concatenation collapsed afterwards: every text
// node followed by a space, comments, doctypes and script and style
// bodies skipped, whitespace runs collapsed by strings.Fields.
func oracleText(n *Node) string {
	var b strings.Builder
	var walk func(n *Node)
	walk = func(n *Node) {
		switch n.Type {
		case TextNode:
			b.WriteString(n.Data)
			b.WriteByte(' ')
		case CommentNode, DoctypeNode:
			return
		case ElementNode:
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

// textAgrees fails unless every node's Text is the oracle's.
func textAgrees(t *testing.T, doc *Node) {
	t.Helper()
	doc.Walk(func(n *Node) bool {
		if got, want := n.Text(), oracleText(n); got != want {
			t.Fatalf("Text() = %q, oracle %q", got, want)
		}
		return true
	})
}

// deepestAgrees fails unless DeepestContaining(needle) returns the
// element a per-element Text search picks, the deepest containing needle
// and the first in document order on a tie, with that element's Text.
func deepestAgrees(t *testing.T, doc *Node, needle string) {
	t.Helper()
	var want *Node
	wantDepth := -1
	var walk func(n *Node, depth int)
	walk = func(n *Node, depth int) {
		if n.Type == ElementNode && needle != "" && strings.Contains(oracleText(n), needle) && depth > wantDepth {
			want, wantDepth = n, depth
		}
		for _, c := range n.Children {
			walk(c, depth+1)
		}
	}
	walk(doc, 0)
	got, text := doc.DeepestContaining(needle)
	if got != want || got != nil && text != oracleText(got) || got == nil && text != "" {
		t.Fatalf("DeepestContaining(%q) = %v, %q; want %v", needle, got, text, want)
	}
}

// TestDeepestContaining covers ties, nesting, needles across text nodes
// and elements, and needles no element holds.
func TestDeepestContaining(t *testing.T) {
	doc := mustParse(t, `<div><p>$5</p><p>$5</p></div><span>a <b>$5</b> b</span>`+
		`<ul><li>x <i>y</i></li><li>z</li></ul><p>q<!-- c -->r</p>`)
	for _, needle := range []string{"$5", "a $5 b", "x y", "y z", "$5 a", "q r", "qr", "", "none"} {
		deepestAgrees(t, doc, needle)
	}
}

func TestTextMatchesOracle(t *testing.T) {
	for _, src := range []string{
		samplePage,
		"<p>\u00a0a\u0085b\vc\fd &nbsp; e\u2003f</p><p>g\xffh \xe2\x80</p>",
		"<div> a<b>b </b>c<i> </i>d<!-- x -->e<script> s </script>f </div>",
		"<ul><li>1</li><li></li><li>  </li><li>2 3</li></ul>tail",
	} {
		textAgrees(t, mustParse(t, src))
	}
}

// FuzzParseString asserts the parser's crash-freedom contract on
// arbitrary byte soup: parse must never panic, never error, and the
// resulting tree must be traversable with consistent parent links.
// Run longer with: go test -fuzz=FuzzParseString ./internal/htmlx
func FuzzParseString(f *testing.F) {
	f.Add(samplePage)
	f.Add(`<div class="price-box"><span class="price">$1,299.00</span></div>`)
	f.Add(`<script>if (a<b) { x() }</script><p>tail`)
	f.Add(`<!DOCTYPE html><!-- c --><a href=x unquoted=1>t</a>`)
	f.Add("<<<>>><div//><p align='")
	f.Add("plain text with a < sign and &amp; entity")
	f.Add("<script>\xff\xff\xff\xff\xff</script")
	f.Add("<script>\xff</script><p>after</p>")
	f.Fuzz(func(t *testing.T, src string) {
		doc, err := ParseString(src)
		if err != nil {
			t.Fatalf("ParseString(%q): %v", src, err)
		}
		// Tree invariants: every child points back at its parent.
		doc.Walk(func(n *Node) bool {
			for _, c := range n.Children {
				if c.Parent != n {
					t.Fatalf("broken parent link under %v", n.Tag)
				}
			}
			return true
		})
		// Text matches the oracle, and so does the deepest element holding
		// a word of the document's text, or all of it.
		textAgrees(t, doc)
		if words := strings.Fields(doc.Text()); len(words) > 0 {
			deepestAgrees(t, doc, words[len(words)/2])
			deepestAgrees(t, doc, doc.Text())
		}
		if el := first(doc, "div", ""); el != nil {
			p := PathOf(el)
			if _, err := ParsePath(p.String()); err != nil {
				t.Fatalf("PathOf produced unparseable %q", p.String())
			}
		}
	})
}
