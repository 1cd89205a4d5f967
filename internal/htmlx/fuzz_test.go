package htmlx

import "testing"

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
		// Text extraction and path derivation must not panic either.
		_ = doc.Text()
		if el := first(doc, "div", ""); el != nil {
			p := PathOf(el)
			if _, err := ParsePath(p.String()); err != nil {
				t.Fatalf("PathOf produced unparseable %q", p.String())
			}
		}
	})
}
