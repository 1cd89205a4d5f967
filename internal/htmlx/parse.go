// Package htmlx is a small HTML parser: a tokenizer, a tree builder and
// structural node paths. Elements are located either by a Path or by
// walking the tree with Node.Walk.
//
// The $heriff extraction pipeline must locate a highlighted price inside a
// product page and re-locate the corresponding node in renderings of the
// same page fetched from other vantage points — pages that differ in
// currency, number format and A/B-tested blocks. That requires a real DOM,
// and the reproduction is stdlib-only, so this package implements one from
// scratch. It handles the HTML the retailer simulator emits plus the usual
// real-world sloppiness: void elements, unquoted attributes, comments,
// raw-text script/style elements, and character entities.
//
// One tokenizer feeds two consumers: the tree builder behind ParseString,
// and Path.ResolveText, which resolves a structural path while the page
// streams past and returns the target's text without building a tree.
// The tokenizer owns the open-element stack, so both see the same
// nesting.
package htmlx

import (
	"html"
	"slices"
	"strings"
	"unicode"
	"unicode/utf8"
)

// NodeType discriminates DOM node kinds.
type NodeType int

// Node kinds.
const (
	// ElementNode is a tag with attributes and children.
	ElementNode NodeType = iota
	// TextNode is character data.
	TextNode
	// CommentNode is a <!-- comment -->.
	CommentNode
	// DoctypeNode is the <!DOCTYPE ...> preamble.
	DoctypeNode
	// DocumentNode is the synthetic root.
	DocumentNode
)

// Attr is one attribute of an element.
type Attr struct {
	Key, Val string
}

// Node is a DOM node. Fields are exported for read access; mutate only
// through the parser.
type Node struct {
	// Type is the node kind.
	Type NodeType
	// Tag is the lower-cased element name (ElementNode only).
	Tag string
	// Data is the text content (TextNode/CommentNode/DoctypeNode).
	Data string
	// Attrs are the element's attributes in source order.
	Attrs []Attr
	// Parent is the enclosing node; nil for the document root.
	Parent *Node
	// Children are the child nodes in document order.
	Children []*Node
}

// isVoid reports whether the element never has children in HTML.
func isVoid(tag string) bool {
	switch tag {
	case "area", "base", "br", "col", "embed", "hr", "img", "input",
		"link", "meta", "param", "source", "track", "wbr":
		return true
	}
	return false
}

// isRawText reports whether the element swallows everything until its
// matching close tag.
func isRawText(tag string) bool {
	return tag == "script" || tag == "style"
}

// ParseString parses an HTML document from a string.
func ParseString(s string) (*Node, error) {
	return parse(s)
}

// parse builds the DOM from the tokenizer's stream. It never fails on
// malformed markup — browsers don't — but reports truly unusable input
// (currently: none) via error to keep the signature future-proof.
func parse(src string) (*Node, error) {
	root := &Node{Type: DocumentNode}
	stack := []*Node{root}
	top := func() *Node { return stack[len(stack)-1] }
	appendChild := func(n *Node) {
		n.Parent = top()
		n.Parent.Children = append(n.Parent.Children, n)
	}

	z := tokenizer{src: src}
	for z.next() {
		tok := &z.tok
		switch tok.kind {
		case textToken:
			s := html.UnescapeString(tok.data)
			if s == "" {
				continue
			}
			// Merge adjacent text nodes so Text() sees one run.
			parent := top()
			if n := len(parent.Children); n > 0 && parent.Children[n-1].Type == TextNode {
				parent.Children[n-1].Data += s
				continue
			}
			appendChild(&Node{Type: TextNode, Data: s})
		case rawTextToken:
			// The body belongs to the script or style element just added.
			parent := top()
			el := parent.Children[len(parent.Children)-1]
			el.Children = append(el.Children, &Node{Type: TextNode, Data: tok.data, Parent: el})
		case commentToken:
			appendChild(&Node{Type: CommentNode, Data: tok.data})
		case doctypeToken:
			appendChild(&Node{Type: DoctypeNode, Data: tok.data})
		case startToken:
			el := &Node{Type: ElementNode, Tag: tok.data}
			if len(tok.attrs) > 0 {
				el.Attrs = append([]Attr(nil), tok.attrs...)
			}
			appendChild(el)
			if tok.opens {
				stack = append(stack, el)
			}
		case endToken:
			stack = stack[:tok.depth+1]
		}
	}
	return root, nil
}

// Attr returns the value of the named attribute and whether it is present.
func (n *Node) Attr(key string) (string, bool) {
	return attrValue(n.Attrs, key)
}

// attrValue returns the value of the first attribute named key.
func attrValue(attrs []Attr, key string) (string, bool) {
	for _, a := range attrs {
		if a.Key == key {
			return a.Val, true
		}
	}
	return "", false
}

// ID returns the element's id attribute ("" if none).
func (n *Node) ID() string {
	v, _ := n.Attr("id")
	return v
}

// Classes returns the element's class list.
func (n *Node) Classes() []string {
	v, ok := n.Attr("class")
	if !ok {
		return nil
	}
	return strings.Fields(v)
}

// HasClass reports whether the element carries the class.
func (n *Node) HasClass(class string) bool {
	return hasClass(n.Attrs, class)
}

// hasClass reports whether the class attribute among attrs lists class,
// splitting the list the way Classes does without allocating it.
func hasClass(attrs []Attr, class string) bool {
	v, _ := attrValue(attrs, "class")
	for {
		v = strings.TrimLeftFunc(v, unicode.IsSpace)
		if v == "" {
			return false
		}
		end := strings.IndexFunc(v, unicode.IsSpace)
		if end < 0 {
			end = len(v)
		}
		if v[:end] == class {
			return true
		}
		v = v[end:]
	}
}

// Text returns the concatenated text content of the subtree, with runs of
// whitespace collapsed to single spaces and the result trimmed — the way a
// browser's selection would read.
func (n *Node) Text() string {
	var w textWriter
	w.node(n, 0)
	return w.b.String()
}

// DeepestContaining returns the deepest element of n's subtree whose Text
// contains needle, the first in document order among equally deep ones,
// and that element's Text. It returns nil when needle is empty or no
// element's text holds it.
//
// It builds the subtree's text once. Every text node ends a word, so an
// element's Text is the run of that text from its first word to its last,
// and the element contains needle when an occurrence of needle lies
// inside its run.
func (n *Node) DeepestContaining(needle string) (*Node, string) {
	if needle == "" {
		return nil, ""
	}
	var (
		best           *Node
		bestDepth      = -1
		bestLo, bestHi int
		occ            []int // starts of needle in w.b found so far, ascending
		from           int   // where the search for the next occurrence starts
		w              textWriter
	)
	// Elements close in post order, so an element closes after every
	// occurrence inside it is written, and of two equally deep elements,
	// neither inside the other, the earlier in document order closes first.
	w.closed = func(el *Node, depth, lo, hi int) {
		if depth <= bestDepth {
			return
		}
		for {
			j := strings.Index(w.b.String()[from:], needle)
			if j < 0 {
				from = max(from, w.b.Len()-len(needle)+1)
				break
			}
			occ = append(occ, from+j)
			from += j + 1
		}
		k, _ := slices.BinarySearch(occ, lo)
		if k < len(occ) && occ[k]+len(needle) <= hi {
			best, bestDepth, bestLo, bestHi = el, depth, lo, hi
		}
	}
	w.node(n, 0)
	if best == nil {
		return nil, ""
	}
	// Clone the span, so a caller that keeps part of it does not keep
	// the whole document's text.
	return best, strings.Clone(w.b.String()[bestLo:bestHi])
}

// textWriter accumulates Text: it collapses each run of whitespace to one
// space as it writes, and drops leading and trailing whitespace, so b
// always holds the words of everything written so far, joined by single
// spaces.
type textWriter struct {
	b   strings.Builder
	gap bool // whitespace was written since the last byte kept in b
	// closed, when set, is called as each element with a non-empty Text
	// closes, with the element's depth below the root of the walk and
	// the span of b that is its Text.
	closed func(el *Node, depth, lo, hi int)
}

// writeString writes s, collapsing whitespace the way strings.Fields
// splits it.
func (w *textWriter) writeString(s string) {
	for i := 0; i < len(s); {
		if sp, size := spaceAt(s, i); sp {
			w.gap = true
			i += size
			continue
		}
		j := i
		for j < len(s) {
			sp, size := spaceAt(s, j)
			if sp {
				break
			}
			j += size
		}
		w.keep(s[i:j])
		i = j
	}
}

// spaceAt reports whether the rune at s[i] is whitespace, and its size.
func spaceAt(s string, i int) (bool, int) {
	if c := s[i]; c < utf8.RuneSelf {
		return asciiSpace[c], 1
	}
	r, size := utf8.DecodeRuneInString(s[i:])
	return unicode.IsSpace(r), size
}

// keep appends a non-space run, preceded by one space when whitespace
// separates it from the text before.
func (w *textWriter) keep(s string) {
	if w.gap && w.b.Len() > 0 {
		w.b.WriteByte(' ')
	}
	w.gap = false
	w.b.WriteString(s)
}

var asciiSpace = [utf8.RuneSelf]bool{'\t': true, '\n': true, '\v': true, '\f': true, '\r': true, ' ': true}

// node writes the text of n's subtree: each text node ends a word, and
// comments, doctypes and the bodies of script and style are skipped.
func (w *textWriter) node(n *Node, depth int) {
	switch n.Type {
	case TextNode:
		w.writeString(n.Data)
		w.gap = true
		return
	case CommentNode, DoctypeNode:
		return
	case ElementNode:
		if isRawText(n.Tag) {
			return
		}
	}
	start := w.b.Len()
	for _, c := range n.Children {
		w.node(c, depth+1)
	}
	if n.Type == ElementNode && w.closed != nil && w.b.Len() > start {
		// Whatever came before the element ended a word, so its first
		// word follows a separating space unless it opens the text.
		lo := start
		if lo > 0 {
			lo++
		}
		w.closed(n, depth, lo, w.b.Len())
	}
}

// Walk visits the subtree in document order. Returning false from visit
// skips the node's children.
func (n *Node) Walk(visit func(*Node) bool) {
	if !visit(n) {
		return
	}
	for _, c := range n.Children {
		c.Walk(visit)
	}
}
