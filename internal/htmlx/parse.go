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
	"strings"
	"unicode"
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

// voidElements never have children in HTML.
var voidElements = map[string]bool{
	"area": true, "base": true, "br": true, "col": true, "embed": true,
	"hr": true, "img": true, "input": true, "link": true, "meta": true,
	"param": true, "source": true, "track": true, "wbr": true,
}

// rawTextElements swallow everything until their matching close tag.
var rawTextElements = map[string]bool{"script": true, "style": true}

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
	var b strings.Builder
	n.appendText(&b)
	return collapseSpace(b.String())
}

// collapseSpace collapses runs of whitespace to single spaces and trims.
func collapseSpace(s string) string {
	return strings.Join(strings.Fields(s), " ")
}

func (n *Node) appendText(b *strings.Builder) {
	switch n.Type {
	case TextNode:
		b.WriteString(n.Data)
		b.WriteByte(' ')
	case CommentNode, DoctypeNode:
		return
	}
	if n.Type == ElementNode && rawTextElements[n.Tag] {
		return
	}
	for _, c := range n.Children {
		c.appendText(b)
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
