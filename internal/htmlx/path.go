package htmlx

import (
	"fmt"
	"html"
	"strconv"
	"strings"
)

// Step is one level of a structural node path: the element's tag, its
// strongest stable markers (id, one class) and its nth-of-type index among
// siblings. Paths are how $heriff remembers where the user highlighted a
// price so it can be re-found on a page fetched from another vantage point.
type Step struct {
	// Tag is the element name.
	Tag string
	// ID anchors the step absolutely when non-empty.
	ID string
	// Class is a stabilizing class name ("" if the element has none).
	Class string
	// Index is the element's nth-of-type position (0-based).
	Index int
}

// Path is a root-to-node sequence of steps.
type Path []Step

// PathOf derives the path from the document root to n. The path is
// truncated at the nearest id-bearing ancestor: ids are unique anchors, and
// shorter paths survive page-structure drift better. PathOf on a non-element
// node uses its nearest element ancestor.
func PathOf(n *Node) Path {
	for n != nil && n.Type != ElementNode {
		n = n.Parent
	}
	var rev []Step
	for cur := n; cur != nil && cur.Type == ElementNode; cur = cur.Parent {
		st := Step{
			Tag:   cur.Tag,
			ID:    cur.ID(),
			Index: nthOfType(cur),
		}
		if cs := cur.Classes(); len(cs) > 0 {
			st.Class = cs[0]
		}
		rev = append(rev, st)
		if st.ID != "" {
			break // id is a global anchor; nothing above it matters
		}
	}
	// Reverse into root-to-node order.
	p := make(Path, len(rev))
	for i, st := range rev {
		p[len(rev)-1-i] = st
	}
	return p
}

// nthOfType returns n's index among element siblings with the same tag.
func nthOfType(n *Node) int {
	if n.Parent == nil {
		return 0
	}
	idx := 0
	for _, sib := range n.Parent.Children {
		if sib == n {
			return idx
		}
		if sib.Type == ElementNode && sib.Tag == n.Tag {
			idx++
		}
	}
	return 0
}

// Resolve walks the path down from root. The first step resolves by id
// anywhere in the document when it has one (getElementById semantics);
// subsequent steps match children by tag and nth-of-type index, preferring
// a child that also carries the step's class. Resolution is strict: a step
// with no structural match fails.
func (p Path) Resolve(root *Node) (*Node, bool) {
	if len(p) == 0 {
		return nil, false
	}
	cur := root
	for i, st := range p {
		if i == 0 && st.ID != "" {
			byID := findByID(root, st.ID)
			if byID == nil {
				return nil, false
			}
			cur = byID
			continue
		}
		next := resolveStep(cur, st)
		if next == nil {
			return nil, false
		}
		cur = next
	}
	return cur, true
}

// resolveStep finds the child of cur matching the step.
func resolveStep(cur *Node, st Step) *Node {
	if st.ID != "" {
		for _, c := range cur.Children {
			if c.Type == ElementNode && c.ID() == st.ID {
				return c
			}
		}
	}
	var sameTag []*Node
	for _, c := range cur.Children {
		if c.Type == ElementNode && c.Tag == st.Tag {
			sameTag = append(sameTag, c)
		}
	}
	if len(sameTag) == 0 {
		return nil
	}
	// Prefer class-consistent candidates when the step recorded a class.
	if st.Class != "" {
		var classed []*Node
		for _, c := range sameTag {
			if c.HasClass(st.Class) {
				classed = append(classed, c)
			}
		}
		if len(classed) > 0 {
			// Index counts nth-of-type over all same-tag siblings; map it
			// into the classed subset by position when possible.
			for _, c := range classed {
				if nthOfType(c) == st.Index {
					return c
				}
			}
			if st.Index < len(classed) {
				return classed[st.Index]
			}
			return classed[len(classed)-1]
		}
	}
	if st.Index < len(sameTag) {
		return sameTag[st.Index]
	}
	return sameTag[len(sameTag)-1]
}

// ResolveText resolves the path while tokenizing src, without building a
// tree, and returns the target's Text(). It keeps only the tokenizer's
// open-element stack and, for the step being matched, how many same-tag
// children of the matched parent it has passed, and it stops when the
// target's subtree closes, so a price near the top of a page is read
// without the rest of it.
//
// One pass can commit to Resolve's answer only when Resolve would pick the
// step's Index-th same-tag child outright. ok is false, and the caller
// must fall back to Resolve on the full tree, whenever that does not hold:
//   - a step after the first carries an ID (Resolve prefers any child with
//     that id, wherever it sits);
//   - the Index-th same-tag child lacks the step's class (Resolve would
//     weigh all classed siblings);
//   - a matched ancestor closes, or the page ends, before its next step's
//     child appears (Resolve would fall back to the last sibling or fail);
//   - the target is void, self-closed or raw text.
//
// When ok is true, text equals the Text() of Resolve(ParseString(src)).
func (p Path) ResolveText(src string) (text string, ok bool) {
	if len(p) == 0 {
		return "", false
	}
	for _, st := range p[1:] {
		if st.ID != "" {
			return "", false
		}
	}
	// Presized for typical nesting and attribute counts; both grow.
	z := tokenizer{src: src, open: make([]string, 0, 16), attrs: make([]Attr, 0, 8)}
	k := 0    // the step being matched
	at := 0   // depth of step k's parent: its children start at this depth
	seen := 0 // step k's same-tag children passed so far
	for z.next() {
		tok := &z.tok
		if tok.kind == endToken && tok.depth < at {
			return "", false
		}
		if tok.kind != startToken {
			continue
		}
		st := p[k]
		if k == 0 && st.ID != "" {
			// getElementById: the first element in document order.
			if id, _ := attrValue(tok.attrs, "id"); id != st.ID {
				continue
			}
		} else {
			parent := tok.depth
			if tok.opens {
				parent--
			}
			if parent != at || tok.data != st.Tag {
				continue
			}
			if seen++; seen <= st.Index {
				continue
			}
			if st.Class != "" && !hasClass(tok.attrs, st.Class) {
				return "", false
			}
		}
		if !tok.opens {
			return "", false
		}
		if k == len(p)-1 {
			return textUntilClose(&z), true
		}
		k, at, seen = k+1, tok.depth, 0
	}
	return "", false
}

// textUntilClose reads on from the start tag of an element that opened
// and returns what the element's Text() will be once its subtree is
// complete: when a close tag pops it, or at the end of the page.
func textUntilClose(z *tokenizer) string {
	var w textWriter
	w.b.Grow(128) // a price element's text fits, with a sentence around it
	depth := z.tok.depth
	cur := depth
	// merge mirrors the tree builder: a text token joins the text node
	// before it only while that node is still the open element's last
	// child.
	merge := false
	for z.next() {
		tok := &z.tok
		switch tok.kind {
		case textToken:
			s := html.UnescapeString(tok.data)
			if s == "" {
				continue
			}
			if !merge {
				w.gap = true // a new text node starts a new word
			}
			w.writeString(s)
			merge = true
		case endToken:
			if tok.depth < cur {
				merge = false
			}
		case startToken, commentToken, doctypeToken:
			merge = false
		}
		// A raw-text body is skipped, as Text() skips script and style.
		cur = tok.depth
		if cur < depth {
			break
		}
	}
	return w.b.String()
}

// findByID searches the subtree for the element with the given id.
func findByID(root *Node, id string) *Node {
	var found *Node
	root.Walk(func(n *Node) bool {
		if found != nil {
			return false
		}
		if n.Type == ElementNode && n.ID() == id {
			found = n
			return false
		}
		return true
	})
	return found
}

// String serializes the path, e.g. "div#buybox/span.price[0]".
func (p Path) String() string {
	var b strings.Builder
	for i, st := range p {
		if i > 0 {
			b.WriteByte('/')
		}
		b.WriteString(st.Tag)
		if st.ID != "" {
			b.WriteByte('#')
			b.WriteString(st.ID)
		}
		if st.Class != "" {
			b.WriteByte('.')
			b.WriteString(st.Class)
		}
		fmt.Fprintf(&b, "[%d]", st.Index)
	}
	return b.String()
}

// ParsePath parses the String form back into a Path.
func ParsePath(s string) (Path, error) {
	if s == "" {
		return nil, fmt.Errorf("htmlx: empty path")
	}
	var p Path
	for _, seg := range strings.Split(s, "/") {
		var st Step
		rest := seg
		// Index suffix.
		if lb := strings.LastIndexByte(rest, '['); lb >= 0 && strings.HasSuffix(rest, "]") {
			idx, err := strconv.Atoi(rest[lb+1 : len(rest)-1])
			if err != nil || idx < 0 {
				return nil, fmt.Errorf("htmlx: bad index in step %q", seg)
			}
			st.Index = idx
			rest = rest[:lb]
		}
		// Class suffix.
		if dot := strings.IndexByte(rest, '.'); dot >= 0 {
			st.Class = rest[dot+1:]
			rest = rest[:dot]
		}
		// ID suffix.
		if hash := strings.IndexByte(rest, '#'); hash >= 0 {
			st.ID = rest[hash+1:]
			rest = rest[:hash]
		}
		if rest == "" {
			return nil, fmt.Errorf("htmlx: missing tag in step %q", seg)
		}
		st.Tag = strings.ToLower(rest)
		p = append(p, st)
	}
	return p, nil
}
