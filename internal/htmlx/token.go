package htmlx

import (
	"html"
	"strings"
)

// tokenKind discriminates what the tokenizer read.
type tokenKind uint8

const (
	// textToken is character data, entities still escaped. Consumers
	// unescape each token on its own, so an entity split by a bare '<'
	// stays split.
	textToken tokenKind = iota
	// startToken is an open tag.
	startToken
	// endToken is a close tag, matched or stray.
	endToken
	// commentToken is a <!-- comment -->, terminated or not.
	commentToken
	// doctypeToken is a <!...> declaration.
	doctypeToken
	// rawTextToken is the verbatim body of the script or style element
	// the previous startToken opened.
	rawTextToken
)

// token is one lexical unit of a page plus its effect on the tree's
// shape. The tokenizer owns the open-element stack, so every consumer
// sees the same nesting: which elements open, which close tag pops what,
// and which are stray.
type token struct {
	kind tokenKind
	// data is the lower-cased tag name (startToken), the character data
	// (textToken, rawTextToken) or the body (commentToken, doctypeToken).
	data string
	// attrs are a startToken's attributes in source order. The slice is
	// reused by the next token.
	attrs []Attr
	// opens reports that a startToken's element stays open and takes the
	// tokens that follow as children: it is not void, not self-closed and
	// not raw text.
	opens bool
	// depth is the number of open elements once the token applies. A
	// startToken's element is a child of the element open at depth
	// depth-1 (of the document when that is 0) if it opens, and at depth
	// otherwise.
	depth int
}

// tokenizer splits a page into tokens. It never fails on malformed
// markup: a bare '<' is text, a stray close tag pops nothing, and an
// unterminated construct ends the page.
type tokenizer struct {
	src   string
	pos   int
	open  []string // tag names of the open elements, outermost first
	raw   string   // name of the raw-text element whose body comes next
	tok   token
	attrs []Attr
}

// next reads the next token into z.tok and reports whether there was one.
func (z *tokenizer) next() bool {
	if z.raw != "" {
		return z.rawText()
	}
	src, i := z.src, z.pos
	for i < len(src) {
		lt := strings.IndexByte(src[i:], '<')
		if lt < 0 {
			z.pos = len(src)
			return z.emit(textToken, src[i:])
		}
		if lt > 0 {
			z.pos = i + lt
			return z.emit(textToken, src[i:i+lt])
		}
		// src[i] == '<'
		switch {
		case strings.HasPrefix(src[i:], "<!--"):
			end := strings.Index(src[i+4:], "-->")
			if end < 0 {
				z.pos = len(src)
				return z.emit(commentToken, src[i+4:])
			}
			z.pos = i + 4 + end + 3
			return z.emit(commentToken, src[i+4:i+4+end])
		case strings.HasPrefix(src[i:], "<!"):
			end := strings.IndexByte(src[i:], '>')
			if end < 0 {
				i = len(src)
				continue
			}
			z.pos = i + end + 1
			return z.emit(doctypeToken, strings.TrimSpace(src[i+2:i+end]))
		case strings.HasPrefix(src[i:], "</"):
			end := strings.IndexByte(src[i:], '>')
			if end < 0 {
				i = len(src)
				continue
			}
			z.pos = i + end + 1
			name := strings.ToLower(strings.TrimSpace(src[i+2 : i+end]))
			// Pop to the matching open element; ignore stray close tags.
			for d := len(z.open) - 1; d >= 0; d-- {
				if z.open[d] == name {
					z.open = z.open[:d]
					break
				}
			}
			return z.emit(endToken, name)
		default:
			name, selfClose, next := z.parseTag(i)
			z.pos = next
			if name == "" {
				// A bare '<' that is not a tag: literal text.
				return z.emit(textToken, "<")
			}
			opens := !selfClose && !isVoid(name)
			if opens && isRawText(name) {
				opens, z.raw = false, name
			}
			if opens {
				z.open = append(z.open, name)
			}
			z.emit(startToken, name)
			z.tok.attrs, z.tok.opens = z.attrs, opens
			return true
		}
	}
	z.pos = len(src)
	return false
}

// rawText reads the body of the raw-text element that just started, up
// to its close tag, and consumes that close tag. The close tag is found
// by an ASCII case-insensitive search on the page itself, so every index
// stays an index into src whatever bytes the body holds.
func (z *tokenizer) rawText() bool {
	src, i, name := z.src, z.pos, z.raw
	z.raw = ""
	idx := indexCloseTag(src[i:], name)
	if idx < 0 {
		// Unterminated: the body runs to the end of the page, even when
		// that leaves it empty.
		z.pos = len(src)
		return z.emit(rawTextToken, src[i:])
	}
	if gt := strings.IndexByte(src[i+idx:], '>'); gt < 0 {
		z.pos = len(src)
	} else {
		z.pos = i + idx + gt + 1
	}
	if idx == 0 {
		return z.next()
	}
	return z.emit(rawTextToken, src[i:i+idx])
}

// indexCloseTag returns the index of the first "</name" in s, matching
// ASCII letters case-insensitively, or -1. name is lower case.
func indexCloseTag(s, name string) int {
	for off := 0; ; {
		j := strings.Index(s[off:], "</")
		if j < 0 {
			return -1
		}
		at := off + j
		rest := s[at+2:]
		if len(rest) >= len(name) && equalFoldASCII(rest[:len(name)], name) {
			return at
		}
		off = at + 2
	}
}

// equalFoldASCII reports whether s equals the lower-case lower, folding
// only ASCII letters.
func equalFoldASCII(s, lower string) bool {
	for k := 0; k < len(s); k++ {
		c := s[k]
		if 'A' <= c && c <= 'Z' {
			c += 'a' - 'A'
		}
		if c != lower[k] {
			return false
		}
	}
	return true
}

func (z *tokenizer) emit(kind tokenKind, data string) bool {
	z.tok = token{kind: kind, data: data, depth: len(z.open)}
	return true
}

// parseTag parses an open tag starting at src[i] == '<' into z.attrs. It
// returns the lower-cased name, whether the tag self-closes, and the index
// just past the closing '>'. A malformed tag returns name == "".
func (z *tokenizer) parseTag(i int) (name string, selfClose bool, next int) {
	src := z.src
	z.attrs = z.attrs[:0]
	j := i + 1
	start := j
	for j < len(src) && isNameByte(src[j]) {
		j++
	}
	if j == start {
		return "", false, i + 1
	}
	name = strings.ToLower(src[start:j])

	for j < len(src) {
		// Skip whitespace.
		for j < len(src) && isSpace(src[j]) {
			j++
		}
		if j >= len(src) {
			return name, false, j
		}
		if src[j] == '>' {
			return name, false, j + 1
		}
		if src[j] == '/' {
			j++
			if j < len(src) && src[j] == '>' {
				return name, true, j + 1
			}
			continue
		}
		// Attribute name.
		aStart := j
		for j < len(src) && src[j] != '=' && src[j] != '>' && src[j] != '/' && !isSpace(src[j]) {
			j++
		}
		key := strings.ToLower(src[aStart:j])
		if key == "" {
			j++
			continue
		}
		for j < len(src) && isSpace(src[j]) {
			j++
		}
		if j >= len(src) || src[j] != '=' {
			z.attrs = append(z.attrs, Attr{Key: key})
			continue
		}
		j++ // skip '='
		for j < len(src) && isSpace(src[j]) {
			j++
		}
		var val string
		if j < len(src) && (src[j] == '"' || src[j] == '\'') {
			quote := src[j]
			j++
			vStart := j
			for j < len(src) && src[j] != quote {
				j++
			}
			val = src[vStart:j]
			if j < len(src) {
				j++ // closing quote
			}
		} else {
			vStart := j
			for j < len(src) && !isSpace(src[j]) && src[j] != '>' {
				j++
			}
			val = src[vStart:j]
		}
		z.attrs = append(z.attrs, Attr{Key: key, Val: html.UnescapeString(val)})
	}
	return name, false, j
}

func isNameByte(c byte) bool {
	return c >= 'a' && c <= 'z' || c >= 'A' && c <= 'Z' || c >= '0' && c <= '9' || c == '-' || c == ':'
}

func isSpace(c byte) bool {
	return c == ' ' || c == '\t' || c == '\n' || c == '\r'
}
