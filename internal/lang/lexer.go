package lang

import (
	"strconv"
	"strings"
)

// lexer converts MiniJS source into tokens.
type lexer struct {
	src  string
	pos  int
	line int
	col  int
}

func newLexer(src string) *lexer {
	return &lexer{src: src, line: 1, col: 1}
}

func (l *lexer) errf(msg string) *syntaxError {
	return &syntaxError{Msg: msg, Line: l.line, Col: l.col}
}

func (l *lexer) peekByte() byte {
	if l.pos >= len(l.src) {
		return 0
	}
	return l.src[l.pos]
}

func (l *lexer) peekByteAt(off int) byte {
	if l.pos+off >= len(l.src) {
		return 0
	}
	return l.src[l.pos+off]
}

func (l *lexer) advance() byte {
	c := l.src[l.pos]
	l.pos++
	if c == '\n' {
		l.line++
		l.col = 1
	} else {
		l.col++
	}
	return c
}

func (l *lexer) skipSpaceAndComments() error {
	for l.pos < len(l.src) {
		c := l.peekByte()
		switch {
		case c == ' ' || c == '\t' || c == '\r' || c == '\n':
			l.advance()
		case c == '/' && l.peekByteAt(1) == '/':
			for l.pos < len(l.src) && l.peekByte() != '\n' {
				l.advance()
			}
		case c == '/' && l.peekByteAt(1) == '*':
			l.advance()
			l.advance()
			for {
				if l.pos >= len(l.src) {
					return l.errf("unterminated block comment")
				}
				if l.peekByte() == '*' && l.peekByteAt(1) == '/' {
					l.advance()
					l.advance()
					break
				}
				l.advance()
			}
		default:
			return nil
		}
	}
	return nil
}

func isIdentStart(c byte) bool {
	return c == '_' || c == '$' || (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z')
}

func isIdentPart(c byte) bool {
	return isIdentStart(c) || (c >= '0' && c <= '9')
}

func isDigit(c byte) bool { return c >= '0' && c <= '9' }

// multi-byte punctuation, longest first.
var puncts = []string{
	"===", "!==", "<<=", ">>=", "&&", "||", "==", "!=", "<=", ">=",
	"+=", "-=", "*=", "/=", "%=", "++", "--", "<<", ">>",
	"+", "-", "*", "/", "%", "<", ">", "=", "!", "(", ")", "{", "}",
	"[", "]", ",", ";", ":", ".", "?", "&", "|", "^", "~",
}

// next returns the next token.
func (l *lexer) next() (token, error) {
	if err := l.skipSpaceAndComments(); err != nil {
		return token{}, err
	}
	line, col := l.line, l.col
	if l.pos >= len(l.src) {
		return token{Kind: tokEOF, Line: line, Col: col}, nil
	}
	c := l.peekByte()
	switch {
	case isDigit(c) || (c == '.' && isDigit(l.peekByteAt(1))):
		return l.lexNumber(line, col)
	case c == '"' || c == '\'':
		return l.lexString(line, col)
	case c == '`':
		return token{}, l.errf("template literals are not supported")
	case c == '=' && l.peekByteAt(1) == '>':
		return token{}, l.errf("arrow functions are not supported")
	case isIdentStart(c):
		start := l.pos
		for l.pos < len(l.src) && isIdentPart(l.peekByte()) {
			l.advance()
		}
		text := l.src[start:l.pos]
		kind := tokIdent
		if keywords[text] {
			kind = tokKeyword
		}
		return token{Kind: kind, Text: text, Line: line, Col: col}, nil
	}
	for _, p := range puncts {
		if strings.HasPrefix(l.src[l.pos:], p) {
			for range p {
				l.advance()
			}
			return token{Kind: tokPunct, Text: p, Line: line, Col: col}, nil
		}
	}
	return token{}, l.errf("unexpected character " + strconv.QuoteRune(rune(c)))
}

func (l *lexer) lexNumber(line, col int) (token, error) {
	start := l.pos
	if l.peekByte() == '0' && (l.peekByteAt(1) == 'x' || l.peekByteAt(1) == 'X') {
		l.advance()
		l.advance()
		for l.pos < len(l.src) && isHex(l.peekByte()) {
			l.advance()
		}
		v, err := strconv.ParseUint(l.src[start+2:l.pos], 16, 64)
		if err != nil {
			return token{}, l.errf("bad hex literal")
		}
		return token{Kind: tokNumber, Text: l.src[start:l.pos], Num: float64(v), Line: line, Col: col}, nil
	}
	for l.pos < len(l.src) && isDigit(l.peekByte()) {
		l.advance()
	}
	if l.peekByte() == '.' && isDigit(l.peekByteAt(1)) {
		l.advance()
		for l.pos < len(l.src) && isDigit(l.peekByte()) {
			l.advance()
		}
	}
	if c := l.peekByte(); c == 'e' || c == 'E' {
		save := l.pos
		l.advance()
		if c := l.peekByte(); c == '+' || c == '-' {
			l.advance()
		}
		if !isDigit(l.peekByte()) {
			l.pos = save // not an exponent; leave for the parser to reject
		} else {
			for l.pos < len(l.src) && isDigit(l.peekByte()) {
				l.advance()
			}
		}
	}
	text := l.src[start:l.pos]
	v, err := strconv.ParseFloat(text, 64)
	if err != nil {
		return token{}, l.errf("bad number literal " + strconv.Quote(text))
	}
	return token{Kind: tokNumber, Text: text, Num: v, Line: line, Col: col}, nil
}

func isHex(c byte) bool {
	return isDigit(c) || (c >= 'a' && c <= 'f') || (c >= 'A' && c <= 'F')
}

func (l *lexer) lexString(line, col int) (token, error) {
	quote := l.advance()
	var sb strings.Builder
	for {
		if l.pos >= len(l.src) {
			return token{}, l.errf("unterminated string")
		}
		c := l.advance()
		if c == quote {
			break
		}
		if c == '\\' {
			if l.pos >= len(l.src) {
				return token{}, l.errf("unterminated escape")
			}
			e := l.advance()
			switch e {
			case 'n':
				sb.WriteByte('\n')
			case 't':
				sb.WriteByte('\t')
			case 'r':
				sb.WriteByte('\r')
			case '\\':
				sb.WriteByte('\\')
			case '\'':
				sb.WriteByte('\'')
			case '"':
				sb.WriteByte('"')
			case '0':
				sb.WriteByte(0)
			default:
				return token{}, l.errf("unknown escape \\" + string(e))
			}
			continue
		}
		sb.WriteByte(c)
	}
	return token{Kind: tokString, Text: sb.String(), Line: line, Col: col}, nil
}

// lexAll tokenizes the whole source (including the trailing EOF token).
func lexAll(src string) ([]token, error) {
	l := newLexer(src)
	var toks []token
	for {
		t, err := l.next()
		if err != nil {
			return nil, err
		}
		toks = append(toks, t)
		if t.Kind == tokEOF {
			return toks, nil
		}
	}
}
