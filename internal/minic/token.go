// Package minic implements the mini-C frontend: a lexer, a recursive
// descent parser, and a semantic analyzer for a small C subset that is
// sufficient to port the paper's 14 HPC benchmarks (scalars, fixed-size
// multi-dimensional arrays, functions with array/pointer parameters,
// for/while/if control flow, and arithmetic). It is the reproduction's
// stand-in for the Clang frontend: AutoCheck itself never sees source
// code, only the dynamic IR trace, so any frontend that lowers to the
// LLVM-3.4-shaped IR of internal/ir exercises the same analysis.
package minic

import (
	"fmt"
	"unicode"
)

// Kind enumerates token kinds.
type Kind int

// Token kinds.
const (
	EOF Kind = iota
	IDENT
	INTLIT
	FLOATLIT
	// Keywords.
	KwInt
	KwFloat
	KwVoid
	KwIf
	KwElse
	KwFor
	KwWhile
	KwReturn
	KwBreak
	KwContinue
	// Punctuation and operators.
	LParen
	RParen
	LBrace
	RBrace
	LBracket
	RBracket
	Semi
	Comma
	Assign
	PlusAssign
	MinusAssign
	StarAssign
	SlashAssign
	Inc
	Dec
	Plus
	Minus
	Star
	Slash
	Percent
	Lt
	Le
	Gt
	Ge
	EqEq
	NotEq
	AndAnd
	OrOr
	Not
)

var kindNames = map[Kind]string{
	EOF: "EOF", IDENT: "identifier", INTLIT: "integer literal", FLOATLIT: "float literal",
	KwInt: "'int'", KwFloat: "'float'", KwVoid: "'void'", KwIf: "'if'", KwElse: "'else'",
	KwFor: "'for'", KwWhile: "'while'", KwReturn: "'return'", KwBreak: "'break'", KwContinue: "'continue'",
	LParen: "'('", RParen: "')'", LBrace: "'{'", RBrace: "'}'", LBracket: "'['", RBracket: "']'",
	Semi: "';'", Comma: "','", Assign: "'='", PlusAssign: "'+='", MinusAssign: "'-='",
	StarAssign: "'*='", SlashAssign: "'/='", Inc: "'++'", Dec: "'--'",
	Plus: "'+'", Minus: "'-'", Star: "'*'", Slash: "'/'", Percent: "'%'",
	Lt: "'<'", Le: "'<='", Gt: "'>'", Ge: "'>='", EqEq: "'=='", NotEq: "'!='",
	AndAnd: "'&&'", OrOr: "'||'", Not: "'!'",
}

func (k Kind) String() string {
	if s, ok := kindNames[k]; ok {
		return s
	}
	return fmt.Sprintf("Kind(%d)", int(k))
}

var keywords = map[string]Kind{
	"int": KwInt, "float": KwFloat, "double": KwFloat, "void": KwVoid,
	"if": KwIf, "else": KwElse, "for": KwFor, "while": KwWhile,
	"return": KwReturn, "break": KwBreak, "continue": KwContinue,
}

// Pos is a source position.
type Pos struct {
	Line, Col int
}

func (p Pos) String() string { return fmt.Sprintf("%d:%d", p.Line, p.Col) }

// Token is one lexical token.
type Token struct {
	Kind Kind
	Text string
	Pos  Pos
}

// Error is a frontend diagnostic with position.
type Error struct {
	Pos Pos
	Msg string
}

func (e *Error) Error() string { return fmt.Sprintf("%s: %s", e.Pos, e.Msg) }

func errf(pos Pos, format string, args ...any) *Error {
	return &Error{Pos: pos, Msg: fmt.Sprintf(format, args...)}
}

// Lexer tokenizes mini-C source.
type Lexer struct {
	src  string
	off  int
	line int
	col  int
}

// NewLexer returns a lexer over src. Lines are 1-based.
func NewLexer(src string) *Lexer {
	return &Lexer{src: src, line: 1, col: 1}
}

func (l *Lexer) pos() Pos { return Pos{Line: l.line, Col: l.col} }

func (l *Lexer) peek() byte {
	if l.off >= len(l.src) {
		return 0
	}
	return l.src[l.off]
}

func (l *Lexer) peek2() byte {
	if l.off+1 >= len(l.src) {
		return 0
	}
	return l.src[l.off+1]
}

func (l *Lexer) advance() byte {
	c := l.src[l.off]
	l.off++
	if c == '\n' {
		l.line++
		l.col = 1
	} else {
		l.col++
	}
	return c
}

func (l *Lexer) skipSpaceAndComments() error {
	for l.off < len(l.src) {
		c := l.peek()
		switch {
		case c == ' ' || c == '\t' || c == '\r' || c == '\n':
			l.advance()
		case c == '/' && l.peek2() == '/':
			for l.off < len(l.src) && l.peek() != '\n' {
				l.advance()
			}
		case c == '/' && l.peek2() == '*':
			start := l.pos()
			l.advance()
			l.advance()
			closed := false
			for l.off < len(l.src) {
				if l.peek() == '*' && l.peek2() == '/' {
					l.advance()
					l.advance()
					closed = true
					break
				}
				l.advance()
			}
			if !closed {
				return errf(start, "unterminated block comment")
			}
		default:
			return nil
		}
	}
	return nil
}

func isIdentStart(c byte) bool {
	return c == '_' || unicode.IsLetter(rune(c))
}

func isIdentPart(c byte) bool {
	return c == '_' || unicode.IsLetter(rune(c)) || unicode.IsDigit(rune(c))
}

func isDigit(c byte) bool { return c >= '0' && c <= '9' }

// Next returns the next token.
func (l *Lexer) Next() (Token, error) {
	if err := l.skipSpaceAndComments(); err != nil {
		return Token{}, err
	}
	pos := l.pos()
	if l.off >= len(l.src) {
		return Token{Kind: EOF, Pos: pos}, nil
	}
	c := l.peek()
	switch {
	case isIdentStart(c):
		start := l.off
		for l.off < len(l.src) && isIdentPart(l.peek()) {
			l.advance()
		}
		text := l.src[start:l.off]
		if k, ok := keywords[text]; ok {
			return Token{Kind: k, Text: text, Pos: pos}, nil
		}
		return Token{Kind: IDENT, Text: text, Pos: pos}, nil
	case isDigit(c) || (c == '.' && isDigit(l.peek2())):
		start := l.off
		isFloat := false
		for l.off < len(l.src) && isDigit(l.peek()) {
			l.advance()
		}
		if l.off < len(l.src) && l.peek() == '.' {
			isFloat = true
			l.advance()
			for l.off < len(l.src) && isDigit(l.peek()) {
				l.advance()
			}
		}
		if l.off < len(l.src) && (l.peek() == 'e' || l.peek() == 'E') {
			isFloat = true
			l.advance()
			if l.off < len(l.src) && (l.peek() == '+' || l.peek() == '-') {
				l.advance()
			}
			if !isDigit(l.peek()) {
				return Token{}, errf(pos, "malformed exponent in numeric literal")
			}
			for l.off < len(l.src) && isDigit(l.peek()) {
				l.advance()
			}
		}
		text := l.src[start:l.off]
		if isFloat {
			return Token{Kind: FLOATLIT, Text: text, Pos: pos}, nil
		}
		return Token{Kind: INTLIT, Text: text, Pos: pos}, nil
	}
	l.advance()
	two := func(second byte, withKind, withoutKind Kind) (Token, error) {
		if l.off < len(l.src) && l.peek() == second {
			l.advance()
			return Token{Kind: withKind, Text: string(c) + string(second), Pos: pos}, nil
		}
		return Token{Kind: withoutKind, Text: string(c), Pos: pos}, nil
	}
	switch c {
	case '(':
		return Token{Kind: LParen, Text: "(", Pos: pos}, nil
	case ')':
		return Token{Kind: RParen, Text: ")", Pos: pos}, nil
	case '{':
		return Token{Kind: LBrace, Text: "{", Pos: pos}, nil
	case '}':
		return Token{Kind: RBrace, Text: "}", Pos: pos}, nil
	case '[':
		return Token{Kind: LBracket, Text: "[", Pos: pos}, nil
	case ']':
		return Token{Kind: RBracket, Text: "]", Pos: pos}, nil
	case ';':
		return Token{Kind: Semi, Text: ";", Pos: pos}, nil
	case ',':
		return Token{Kind: Comma, Text: ",", Pos: pos}, nil
	case '%':
		return Token{Kind: Percent, Text: "%", Pos: pos}, nil
	case '=':
		return two('=', EqEq, Assign)
	case '!':
		return two('=', NotEq, Not)
	case '<':
		return two('=', Le, Lt)
	case '>':
		return two('=', Ge, Gt)
	case '+':
		if l.off < len(l.src) && l.peek() == '+' {
			l.advance()
			return Token{Kind: Inc, Text: "++", Pos: pos}, nil
		}
		return two('=', PlusAssign, Plus)
	case '-':
		if l.off < len(l.src) && l.peek() == '-' {
			l.advance()
			return Token{Kind: Dec, Text: "--", Pos: pos}, nil
		}
		return two('=', MinusAssign, Minus)
	case '*':
		return two('=', StarAssign, Star)
	case '/':
		return two('=', SlashAssign, Slash)
	case '&':
		if l.off < len(l.src) && l.peek() == '&' {
			l.advance()
			return Token{Kind: AndAnd, Text: "&&", Pos: pos}, nil
		}
	case '|':
		if l.off < len(l.src) && l.peek() == '|' {
			l.advance()
			return Token{Kind: OrOr, Text: "||", Pos: pos}, nil
		}
	}
	return Token{}, errf(pos, "unexpected character %q", string(c))
}

// Tokenize lexes the whole input.
func Tokenize(src string) ([]Token, error) {
	l := NewLexer(src)
	var toks []Token
	for {
		t, err := l.Next()
		if err != nil {
			return nil, err
		}
		toks = append(toks, t)
		if t.Kind == EOF {
			return toks, nil
		}
	}
}
