// Package sqlparse provides the SQL front end for the examples and CLIs:
// a lexer and recursive-descent parser for the SQL subset the paper's
// queries use (SELECT/FROM/WHERE/GROUP BY/ORDER BY, derived tables,
// CASE, EXTRACT, BETWEEN, arithmetic), plus a binder that turns a parsed
// statement into a query graph against a catalog.
package sqlparse

import (
	"fmt"
	"strings"
)

// TokenKind classifies lexer tokens.
type TokenKind uint8

const (
	// TokEOF terminates the token stream.
	TokEOF TokenKind = iota
	// TokIdent is an identifier or unreserved keyword.
	TokIdent
	// TokKeyword is a reserved keyword (upper-cased in Token.Text).
	TokKeyword
	// TokNumber is a numeric literal.
	TokNumber
	// TokString is a single-quoted string literal (unescaped value).
	TokString
	// TokOp is an operator or punctuation.
	TokOp
)

// Token is one lexical element with its source position.
type Token struct {
	Kind TokenKind
	Text string
	Pos  int // byte offset in the input
}

func (t Token) String() string {
	switch t.Kind {
	case TokEOF:
		return "end of input"
	case TokString:
		return fmt.Sprintf("'%s'", t.Text)
	default:
		return t.Text
	}
}

// keywords maps each reserved keyword to itself: a token's Text is the
// table's string, so lexing a keyword allocates nothing.
var keywords = func() map[string]string {
	m := map[string]string{}
	for _, k := range []string{
		"SELECT", "FROM", "WHERE", "GROUP", "BY", "ORDER", "AS", "AND", "OR",
		"NOT", "BETWEEN", "LIKE", "IN", "CASE", "WHEN", "THEN", "ELSE", "END",
		"EXTRACT", "DATE", "ASC", "DESC", "IS", "NULL", "DISTINCT", "HAVING",
		"EXISTS", "ON", "JOIN", "INNER", "LIMIT",
	} {
		m[k] = k
	}
	return m
}()

// maxKeyword is the longest keyword's length: a longer word is an
// identifier without a lookup.
const maxKeyword = len("DISTINCT")

// keyword returns word's canonical keyword, if it is one. Identifiers
// are ASCII, so upper-casing into a stack buffer is exact.
func keyword(word string) (string, bool) {
	if len(word) > maxKeyword {
		return "", false
	}
	var buf [maxKeyword]byte
	for i := 0; i < len(word); i++ {
		c := word[i]
		if 'a' <= c && c <= 'z' {
			c -= 'a' - 'A'
		}
		buf[i] = c
	}
	k, ok := keywords[string(buf[:len(word)])]
	return k, ok
}

// LexError reports a lexing failure with its position.
type LexError struct {
	Pos int
	Msg string
}

func (e *LexError) Error() string {
	return fmt.Sprintf("sql: lex error at offset %d: %s", e.Pos, e.Msg)
}

// Lex tokenizes the input. Comments (-- to end of line) are skipped.
// Token texts slice the input wherever they can (every token but a
// string literal with an escaped quote, and keywords, which come from
// the keyword table), so a statement costs one token slice.
func Lex(input string) ([]Token, error) {
	toks := make([]Token, 0, tokenBound(input))
	i := 0
	n := len(input)
	for i < n {
		c := input[i]
		switch {
		case c == ' ' || c == '\t' || c == '\n' || c == '\r':
			i++
		case c == '-' && i+1 < n && input[i+1] == '-':
			for i < n && input[i] != '\n' {
				i++
			}
		case isDigit(c) || (c == '.' && i+1 < n && isDigit(input[i+1])):
			start := i
			seenDot := false
			for i < n && (isDigit(input[i]) || (input[i] == '.' && !seenDot)) {
				if input[i] == '.' {
					seenDot = true
				}
				i++
			}
			toks = append(toks, Token{TokNumber, input[start:i], start})
		case c == '\'':
			start := i
			i++
			escaped, closed := false, false
			for i < n {
				if input[i] == '\'' {
					if i+1 < n && input[i+1] == '\'' { // escaped quote
						escaped = true
						i += 2
						continue
					}
					closed = true
					i++
					break
				}
				i++
			}
			if !closed {
				return nil, &LexError{start, "unterminated string literal"}
			}
			text := input[start+1 : i-1]
			if escaped {
				text = strings.ReplaceAll(text, "''", "'")
			}
			toks = append(toks, Token{TokString, text, start})
		case isIdentStart(c):
			start := i
			for i < n && isIdentPart(input[i]) {
				i++
			}
			word := input[start:i]
			if k, ok := keyword(word); ok {
				toks = append(toks, Token{TokKeyword, k, start})
			} else {
				toks = append(toks, Token{TokIdent, word, start})
			}
		default:
			start := i
			// Two-character operators first.
			if i+1 < n {
				two := input[i : i+2]
				switch two {
				case "<>", "<=", ">=", "!=", "||":
					toks = append(toks, Token{TokOp, two, start})
					i += 2
					continue
				}
			}
			switch c {
			case '(', ')', ',', '.', ';', '=', '<', '>', '+', '-', '*', '/':
				toks = append(toks, Token{TokOp, input[i : i+1], start})
				i++
			default:
				return nil, &LexError{start, fmt.Sprintf("unexpected character %q", c)}
			}
		}
	}
	toks = append(toks, Token{TokEOF, "", n})
	return toks, nil
}

// tokenBound estimates Lex's token count from above in one pass: every
// token starts at a non-blank byte that does not continue a word (a run
// of identifier bytes), plus the end-of-input token. Only words that
// follow a number directly ("1a") start inside a run; the slice then
// grows as usual.
func tokenBound(input string) int {
	n := 1
	for i := 0; i < len(input); i++ {
		switch c := input[i]; {
		case c == ' ' || c == '\t' || c == '\n' || c == '\r':
		case i > 0 && isIdentPart(c) && isIdentPart(input[i-1]):
		default:
			n++
		}
	}
	return n
}

func isDigit(c byte) bool      { return c >= '0' && c <= '9' }
func isIdentStart(c byte) bool { return c == '_' || (c|0x20) >= 'a' && (c|0x20) <= 'z' }
func isIdentPart(c byte) bool  { return isIdentStart(c) || isDigit(c) }
