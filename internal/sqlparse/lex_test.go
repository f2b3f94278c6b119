package sqlparse_test

import (
	"fmt"
	"path/filepath"
	"slices"
	"strings"
	"testing"

	"orderopt/internal/conformance"
	"orderopt/internal/sqlparse"
	"orderopt/internal/tpcr"
)

// q8Limit is the served cold-planning statement: Q8 with a limit.
var q8Limit = tpcr.Query8SQL + " limit 17"

// TestLexAllocs: Lex allocates per statement, not per word — the token
// slice, sized once, and nothing per token (keywords come from the
// keyword table, every other text slices the input).
func TestLexAllocs(t *testing.T) {
	if n := testing.AllocsPerRun(100, func() {
		if _, err := sqlparse.Lex(q8Limit); err != nil {
			t.Fatal(err)
		}
	}); n > 2 {
		t.Errorf("Lex of Q8 makes %.0f allocations, want at most 2", n)
	}
}

// TestLexMatchesReference holds Lex to referenceLex, token for token,
// on every conformance fixture's SQL, on Q8 with and without a limit,
// and on the literal, keyword and operator corners.
func TestLexMatchesReference(t *testing.T) {
	inputs := []string{
		tpcr.Query8SQL, q8Limit,
		"select 'it''s', '', '''', 'a''''b', 'plain' from t",
		"SeLeCt DISTINCT x FROM t WHERE a<>b AND c<=d OR e>=f AND g!=h || i -- tail",
		"select verylongidentifier, distinctive, betweenx, _in, in1 from t",
		"select 1.5, .5, 1.2.3, 12abc, 1e5 from t;",
		"select 'unterminated", "select #", "",
	}
	paths, err := filepath.Glob(filepath.Join("..", "conformance", "testdata", "*.fixture"))
	if err != nil || len(paths) == 0 {
		t.Fatalf("no conformance fixtures found (%v)", err)
	}
	for _, path := range paths {
		f, err := conformance.ParseFile(path)
		if err != nil {
			t.Fatal(err)
		}
		inputs = append(inputs, f.SQL)
	}
	for _, in := range inputs {
		got, gotErr := sqlparse.Lex(in)
		want, wantErr := referenceLex(in)
		if fmt.Sprint(gotErr) != fmt.Sprint(wantErr) || !slices.Equal(got, want) {
			t.Errorf("Lex(%q) = %v, %v; the reference gives %v, %v", in, got, gotErr, want, wantErr)
		}
	}
}

// referenceLex is the lexer as first written — a strings.ToUpper per
// word, a strings.Builder per string literal, an append-grown slice —
// kept as the specification the allocation-free Lex must match.
func referenceLex(input string) ([]sqlparse.Token, error) {
	keywords := map[string]bool{}
	for _, k := range strings.Fields(`SELECT FROM WHERE GROUP BY ORDER AS AND OR NOT
		BETWEEN LIKE IN CASE WHEN THEN ELSE END EXTRACT DATE ASC DESC IS NULL
		DISTINCT HAVING EXISTS ON JOIN INNER LIMIT`) {
		keywords[k] = true
	}
	isDigit := func(c byte) bool { return c >= '0' && c <= '9' }
	isIdentStart := func(c byte) bool { return c == '_' || (c|0x20) >= 'a' && (c|0x20) <= 'z' }
	isIdentPart := func(c byte) bool { return isIdentStart(c) || isDigit(c) }
	var toks []sqlparse.Token
	i, n := 0, len(input)
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
			toks = append(toks, sqlparse.Token{Kind: sqlparse.TokNumber, Text: input[start:i], Pos: start})
		case c == '\'':
			start := i
			i++
			var sb strings.Builder
			closed := false
			for i < n {
				if input[i] == '\'' {
					if i+1 < n && input[i+1] == '\'' {
						sb.WriteByte('\'')
						i += 2
						continue
					}
					closed = true
					i++
					break
				}
				sb.WriteByte(input[i])
				i++
			}
			if !closed {
				return nil, &sqlparse.LexError{Pos: start, Msg: "unterminated string literal"}
			}
			toks = append(toks, sqlparse.Token{Kind: sqlparse.TokString, Text: sb.String(), Pos: start})
		case isIdentStart(c):
			start := i
			for i < n && isIdentPart(input[i]) {
				i++
			}
			word := input[start:i]
			if upper := strings.ToUpper(word); keywords[upper] {
				toks = append(toks, sqlparse.Token{Kind: sqlparse.TokKeyword, Text: upper, Pos: start})
			} else {
				toks = append(toks, sqlparse.Token{Kind: sqlparse.TokIdent, Text: word, Pos: start})
			}
		default:
			start := i
			if i+1 < n {
				switch two := input[i : i+2]; two {
				case "<>", "<=", ">=", "!=", "||":
					toks = append(toks, sqlparse.Token{Kind: sqlparse.TokOp, Text: two, Pos: start})
					i += 2
					continue
				}
			}
			switch c {
			case '(', ')', ',', '.', ';', '=', '<', '>', '+', '-', '*', '/':
				toks = append(toks, sqlparse.Token{Kind: sqlparse.TokOp, Text: string(c), Pos: start})
				i++
			default:
				return nil, &sqlparse.LexError{Pos: start, Msg: fmt.Sprintf("unexpected character %q", c)}
			}
		}
	}
	return append(toks, sqlparse.Token{Kind: sqlparse.TokEOF, Pos: n}), nil
}
