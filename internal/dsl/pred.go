// Package dsl implements a textual definition language for ETL workflows:
// a line-oriented format declaring recordsets, activities and flows, plus
// a small predicate expression language for selections. The format
// round-trips: Serialize(Parse(x)) parses back to an equivalent workflow,
// and the command-line tools read and write it.
package dsl

import (
	"fmt"
	"strconv"
	"strings"
	"unicode"

	"etlopt/internal/algebra"
	"etlopt/internal/data"
)

// ParsePredicate parses a selection predicate such as
//
//	ECOST >= 100 and not(isnull(DATE)) or STATUS = 'ok'
//
// Grammar (standard precedence: or < and < not < comparison < additive <
// multiplicative):
//
//	expr    := orExpr
//	orExpr  := andExpr ('or' andExpr)*
//	andExpr := unary ('and' unary)*
//	unary   := 'not' unary | cmp
//	cmp     := sum (op sum)?          op ∈ {=, ==, <>, !=, <, <=, >, >=}
//	sum     := term (('+'|'-') term)*
//	term    := factor (('*'|'/') factor)*
//	factor  := number | 'string' | ident | ident '(' expr, ... ')' | '(' expr ')'
//	           | isnull '(' expr ')'
func ParsePredicate(src string) (algebra.Expr, error) {
	toks, err := lexPredicate(src)
	if err != nil {
		return nil, err
	}
	p := &predParser{toks: toks}
	e, err := p.parseOr()
	if err != nil {
		return nil, err
	}
	if !p.atEnd() {
		return nil, fmt.Errorf("dsl: unexpected token %q after predicate", p.peek().text)
	}
	return e, nil
}

// token kinds for the predicate lexer.
type tokKind uint8

const (
	tokIdent tokKind = iota
	tokNumber
	tokString
	tokOp // comparison or arithmetic operator, parenthesis, comma
)

type tok struct {
	kind tokKind
	text string
}

func lexPredicate(src string) ([]tok, error) {
	var toks []tok
	i := 0
	for i < len(src) {
		c := rune(src[i])
		switch {
		case unicode.IsSpace(c):
			i++
		case c == '\'': // '' inside a literal is one '
			var lit strings.Builder
			j := i + 1
			for {
				k := strings.IndexByte(src[j:], '\'')
				if k < 0 {
					return nil, fmt.Errorf("dsl: unterminated string literal at %d", i)
				}
				lit.WriteString(src[j : j+k])
				if j += k + 1; j == len(src) || src[j] != '\'' {
					break
				}
				lit.WriteByte('\'')
				j++
			}
			toks = append(toks, tok{tokString, lit.String()})
			i = j
		case unicode.IsDigit(c) || (c == '-' && i+1 < len(src) && unicode.IsDigit(rune(src[i+1])) && startsOperand(toks)):
			j := i + 1
			for j < len(src) && (unicode.IsDigit(rune(src[j])) || src[j] == '.') {
				j++
			}
			// Exponent suffix (1e+06, 2.5E-3), as produced by the %g
			// rendering of float constants.
			if j < len(src) && (src[j] == 'e' || src[j] == 'E') {
				k := j + 1
				if k < len(src) && (src[k] == '+' || src[k] == '-') {
					k++
				}
				if k < len(src) && unicode.IsDigit(rune(src[k])) {
					j = k + 1
					for j < len(src) && unicode.IsDigit(rune(src[j])) {
						j++
					}
				}
			}
			toks = append(toks, tok{tokNumber, src[i:j]})
			i = j
		case unicode.IsLetter(c) || c == '_':
			j := i + 1
			for j < len(src) && (unicode.IsLetter(rune(src[j])) || unicode.IsDigit(rune(src[j])) || src[j] == '_') {
				j++
			}
			toks = append(toks, tok{tokIdent, src[i:j]})
			i = j
		default:
			two := ""
			if i+1 < len(src) {
				two = src[i : i+2]
			}
			switch two {
			case ">=", "<=", "<>", "!=", "==":
				toks = append(toks, tok{tokOp, two})
				i += 2
				continue
			}
			switch c {
			case '=', '<', '>', '+', '-', '*', '/', '(', ')', ',':
				toks = append(toks, tok{tokOp, string(c)})
				i++
			default:
				return nil, fmt.Errorf("dsl: unexpected character %q in predicate", c)
			}
		}
	}
	return toks, nil
}

// startsOperand reports whether the next token position expects an operand
// (so a '-' is a numeric sign rather than subtraction).
func startsOperand(toks []tok) bool {
	if len(toks) == 0 {
		return true
	}
	last := toks[len(toks)-1]
	return last.kind == tokOp && last.text != ")"
}

type predParser struct {
	toks []tok
	pos  int
}

func (p *predParser) atEnd() bool { return p.pos >= len(p.toks) }

func (p *predParser) peek() tok {
	if p.atEnd() {
		return tok{tokOp, ""}
	}
	return p.toks[p.pos]
}

func (p *predParser) next() tok {
	t := p.peek()
	p.pos++
	return t
}

func (p *predParser) expect(text string) error {
	t := p.next()
	if t.text != text {
		return fmt.Errorf("dsl: expected %q, got %q", text, t.text)
	}
	return nil
}

func (p *predParser) parseOr() (algebra.Expr, error) {
	left, err := p.parseAnd()
	if err != nil {
		return nil, err
	}
	for p.peek().kind == tokIdent && p.peek().text == "or" {
		p.next()
		right, err := p.parseAnd()
		if err != nil {
			return nil, err
		}
		left = algebra.Logic{Op: algebra.Or, Left: left, Right: right}
	}
	return left, nil
}

func (p *predParser) parseAnd() (algebra.Expr, error) {
	left, err := p.parseUnary()
	if err != nil {
		return nil, err
	}
	for p.peek().kind == tokIdent && p.peek().text == "and" {
		p.next()
		right, err := p.parseUnary()
		if err != nil {
			return nil, err
		}
		left = algebra.Logic{Op: algebra.And, Left: left, Right: right}
	}
	return left, nil
}

func (p *predParser) parseUnary() (algebra.Expr, error) {
	if p.peek().kind == tokIdent && p.peek().text == "not" {
		p.next()
		// Accept both not(x) and not x.
		inner, err := p.parseUnary()
		if err != nil {
			return nil, err
		}
		return algebra.Not{Inner: inner}, nil
	}
	return p.parseCmp()
}

func (p *predParser) parseCmp() (algebra.Expr, error) {
	left, err := p.parseSum()
	if err != nil {
		return nil, err
	}
	t := p.peek()
	if t.kind == tokOp {
		switch t.text {
		case "=", "==", "<>", "!=", "<", "<=", ">", ">=":
			p.next()
			op, err := algebra.ParseCmpOp(t.text)
			if err != nil {
				return nil, err
			}
			right, err := p.parseSum()
			if err != nil {
				return nil, err
			}
			return algebra.Cmp{Op: op, Left: left, Right: right}, nil
		}
	}
	return left, nil
}

func (p *predParser) parseSum() (algebra.Expr, error) {
	left, err := p.parseTerm()
	if err != nil {
		return nil, err
	}
	for {
		t := p.peek()
		if t.kind != tokOp || (t.text != "+" && t.text != "-") {
			return left, nil
		}
		p.next()
		right, err := p.parseTerm()
		if err != nil {
			return nil, err
		}
		op := algebra.Add
		if t.text == "-" {
			op = algebra.Sub
		}
		left = algebra.Arith{Op: op, Left: left, Right: right}
	}
}

func (p *predParser) parseTerm() (algebra.Expr, error) {
	left, err := p.parseFactor()
	if err != nil {
		return nil, err
	}
	for {
		t := p.peek()
		if t.kind != tokOp || (t.text != "*" && t.text != "/") {
			return left, nil
		}
		p.next()
		right, err := p.parseFactor()
		if err != nil {
			return nil, err
		}
		op := algebra.Mul
		if t.text == "/" {
			op = algebra.Div
		}
		left = algebra.Arith{Op: op, Left: left, Right: right}
	}
}

func (p *predParser) parseFactor() (algebra.Expr, error) {
	t := p.next()
	switch t.kind {
	case tokNumber:
		if strings.ContainsAny(t.text, ".eE") {
			f, err := strconv.ParseFloat(t.text, 64)
			if err != nil {
				return nil, fmt.Errorf("dsl: bad number %q: %v", t.text, err)
			}
			return algebra.Const{Value: data.NewFloat(f)}, nil
		}
		i, err := strconv.ParseInt(t.text, 10, 64)
		if err != nil {
			return nil, fmt.Errorf("dsl: bad number %q: %v", t.text, err)
		}
		return algebra.Const{Value: data.NewInt(i)}, nil
	case tokString:
		return algebra.Const{Value: data.NewString(t.text)}, nil
	case tokIdent:
		switch t.text {
		case "true":
			return algebra.Const{Value: data.NewBool(true)}, nil
		case "false":
			return algebra.Const{Value: data.NewBool(false)}, nil
		case "isnull":
			if err := p.expect("("); err != nil {
				return nil, err
			}
			inner, err := p.parseOr()
			if err != nil {
				return nil, err
			}
			if err := p.expect(")"); err != nil {
				return nil, err
			}
			return algebra.IsNull{Inner: inner}, nil
		}
		// Function call or attribute reference.
		if p.peek().kind == tokOp && p.peek().text == "(" {
			p.next()
			var args []algebra.Expr
			if !(p.peek().kind == tokOp && p.peek().text == ")") {
				for {
					arg, err := p.parseOr()
					if err != nil {
						return nil, err
					}
					args = append(args, arg)
					if p.peek().text == "," {
						p.next()
						continue
					}
					break
				}
			}
			if err := p.expect(")"); err != nil {
				return nil, err
			}
			return algebra.Call{Fn: t.text, Args: args}, nil
		}
		return algebra.Attr{Name: t.text}, nil
	case tokOp:
		if t.text == "(" {
			inner, err := p.parseOr()
			if err != nil {
				return nil, err
			}
			if err := p.expect(")"); err != nil {
				return nil, err
			}
			return inner, nil
		}
	}
	return nil, fmt.Errorf("dsl: unexpected token %q in predicate", t.text)
}
